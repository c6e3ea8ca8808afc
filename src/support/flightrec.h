/**
 * @file
 * Crash flight recorder: a fixed-size, lock-free, per-thread ring of
 * recent events that costs nothing to keep on and can be dumped from
 * the places where nothing else works — TG_PANIC, fatal signal
 * handlers, and the SIGTERM drain path.
 *
 * Tracing and metrics explain the runs that finish; the flight
 * recorder explains the one that did not. Every note() is a handful
 * of plain stores into a statically allocated ring owned by the
 * calling thread (no heap, no locks, no syscalls), so hot paths can
 * note unconditionally. On a crash the handler walks all claimed
 * rings and writes the last events of every thread as JSON lines
 * using only async-signal-safe primitives (open/write, hand-rolled
 * formatting — no stdio, no malloc).
 *
 * Capacity is static: kMaxThreads rings of kRingEvents events.
 * Threads beyond the claim limit note into nothing (counted), which
 * keeps note() branch-cheap and the whole structure allocation-free
 * for any thread count.
 */

#ifndef TREEGION_SUPPORT_FLIGHTREC_H
#define TREEGION_SUPPORT_FLIGHTREC_H

#include <cstdint>

namespace treegion::support::flightrec {

/** Rings available before extra threads start noting into nothing. */
constexpr int kMaxThreads = 64;
/** Events retained per thread (power of two; older ones overwrite). */
constexpr int kRingEvents = 256;
/** Capacity of the fixed tag / detail character fields (including
 * the NUL; longer strings truncate). */
constexpr int kTagChars = 24;
constexpr int kDetailChars = 40;

/**
 * Record one event in the calling thread's ring: a short static tag
 * (e.g. "req", "panic"), an optional free-form detail, and two
 * numeric payloads. Always on, allocation-free, lock-free.
 */
void note(const char *tag, const char *detail = nullptr,
          uint64_t a = 0, uint64_t b = 0);

/** Total events ever noted (including overwritten ones). */
uint64_t noteCount();

/**
 * Set the file the crash/drain dumps write to (path copied into a
 * static buffer; empty or overlong paths reset to stderr). Safe to
 * call once at startup, before handlers can fire.
 */
void setDumpPath(const char *path);

/**
 * Dump every claimed ring, oldest event first per thread, as JSON
 * lines to @p fd. Async-signal-safe: no allocation, no stdio, no
 * locks (events being written concurrently with a crash dump may
 * read torn — acceptable for a post-mortem artifact).
 */
void dump(int fd);

/** dump() to @p path (O_CREAT|O_TRUNC). @return false when the file
 * cannot be opened. */
bool dumpToFile(const char *path);

/** dump() to the setDumpPath() target, or stderr when none is
 * configured. Re-entry safe: the second and later calls are no-ops,
 * so a panic hook followed by the SIGABRT handler dumps once. */
void dumpConfigured();

/**
 * Install handlers for SIGSEGV, SIGBUS, SIGFPE, SIGILL and SIGABRT
 * that dumpConfigured() and then re-raise with the default
 * disposition. @return false if any sigaction failed.
 */
bool installCrashHandlers();

} // namespace treegion::support::flightrec

#endif // TREEGION_SUPPORT_FLIGHTREC_H
