/**
 * @file
 * Hook-based heap accounting for memory-budget calibration.
 *
 * The library never interposes malloc itself. A test or bench binary
 * that links an allocation interposer (tests/alloc_guard.h) forwards
 * every successful allocation and free here, and the counters below
 * track live heap bytes and the peak observed inside a measurement
 * window. Binaries without an interposer pay nothing: the hooks are
 * never called, memstatActive() stays false, and every counter reads
 * zero.
 *
 * The window peak is process-global. Per-stage measurements (the
 * mem_estimate calibration, the per-stage numbers in PipelineResult)
 * are therefore only meaningful when exactly one thread is compiling;
 * the whole-process peak used by the memsched bench is meaningful
 * under any concurrency.
 */

#ifndef TREEGION_SUPPORT_MEMSTAT_H
#define TREEGION_SUPPORT_MEMSTAT_H

#include <cstddef>
#include <cstdint>

namespace treegion::support {

/** Interposer hook: @p bytes were allocated (usable size). */
void memstatOnAlloc(std::size_t bytes) noexcept;

/** Interposer hook: @p bytes were freed (usable size). */
void memstatOnFree(std::size_t bytes) noexcept;

/** True once any interposer hook has fired in this process. */
bool memstatActive() noexcept;

/** Largest live-byte count observed since the last window reset. */
uint64_t memstatWindowPeakBytes() noexcept;

/**
 * Start a new measurement window: the window peak restarts from the
 * current live bytes. @return the live bytes at the reset, so a
 * caller can report the window's peak growth as peak - start.
 */
uint64_t memstatResetWindow() noexcept;

/**
 * Opt runPipeline's per-stage footprint instrumentation in or out
 * (default: out). Stage measurement resets the process-global window
 * at every stage boundary, so it MUST stay off while a whole-run
 * window measurement is in progress or any other thread compiles —
 * enable it only for single-threaded calibration.
 */
void memstatSetStageProfiling(bool enabled) noexcept;

/** True when per-stage profiling was requested. */
bool memstatStageProfiling() noexcept;

} // namespace treegion::support

#endif // TREEGION_SUPPORT_MEMSTAT_H
