/**
 * @file
 * Internal-invariant reporting: TG_PANIC and TG_ASSERT.
 *
 * Follows the gem5 convention for panic(): it is for internal
 * invariant violations (library bugs). It prints a message with the
 * source location, runs the installed panic hook, and aborts (core
 * dump friendly). Errors in the input are not panics: the parser and
 * the verifiers report them, and the tools print them and exit 1.
 */

#ifndef TREEGION_SUPPORT_LOGGING_H
#define TREEGION_SUPPORT_LOGGING_H

namespace treegion::support {

/**
 * Install a hook that panicImpl runs after printing the panic
 * message and before abort(). Long-lived processes use it to flush
 * in-memory telemetry (flight recorder, spans, metrics) so a panic
 * leaves evidence; it runs in normal (non-signal) context. Returns
 * the previous hook. Pass nullptr to clear.
 */
using PanicHook = void (*)();
PanicHook setPanicHook(PanicHook hook);

/** Internal: report and abort. Use the panic() macro instead. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

} // namespace treegion::support

/** Report an internal library bug and abort. */
#define TG_PANIC(...)                                                       \
    ::treegion::support::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; panics with the condition text. */
#define TG_ASSERT(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::treegion::support::panicImpl(__FILE__, __LINE__,              \
                                           "assertion failed: %s", #cond); \
        }                                                                   \
    } while (0)

#endif // TREEGION_SUPPORT_LOGGING_H
