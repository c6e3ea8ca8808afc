#include "support/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace treegion::support {

namespace {
std::atomic<PanicHook> g_panic_hook{nullptr};
} // namespace

PanicHook
setPanicHook(PanicHook hook)
{
    return g_panic_hook.exchange(hook, std::memory_order_acq_rel);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    // Best-effort telemetry flush: the message above is already out,
    // so a hook that itself dies cannot eat the diagnosis. Take the
    // hook exactly once so a panic inside the hook cannot recurse.
    if (PanicHook hook =
            g_panic_hook.exchange(nullptr, std::memory_order_acq_rel))
        hook();
    std::abort();
}

} // namespace treegion::support
