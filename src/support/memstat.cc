#include "support/memstat.h"

#include <atomic>

namespace treegion::support {

namespace {

// Called from inside operator new/delete: these must never allocate
// and never take a lock. Live bytes are signed so a free of a block
// allocated before the process's interposer was reachable (static
// initialization order) cannot wrap the counter; reads clamp at zero.
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_window_peak{0};
std::atomic<bool> g_active{false};

void
raisePeak(int64_t live)
{
    int64_t seen = g_window_peak.load(std::memory_order_relaxed);
    while (seen < live &&
           !g_window_peak.compare_exchange_weak(
               seen, live, std::memory_order_relaxed)) {
    }
}

} // namespace

void
memstatOnAlloc(std::size_t bytes) noexcept
{
    if (!g_active.load(std::memory_order_relaxed))
        g_active.store(true, std::memory_order_relaxed);
    const int64_t live =
        g_live.fetch_add(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed) +
        static_cast<int64_t>(bytes);
    raisePeak(live);
}

void
memstatOnFree(std::size_t bytes) noexcept
{
    g_live.fetch_sub(static_cast<int64_t>(bytes),
                     std::memory_order_relaxed);
}

bool
memstatActive() noexcept
{
    return g_active.load(std::memory_order_relaxed);
}

uint64_t
memstatWindowPeakBytes() noexcept
{
    const int64_t peak = g_window_peak.load(std::memory_order_relaxed);
    return peak > 0 ? static_cast<uint64_t>(peak) : 0;
}

uint64_t
memstatResetWindow() noexcept
{
    const int64_t live = g_live.load(std::memory_order_relaxed);
    g_window_peak.store(live, std::memory_order_relaxed);
    return live > 0 ? static_cast<uint64_t>(live) : 0;
}

} // namespace treegion::support
