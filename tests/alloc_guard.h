/**
 * @file
 * Counting global operator new/delete interposer for allocation
 * regression tests.
 *
 * Including this header replaces the global allocation functions with
 * versions that count every successful allocation while an AllocGuard
 * is alive. The replacements are non-inline definitions, so the
 * header must be included from EXACTLY ONE translation unit per test
 * binary (a second inclusion fails the link with duplicate symbols —
 * deliberately).
 *
 * Only allocations (and their requested bytes) are counted, not
 * frees: the steady-state property under test is "the scheduler
 * performs no heap allocation", and tearing down inputs that were
 * built before the guard started is legitimate.
 *
 * The interposer additionally forwards every allocation and free
 * (with its usable size) to support/memstat.h, which is how the
 * memory-estimator calibration and the memsched bench measure live
 * heap bytes and peak footprint. Binaries that do not include this
 * header never feed memstat and measure nothing.
 */

#ifndef TREEGION_TESTS_ALLOC_GUARD_H
#define TREEGION_TESTS_ALLOC_GUARD_H

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <malloc.h>

#include "support/memstat.h"

namespace tg_test {

inline std::atomic<uint64_t> g_allocations{0};
inline std::atomic<uint64_t> g_allocated_bytes{0};
inline std::atomic<bool> g_counting{false};

/** RAII window during which global allocations are counted. */
class AllocGuard
{
  public:
    AllocGuard()
        : start_(g_allocations.load(std::memory_order_relaxed)),
          start_bytes_(g_allocated_bytes.load(std::memory_order_relaxed))
    {
        g_counting.store(true, std::memory_order_relaxed);
    }

    ~AllocGuard()
    {
        g_counting.store(false, std::memory_order_relaxed);
    }

    AllocGuard(const AllocGuard &) = delete;
    AllocGuard &operator=(const AllocGuard &) = delete;

    /** Allocations since construction (read before destruction). */
    uint64_t
    allocations() const
    {
        return g_allocations.load(std::memory_order_relaxed) - start_;
    }

    /** Bytes requested by those allocations. */
    uint64_t
    bytes() const
    {
        return g_allocated_bytes.load(std::memory_order_relaxed) -
               start_bytes_;
    }

  private:
    uint64_t start_;
    uint64_t start_bytes_;
};

inline void *
countedAlloc(std::size_t size, std::size_t align) noexcept
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (size == 0)
        size = 1;
    void *p;
    if (align > alignof(std::max_align_t)) {
        const std::size_t rounded = (size + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    } else {
        p = std::malloc(size);
    }
    // Feed the library's live-byte accounting (support/memstat.h):
    // linking this interposer is what turns memory measurement on.
    if (p)
        treegion::support::memstatOnAlloc(::malloc_usable_size(p));
    return p;
}

inline void
countedFree(void *p) noexcept
{
    if (p)
        treegion::support::memstatOnFree(::malloc_usable_size(p));
    std::free(p);
}

} // namespace tg_test

// Replaceable global allocation functions (non-inline by rule; see
// file comment for the single-inclusion requirement).

void *
operator new(std::size_t size)
{
    void *p = tg_test::countedAlloc(size, alignof(std::max_align_t));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = tg_test::countedAlloc(size, alignof(std::max_align_t));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p =
        tg_test::countedAlloc(size, static_cast<std::size_t>(align));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *p =
        tg_test::countedAlloc(size, static_cast<std::size_t>(align));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return tg_test::countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return tg_test::countedAlloc(size, alignof(std::max_align_t));
}

void
operator delete(void *p) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    tg_test::countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    tg_test::countedFree(p);
}

#endif // TREEGION_TESTS_ALLOC_GUARD_H
