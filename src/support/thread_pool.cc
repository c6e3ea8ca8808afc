#include "support/thread_pool.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::support {

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    // A negative count cast to size_t, or a misread config, should
    // fail loudly here rather than as std::thread exhaustion.
    TG_ASSERT(num_threads <= 4096);
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

size_t
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TG_ASSERT(!stop_, "submit() on a stopping ThreadPool");
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            // Stop only once the queue is empty: ~ThreadPool drains.
            if (tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    // The counter lives under done_mutex so the last decrement and
    // its notification are atomic with respect to the waiter: once
    // the caller observes remaining == 0 the workers are done with
    // every local below, and returning is safe.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    size_t remaining = n;
    std::exception_ptr first_error;

    for (size_t i = 0; i < n; ++i) {
        enqueue([&, i] {
            std::exception_ptr error;
            try {
                body(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(done_mutex);
            if (error && !first_error)
                first_error = error;
            if (--remaining == 0)
                done_cv.notify_one();
        });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
    if (first_error)
        std::rethrow_exception(first_error);
}

bool
MemoryGate::tryAdmit(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const bool unlimited = budget_ == 0;
    const bool fits = in_use_ + bytes <= budget_;
    if (!unlimited && !fits && in_use_ != 0)
        return false;
    in_use_ += bytes;
    if (in_use_ > high_water_)
        high_water_ = in_use_;
    return true;
}

void
MemoryGate::release(uint64_t bytes)
{
    bool held = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        held = bytes <= in_use_;
        if (held) {
            in_use_ -= bytes;
            ++generation_;
        }
    }
    // Panic outside the lock: treegiond's panic hook writes /stats,
    // which calls inUseBytes() and would deadlock on the lock.
    TG_ASSERT(held, "release without admission");
    cv_.notify_all();
}

void
MemoryGate::waitForRelease(uint64_t seen_generation)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return generation_ != seen_generation; });
}

uint64_t
MemoryGate::generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

uint64_t
MemoryGate::inUseBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return in_use_;
}

uint64_t
MemoryGate::highWaterBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
}

} // namespace treegion::support
