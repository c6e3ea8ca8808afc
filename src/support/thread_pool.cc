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
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_.store(true);
    }
    wake_cv_.notify_all();
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
    TG_ASSERT(!stop_.load(), "submit() on a stopping ThreadPool");
    const size_t target =
        next_worker_.fetch_add(1, std::memory_order_relaxed) %
        workers_.size();
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->tasks.push_back(std::move(task));
    }
    const size_t outstanding =
        pending_.fetch_add(1, std::memory_order_release) + 1;
    {
        // Empty critical section pairs with the waiters' predicate
        // check so a wakeup between check and wait is never lost.
        std::lock_guard<std::mutex> lock(wake_mutex_);
    }
    // One notify per enqueue is lossy under bursts: a worker that
    // wakes early and drains several tasks absorbs the signals meant
    // for its siblings, which then sleep until the next enqueue. Wake
    // everyone while more work is outstanding than one wakeup covers.
    if (outstanding > 1)
        wake_cv_.notify_all();
    else
        wake_cv_.notify_one();
}

bool
ThreadPool::takeTask(size_t self, std::function<void()> &out)
{
    // Own deque first, oldest task first.
    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.front());
            own.tasks.pop_front();
            pending_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    // Steal the newest task from the first non-empty victim.
    const size_t n = workers_.size();
    for (size_t k = 1; k < n; ++k) {
        Worker &victim = *workers_[(self + k) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            pending_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    for (;;) {
        std::function<void()> task;
        if (takeTask(self, task)) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(wake_mutex_);
        if (stop_.load() && pending_.load() == 0)
            return;
        wake_cv_.wait(lock, [this] {
            return stop_.load() ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        // Drain outstanding work before honoring stop: the loop goes
        // back to takeTask first, so ~ThreadPool never drops tasks.
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
