/**
 * @file
 * The thread pool behind every parallel caller: the batch driver
 * (sched::runPipelineParallel), the fuzz campaign and treegiond.
 *
 * One mutex-guarded FIFO queue feeds every worker, so tasks start in
 * submission order at any worker count. Callers submit independent
 * compiles of a millisecond or more each, a grain at which the queue
 * lock is never the bottleneck. A caller that wants one thread makes
 * a one-worker pool.
 *
 * submit() returns a std::future so exceptions thrown by a task
 * propagate to whoever joins on the result; parallelFor() rethrows
 * the first failure after the loop drains. The destructor finishes
 * every task already submitted before joining the workers.
 */

#ifndef TREEGION_SUPPORT_THREAD_POOL_H
#define TREEGION_SUPPORT_THREAD_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace treegion::support {

/** Fixed-size FIFO worker pool. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers; 0 means hardwareThreads().
     */
    explicit ThreadPool(size_t num_threads = 0);

    /** Finishes all submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the number of worker threads. */
    size_t numThreads() const { return threads_.size(); }

    /** @return the machine's hardware thread count (at least 1). */
    static size_t hardwareThreads();

    /**
     * Enqueue @p task and @return a future for its result. The
     * future rethrows anything the task throws.
     */
    template <typename F>
    auto
    submit(F &&task) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto packaged = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(task));
        std::future<R> result = packaged->get_future();
        enqueue([packaged]() { (*packaged)(); });
        return result;
    }

    /**
     * Run body(0) .. body(n-1) across the pool and wait for all of
     * them. Rethrows the first exception any iteration threw (the
     * remaining iterations still run to completion first).
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t)> &body);

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;  ///< guarded by mutex_
    bool stop_ = false;                        ///< guarded by mutex_
};

/**
 * Byte-budget admission gate for memory-bounded job scheduling.
 *
 * A coordinator (sched::runPipelineParallel, treegiond's admission)
 * reserves each job's projected peak footprint before submitting it
 * to the pool and releases the reservation when the job finishes, so
 * the aggregate projected peak of everything running never exceeds
 * the budget (the memory-bounded schedules of the ROMA papers —
 * Eyraud-Dubois et al.). Both coordinators admit waiting jobs with
 * admitLargestFirst, so the admission order is written once. Pool
 * workers themselves never block on the gate; only the coordinator
 * waits, so admission can never deadlock the pool.
 *
 * Progress guarantee: tryAdmit always succeeds when nothing is
 * admitted, whatever the request size. A job projected larger than
 * the whole budget therefore runs — solo, since while it holds more
 * than the budget nothing else fits — instead of waiting forever.
 */
class MemoryGate
{
  public:
    /** @param budget_bytes byte ceiling; 0 = unlimited. */
    explicit MemoryGate(uint64_t budget_bytes)
        : budget_(budget_bytes)
    {
    }

    MemoryGate(const MemoryGate &) = delete;
    MemoryGate &operator=(const MemoryGate &) = delete;

    /**
     * Reserve @p bytes if they fit under the budget (or nothing is
     * currently admitted — see the progress guarantee above).
     * @return true and record the reservation, or false untouched.
     */
    bool tryAdmit(uint64_t bytes);

    /** Return @p bytes reserved by a successful tryAdmit. */
    void release(uint64_t bytes);

    /**
     * One admission scan over @p waiting, whose items carry their
     * projected bytes in a `projected` member. Under a budget a
     * stable sort first puts the largest projection first, ties in
     * arrival order (the ROMA order); an unlimited gate keeps
     * arrival order. Each item that fits is reserved and handed to
     * @p start, then leaves @p waiting. An item @p start refuses
     * (returns false) gets its bytes back and stays.
     * @return the number of items started.
     */
    template <typename T, typename Start>
    size_t
    admitLargestFirst(std::vector<T> &waiting, Start &&start)
    {
        if (budget_ > 0) {
            std::stable_sort(waiting.begin(), waiting.end(),
                             [](const T &a, const T &b) {
                                 return a.projected > b.projected;
                             });
        }
        size_t started = 0;
        auto kept = waiting.begin();
        for (auto it = waiting.begin(); it != waiting.end(); ++it) {
            if (tryAdmit(it->projected)) {
                if (start(*it)) {
                    ++started;
                    continue;
                }
                release(it->projected);
            }
            if (kept != it)
                *kept = std::move(*it);
            ++kept;
        }
        waiting.erase(kept, waiting.end());
        return started;
    }

    /**
     * Block until the gate changes from the state observed as
     * @p seen_generation (a release happened), then return. Spurious
     * returns are fine: callers re-scan their candidates anyway.
     */
    void waitForRelease(uint64_t seen_generation);

    /** Opaque state stamp for waitForRelease. */
    uint64_t generation() const;

    /** @return the configured budget (0 = unlimited). */
    uint64_t budgetBytes() const { return budget_; }

    /** @return currently reserved bytes. */
    uint64_t inUseBytes() const;

    /**
     * @return the largest reservation total ever observed. Exceeds
     * the budget only if an oversized job was admitted solo.
     */
    uint64_t highWaterBytes() const;

  private:
    const uint64_t budget_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    uint64_t in_use_ = 0;
    uint64_t high_water_ = 0;
    uint64_t generation_ = 0;
};

} // namespace treegion::support

#endif // TREEGION_SUPPORT_THREAD_POOL_H
