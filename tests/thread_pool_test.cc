/**
 * @file
 * Unit tests for the FIFO thread pool: start and result ordering,
 * exception propagation, stress with many small tasks, and clean
 * shutdown. The CI TSan job runs these.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace treegion::support {
namespace {

TEST(ThreadPool, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, DefaultSizeUsesHardwareThreads)
{
    ThreadPool pool;
    EXPECT_EQ(pool.numThreads(), ThreadPool::hardwareThreads());
}

TEST(ThreadPool, SubmitReturnsResults)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ResultsKeepSubmissionOrderAcrossThreadCounts)
{
    // The futures pin results to submission order no matter which
    // worker runs which task or how long each task takes.
    for (const size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::future<size_t>> futures;
        for (size_t i = 0; i < 64; ++i) {
            futures.push_back(pool.submit([i] {
                if (i % 7 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                return i;
            }));
        }
        for (size_t i = 0; i < futures.size(); ++i)
            EXPECT_EQ(futures[i].get(), i);
    }
}

TEST(ThreadPool, StartsTasksInSubmissionOrder)
{
    // Two blockers occupy both workers: the first until every other
    // task has run, the second until submission ends. The rest all
    // wait in the pool, and the second blocker's worker alone then
    // starts them: one queue hands them out oldest first.
    ThreadPool pool(2);
    constexpr size_t kRest = 32;
    std::mutex mutex;
    std::condition_variable cv;
    bool submitted = false;
    std::vector<size_t> started;
    auto first = pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started.size() == kRest; });
    });
    auto hold = pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return submitted; });
    });
    for (size_t i = 1; i <= kRest; ++i) {
        pool.submit([&, i] {
            std::lock_guard<std::mutex> lock(mutex);
            started.push_back(i);
            cv.notify_all();
        });
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        submitted = true;
    }
    cv.notify_all();
    hold.get();
    first.get();
    std::vector<size_t> expected(kRest);
    std::iota(expected.begin(), expected.end(), size_t{1});
    EXPECT_EQ(started, expected);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    auto good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      ran.fetch_add(1);
                                      if (i == 13) {
                                          throw std::domain_error(
                                              "boom");
                                      }
                                  }),
                 std::domain_error);
    // Every iteration still ran: one failure doesn't cancel the rest.
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, StressManySmallTasks)
{
    ThreadPool pool(8);
    std::atomic<uint64_t> sum{0};
    constexpr size_t kTasks = 20000;
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (size_t i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit(
            [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPool, TasksRunOnMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    // Enough slow-ish tasks that every worker gets a chance to take
    // at least one. The lower bound is 1 to stay robust on loaded or
    // single-core machines, where one worker may drain the queue.
    pool.parallelFor(256, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, BurstSubmissionEngagesAllWorkers)
{
    ThreadPool pool(4);
    // Let every worker park on the wake cv before the burst arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::atomic<int> current{0};
    std::atomic<int> max_seen{0};
    constexpr int kTasks = 16;
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit([&] {
            const int now = current.fetch_add(1) + 1;
            int prev = max_seen.load();
            while (now > prev &&
                   !max_seen.compare_exchange_weak(prev, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            current.fetch_sub(1);
        }));
    }
    for (auto &f : futures)
        f.get();
    // If a burst of enqueues woke only one worker, it would drain
    // the whole queue serially and peak concurrency would stay at 1.
    EXPECT_GE(max_seen.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(10));
                done.fetch_add(1);
            });
        }
        // Destructor must finish all 200, not drop the queue.
    }
    EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, MoveOnlyResultsWork)
{
    ThreadPool pool(2);
    auto future = pool.submit([] {
        return std::make_unique<int>(41);
    });
    auto result = future.get();
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result + 1, 42);
}

} // namespace
} // namespace treegion::support
