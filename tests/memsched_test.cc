/**
 * @file
 * Memory-budgeted batch scheduling (ISSUE 8 tentpole): the
 * support::MemoryGate admission primitive and the budgeted
 * runPipelineParallel driver built on it.
 *
 * The pinned properties:
 *  - the gate never lets the aggregate reservation exceed the budget
 *    (a 100-job stress run observes the high water through an
 *    external gate),
 *  - a job projected larger than the whole budget still runs — solo —
 *    instead of deadlocking the pool,
 *  - budgeted results are bit-identical to the unbudgeted path, in
 *    input order,
 *  - a sink receives every result exactly once and the driver then
 *    returns nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sched/mem_estimate.h"
#include "sched/pipeline.h"
#include "support/thread_pool.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion::sched {
namespace {

TEST(MemoryGate, TracksReservationsUnderTheBudget)
{
    support::MemoryGate gate(1000);
    EXPECT_EQ(gate.budgetBytes(), 1000u);
    EXPECT_TRUE(gate.tryAdmit(600));
    EXPECT_EQ(gate.inUseBytes(), 600u);
    EXPECT_TRUE(gate.tryAdmit(400));
    EXPECT_EQ(gate.inUseBytes(), 1000u);
    EXPECT_FALSE(gate.tryAdmit(1)) << "budget is full";
    gate.release(400);
    EXPECT_EQ(gate.inUseBytes(), 600u);
    EXPECT_TRUE(gate.tryAdmit(400));
    gate.release(600);
    gate.release(400);
    EXPECT_EQ(gate.inUseBytes(), 0u);
    EXPECT_EQ(gate.highWaterBytes(), 1000u);
}

TEST(MemoryGate, OversizedRequestAdmitsOnlyWhenIdle)
{
    support::MemoryGate gate(100);
    // The progress guarantee: an empty gate admits any size.
    EXPECT_TRUE(gate.tryAdmit(5000));
    // ...and while the oversized job holds it, nothing else enters.
    EXPECT_FALSE(gate.tryAdmit(1));
    gate.release(5000);
    EXPECT_TRUE(gate.tryAdmit(1));
    gate.release(1);
    EXPECT_EQ(gate.highWaterBytes(), 5000u);
}

TEST(MemoryGate, ReleaseWakesWaiters)
{
    support::MemoryGate gate(100);
    ASSERT_TRUE(gate.tryAdmit(100));
    const uint64_t gen = gate.generation();
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        gate.waitForRelease(gen);
        woke.store(true);
    });
    gate.release(100);
    waiter.join();
    EXPECT_TRUE(woke.load());
    EXPECT_NE(gate.generation(), gen);
}

TEST(MemoryGate, UnlimitedGateAdmitsEverything)
{
    support::MemoryGate gate(0);
    EXPECT_TRUE(gate.tryAdmit(1u << 30));
    EXPECT_TRUE(gate.tryAdmit(1u << 30));
    gate.release(1u << 30);
    gate.release(1u << 30);
}

TEST(MemoryGate, ScanAdmitsLargestFirstAndKeepsRefusedStarts)
{
    struct Job
    {
        char name;
        uint64_t projected;
    };
    auto names = [](const std::vector<Job> &jobs) {
        std::string out;
        for (const Job &job : jobs)
            out += job.name;
        return out;
    };
    support::MemoryGate gate(100);
    std::vector<Job> waiting = {
        {'a', 20}, {'b', 50}, {'c', 20}, {'d', 40}, {'e', 20}};
    std::string order;
    auto start = [&](const Job &job) {
        order += job.name;
        return true;
    };
    // Largest first; then no 20 fits next to 50 + 40.
    EXPECT_EQ(gate.admitLargestFirst(waiting, start), 2u);
    EXPECT_EQ(order, "bd");
    EXPECT_EQ(gate.inUseBytes(), 90u);
    EXPECT_EQ(names(waiting), "ace");
    gate.release(50);
    gate.release(40);

    // Ties start in arrival order. A refused start keeps its item,
    // and its bytes go back to the gate.
    order.clear();
    EXPECT_EQ(gate.admitLargestFirst(waiting,
                                     [&](const Job &job) {
                                         order += job.name;
                                         return job.name != 'c';
                                     }),
              2u);
    EXPECT_EQ(order, "ace");
    EXPECT_EQ(gate.inUseBytes(), 40u);
    EXPECT_EQ(names(waiting), "c");

    // Without a budget there is nothing to order for: arrival order.
    support::MemoryGate unlimited(0);
    waiting = {{'a', 20}, {'b', 50}};
    order.clear();
    EXPECT_EQ(unlimited.admitLargestFirst(waiting, start), 2u);
    EXPECT_EQ(order, "ab");
    EXPECT_TRUE(waiting.empty());
}

/** Batched jobs over the two smallest SPEC proxies. */
class MemSchedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto proxies = workloads::specint95Proxies();
        for (const size_t idx : {size_t{0}, size_t{4}}) {
            auto mod = workloads::buildProxy(proxies[idx]);
            workloads::profileFunction(
                mod->function("main"), proxies[idx].params.mem_words);
            modules_.push_back(std::move(mod));
        }
    }

    /** @p count jobs cycling functions x schemes x widths. */
    std::vector<PipelineJob>
    makeJobs(size_t count) const
    {
        const RegionScheme schemes[] = {
            RegionScheme::Treegion,
            RegionScheme::TreegionTailDup,
            RegionScheme::Hyperblock,
        };
        const int widths[] = {4, 8};
        std::vector<PipelineJob> jobs;
        for (size_t i = 0; i < count; ++i) {
            PipelineJob job;
            job.fn = &modules_[i % modules_.size()]->function("main");
            job.options.scheme = schemes[i % std::size(schemes)];
            job.options.model = MachineModel::custom(
                widths[i % std::size(widths)]);
            std::ostringstream label;
            label << "job" << i;
            job.label = label.str();
            jobs.push_back(std::move(job));
        }
        return jobs;
    }

    std::vector<std::unique_ptr<ir::Module>> modules_;
};

TEST_F(MemSchedTest, BudgetRespectedAcross100JobStress)
{
    const auto jobs = makeJobs(100);
    uint64_t largest = 0;
    for (const PipelineJob &job : jobs)
        largest = std::max(largest, estimateJobPeakBytes(job));
    // Room for a couple of concurrent jobs but far fewer than the
    // worker count, so admission has to throttle constantly — and no
    // job is oversized, so the solo rule never licenses an overshoot.
    const uint64_t budget = 5 * largest / 2;
    support::MemoryGate gate(budget);

    ParallelRunOptions run;
    run.num_threads = 8;
    run.gate = &gate;
    const auto results = runPipelineParallel(jobs, run);

    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, jobs[i].label) << "input order";
        EXPECT_GT(results[i].projected_peak_bytes, 0u);
    }
    EXPECT_EQ(gate.inUseBytes(), 0u) << "every reservation returned";
    EXPECT_LE(gate.highWaterBytes(), budget)
        << "aggregate projected peak escaped the budget";
    EXPECT_GT(gate.highWaterBytes(), largest)
        << "throttled run should still overlap jobs";
}

TEST_F(MemSchedTest, OversizedJobRunsSoloInsteadOfDeadlocking)
{
    const auto jobs = makeJobs(8);
    uint64_t largest = 0;
    for (const PipelineJob &job : jobs)
        largest = std::max(largest, estimateJobPeakBytes(job));
    // Every projection dwarfs this budget, so each job only enters
    // through the idle-gate progress guarantee.
    support::MemoryGate gate(1024);

    ParallelRunOptions run;
    run.num_threads = 4;
    run.gate = &gate;
    const auto results = runPipelineParallel(jobs, run);

    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].label, jobs[i].label);
    EXPECT_EQ(gate.inUseBytes(), 0u);
    EXPECT_EQ(gate.highWaterBytes(), largest)
        << "oversized jobs must have run one at a time";
}

TEST_F(MemSchedTest, BudgetedResultsMatchUnbudgetedBitForBit)
{
    const auto jobs = makeJobs(24);
    const auto plain = runPipelineParallel(jobs, 4);

    ParallelRunOptions run;
    run.num_threads = 4;
    uint64_t largest = 0;
    for (const PipelineJob &job : jobs)
        largest = std::max(largest, estimateJobPeakBytes(job));
    run.mem_budget_bytes = 2 * largest;
    const auto budgeted = runPipelineParallel(jobs, run);

    ASSERT_EQ(plain.size(), budgeted.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        std::ostringstream a, b;
        a << std::hexfloat << plain[i].result.estimated_time;
        b << std::hexfloat << budgeted[i].result.estimated_time;
        EXPECT_EQ(a.str(), b.str()) << jobs[i].label;
        EXPECT_EQ(plain[i].result.code_expansion,
                  budgeted[i].result.code_expansion) << jobs[i].label;
    }
}

TEST_F(MemSchedTest, OneWorkerBudgetedRunPreservesInputOrder)
{
    // Oversized jobs run solo, largest first, on the one worker;
    // the results still come back in input order.
    const auto jobs = makeJobs(6);
    ParallelRunOptions run;
    run.num_threads = 1;
    run.mem_budget_bytes = 1;
    const auto results = runPipelineParallel(jobs, run);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].label, jobs[i].label);
}

TEST_F(MemSchedTest, SinkReceivesEveryResultExactlyOnce)
{
    const auto jobs = makeJobs(24);
    uint64_t largest = 0;
    for (const PipelineJob &job : jobs)
        largest = std::max(largest, estimateJobPeakBytes(job));

    for (const uint64_t budget : {uint64_t{0}, 2 * largest}) {
        ParallelRunOptions run;
        run.num_threads = 4;
        run.mem_budget_bytes = budget;
        std::multiset<std::string> seen;
        run.sink = [&seen](PipelineJobResult &&result) {
            seen.insert(result.label);
        };
        const auto results = runPipelineParallel(jobs, run);
        EXPECT_TRUE(results.empty())
            << "a sink consumes the batch; nothing should be "
               "returned";
        std::multiset<std::string> expected;
        for (const PipelineJob &job : jobs)
            expected.insert(job.label);
        EXPECT_EQ(seen, expected) << "budget=" << budget;
    }
}

} // namespace
} // namespace treegion::sched
