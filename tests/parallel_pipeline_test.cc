/**
 * @file
 * Determinism proof for the parallel compilation driver: compiling a
 * batch of (function x configuration) jobs through
 * runPipelineParallel must produce results bit-identical to the
 * sequential runPipeline path, for any worker count, in input order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "ir/parser.h"
#include "ir/printer.h"
#include "sched/pipeline.h"
#include "support/thread_pool.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion::sched {
namespace {

/**
 * Canonical text form of everything a pipeline run produced:
 * schedules (per region, in root order), exits with bit-exact
 * weights, statistics, and the hexfloat estimated time. Two runs are
 * "the same" iff their fingerprints are string-equal.
 */
std::string
fingerprint(const PipelineResult &r, int issue_width)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "time=" << r.estimated_time
       << " expansion=" << r.code_expansion
       << " regions=" << r.region_stats.num_regions
       << " renamed=" << r.total_sched_stats.renamed_defs
       << " copies=" << r.total_sched_stats.exit_copies
       << " spec=" << r.total_sched_stats.speculated_ops
       << " elided=" << r.total_sched_stats.elided_ops << "\n";

    std::vector<ir::BlockId> roots;
    for (const auto &[root, rs] : r.schedule.regions)
        roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    for (const ir::BlockId root : roots) {
        const RegionSchedule &rs = r.schedule.regions.at(root);
        os << "region bb" << root << " len=" << rs.length << "\n"
           << rs.str(issue_width);
        for (const ScheduledExit &exit : rs.exits) {
            os << "exit bb" << exit.from << "->bb" << exit.target
               << " cycle=" << exit.cycle << " ret=" << exit.is_ret
               << " w=" << exit.weight
               << " copies=" << exit.copies.size() << "\n";
        }
    }
    return os.str();
}

/** Two small profiled proxies plus the paper's config grid. */
class ParallelPipelineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto proxies = workloads::specint95Proxies();
        // compress and li: the two smallest proxies keep the x3
        // thread-count sweep fast.
        for (const size_t idx : {size_t{0}, size_t{4}}) {
            auto mod = workloads::buildProxy(proxies[idx]);
            workloads::profileFunction(mod->function("main"),
                                       proxies[idx].params.mem_words);
            modules_.push_back(std::move(mod));
        }

        const RegionScheme schemes[] = {
            RegionScheme::BasicBlock,
            RegionScheme::Superblock,
            RegionScheme::Treegion,
            RegionScheme::TreegionTailDup,
        };
        const Heuristic heuristics[] = {
            Heuristic::GlobalWeight,
            Heuristic::DependenceHeight,
        };
        for (const auto &mod : modules_) {
            for (const auto scheme : schemes) {
                for (const auto heuristic : heuristics) {
                    PipelineJob job;
                    job.fn = &mod->function("main");
                    job.options.scheme = scheme;
                    job.options.sched.heuristic = heuristic;
                    job.options.model = MachineModel::wide4U();
                    job.label = regionSchemeName(scheme) + "/" +
                                heuristicName(heuristic);
                    jobs_.push_back(std::move(job));
                }
            }
        }
    }

    std::vector<std::unique_ptr<ir::Module>> modules_;
    std::vector<PipelineJob> jobs_;
};

TEST_F(ParallelPipelineTest, ParallelMatchesSequentialBitExactly)
{
    // Sequential reference: runPipeline on a private clone per job.
    std::vector<std::string> reference;
    for (const PipelineJob &job : jobs_) {
        ir::Function clone = job.fn->clone();
        const PipelineResult result =
            runPipeline(clone, job.options);
        reference.push_back(
            fingerprint(result, job.options.model.issue_width));
    }

    for (const size_t threads : {1u, 2u, 8u}) {
        const auto results = runPipelineParallel(jobs_, threads);
        ASSERT_EQ(results.size(), jobs_.size())
            << "threads=" << threads;
        for (size_t i = 0; i < results.size(); ++i) {
            // Input order is preserved...
            EXPECT_EQ(results[i].label, jobs_[i].label);
            // ...and every schedule, statistic and estimate is
            // bit-identical to the sequential compilation.
            EXPECT_EQ(fingerprint(results[i].result,
                                  jobs_[i].options.model.issue_width),
                      reference[i])
                << "job " << jobs_[i].label << " threads=" << threads;
        }
    }
}

TEST_F(ParallelPipelineTest, RepeatedParallelRunsAreIdentical)
{
    const auto first = runPipelineParallel(jobs_, 8);
    const auto second = runPipelineParallel(jobs_, 8);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(fingerprint(first[i].result,
                              jobs_[i].options.model.issue_width),
                  fingerprint(second[i].result,
                              jobs_[i].options.model.issue_width));
    }
}

TEST_F(ParallelPipelineTest, CallerPoolMatchesPrivatePool)
{
    const auto reference = runPipelineParallel(jobs_, 2);

    // One caller-owned pool serves several batches through either
    // overload; num_threads is ignored once a pool is passed, so
    // num_threads == 1 runs on the caller's two workers.
    support::ThreadPool pool(2);
    ParallelRunOptions run;
    run.pool = &pool;
    std::vector<std::vector<PipelineJobResult>> batches;
    batches.push_back(runPipelineParallel(jobs_, 8, &pool));
    batches.push_back(runPipelineParallel(jobs_, run));
    batches.push_back(runPipelineParallel(jobs_, 1, &pool));

    for (size_t b = 0; b < batches.size(); ++b) {
        const auto &results = batches[b];
        ASSERT_EQ(results.size(), jobs_.size()) << "batch " << b;
        for (size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].label, jobs_[i].label);
            EXPECT_EQ(results[i].projected_peak_bytes, 0u)
                << "an unbudgeted run projects nothing";
            const int width = jobs_[i].options.model.issue_width;
            EXPECT_EQ(fingerprint(results[i].result, width),
                      fingerprint(reference[i].result, width))
                << "job " << jobs_[i].label << " batch " << b;
        }
    }
}

TEST_F(ParallelPipelineTest, InputFunctionsAreNeverMutated)
{
    std::vector<size_t> ops_before, blocks_before;
    for (const auto &mod : modules_) {
        ops_before.push_back(mod->function("main").totalOps());
        blocks_before.push_back(mod->function("main").numBlockIds());
    }
    // Tail-duplicating schemes are in the grid: had any job compiled
    // the shared input in place, op/block counts would grow.
    runPipelineParallel(jobs_, 4);
    for (size_t m = 0; m < modules_.size(); ++m) {
        EXPECT_EQ(modules_[m]->function("main").totalOps(),
                  ops_before[m]);
        EXPECT_EQ(modules_[m]->function("main").numBlockIds(),
                  blocks_before[m]);
    }
}

TEST_F(ParallelPipelineTest, MutatedCloneIsReturnedPerJob)
{
    // A tree-td job's result carries the tail-duplicated clone, and
    // distinct jobs get distinct clones.
    const auto results = runPipelineParallel(jobs_, 2);
    for (size_t i = 0; i < results.size(); ++i) {
        if (jobs_[i].options.scheme != RegionScheme::TreegionTailDup)
            continue;
        EXPECT_GE(results[i].fn.totalOps(), jobs_[i].fn->totalOps())
            << jobs_[i].label;
        EXPECT_NE(&results[i].fn, jobs_[i].fn);
    }
}

TEST_F(ParallelPipelineTest, EmptyBatchIsFine)
{
    const auto results = runPipelineParallel({}, 4);
    EXPECT_TRUE(results.empty());
}

TEST_F(ParallelPipelineTest, RemarkStreamsAreBitIdenticalAcrossThreads)
{
    std::vector<PipelineJob> jobs = jobs_;
    for (PipelineJob &job : jobs)
        job.collect_remarks = true;

    const auto sequential = runPipelineParallel(jobs, 1);
    size_t total = 0;
    for (const auto &jr : sequential)
        total += jr.remarks.size();
    ASSERT_GT(total, 0u) << "collect_remarks produced nothing";

    for (const size_t threads : {2u, 8u}) {
        const auto parallel = runPipelineParallel(jobs, threads);
        ASSERT_EQ(parallel.size(), sequential.size());
        for (size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(parallel[i].remarks.toJsonLines(),
                      sequential[i].remarks.toJsonLines())
                << "job " << jobs[i].label << " threads=" << threads;
        }
    }
}

TEST_F(ParallelPipelineTest, RemarksOffByDefault)
{
    for (const auto &jr : runPipelineParallel(jobs_, 2))
        EXPECT_EQ(jr.remarks.size(), 0u) << jr.label;
}

TEST_F(ParallelPipelineTest, RemarksSurvivePrintParseRoundTrip)
{
    // Remark streams must survive a textual round trip of the input:
    // printing a module (weights included) and parsing it back yields
    // the same decisions, remark for remark. Printing renumbers op
    // ids into file order and rounds weights to %.6g, so normalize
    // each module through one print/parse cycle first — from that
    // fixpoint on, the text form is stable.
    auto textCycle = [](const ir::Module &mod) {
        std::ostringstream os;
        ir::printModule(os, mod);
        std::string error;
        auto back = ir::parseModule(os.str(), &error);
        EXPECT_NE(back, nullptr) << error;
        return back;
    };
    std::vector<std::unique_ptr<ir::Module>> normalized, reparsed;
    for (const auto &mod : modules_) {
        normalized.push_back(textCycle(*mod));
        ASSERT_NE(normalized.back(), nullptr);
        reparsed.push_back(textCycle(*normalized.back()));
        ASSERT_NE(reparsed.back(), nullptr);
    }

    std::vector<PipelineJob> jobs = jobs_, jobs2 = jobs_;
    const size_t per_module = jobs.size() / modules_.size();
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].collect_remarks = true;
        jobs[i].fn = &normalized[i / per_module]->function("main");
        jobs2[i].collect_remarks = true;
        jobs2[i].fn = &reparsed[i / per_module]->function("main");
    }
    const auto original = runPipelineParallel(jobs, 2);
    const auto round_tripped = runPipelineParallel(jobs2, 2);
    ASSERT_EQ(original.size(), round_tripped.size());
    size_t total = 0;
    for (size_t i = 0; i < original.size(); ++i) {
        total += original[i].remarks.size();
        EXPECT_EQ(original[i].remarks.toJsonLines(),
                  round_tripped[i].remarks.toJsonLines())
            << "job " << jobs[i].label;
    }
    EXPECT_GT(total, 0u);
}

} // namespace
} // namespace treegion::sched
