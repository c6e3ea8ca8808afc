/**
 * @file
 * End-to-end integration tests: generate a program, profile it, run
 * every region scheme through the pipeline on multiple machine
 * models, and check the schedules against the sequential semantics.
 */

#include <gtest/gtest.h>

#include "ir/verifier.h"
#include "profile_oracle.h"
#include "sched/pipeline.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion {
namespace {

using sched::MachineModel;
using sched::PipelineOptions;
using sched::RegionScheme;

workloads::GenParams
smallParams(uint64_t seed)
{
    workloads::GenParams p;
    p.seed = seed;
    p.top_units = 6;
    p.max_depth = 2;
    p.mem_words = 1024;
    return p;
}

TEST(Integration, GeneratedProgramVerifies)
{
    auto mod = workloads::generateProgram("prog", smallParams(7));
    ir::Function &fn = mod->function("main");
    const auto problems =
        ir::verifyFunction(fn, ir::VerifyLevel::Schedulable);
    for (const auto &p : problems)
        ADD_FAILURE() << p;
}

TEST(Integration, ProfileIsFlowConserving)
{
    auto mod = workloads::generateProgram("prog", smallParams(11));
    ir::Function &fn = mod->function("main");
    const auto summary = workloads::profileFunction(fn, 1024);
    EXPECT_EQ(summary.completed_runs, 20);
    const auto problems = tg_test::checkProfileConsistency(fn);
    for (const auto &p : problems)
        ADD_FAILURE() << p;
}

class SchemeIntegration
    : public ::testing::TestWithParam<std::tuple<RegionScheme, int>>
{
};

TEST_P(SchemeIntegration, SchedulesMatchSequentialSemantics)
{
    const auto [scheme, width] = GetParam();
    auto mod = workloads::generateProgram("prog", smallParams(23));
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, 1024);

    ir::Function transformed = original.clone();
    PipelineOptions options;
    options.scheme = scheme;
    options.model = MachineModel::custom(width);
    const auto result = sched::runPipeline(transformed, options);

    // Partition invariant.
    ir::Function &check_fn = transformed;
    const auto region_problems = result.regions.validate(check_fn);
    for (const auto &p : region_problems)
        ADD_FAILURE() << p;

    EXPECT_GT(result.estimated_time, 0.0);

    // The schedule must compute what the original program computes.
    for (uint64_t input = 0; input < 5; ++input) {
        auto memory = workloads::makeInputMemory(1024, 1000 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_FALSE(report.incomplete) << report.detail;
        EXPECT_TRUE(report.ok)
            << "scheme=" << sched::regionSchemeName(scheme)
            << " width=" << width << " input=" << input << ": "
            << report.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeIntegration,
    ::testing::Combine(
        ::testing::Values(RegionScheme::BasicBlock, RegionScheme::Slr,
                          RegionScheme::Superblock, RegionScheme::Treegion,
                          RegionScheme::TreegionTailDup,
                          RegionScheme::Hyperblock),
        ::testing::Values(1, 4, 8)));

TEST(Integration, ProxiesBuildAndVerify)
{
    for (const auto &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        ir::Function &fn = mod->function("main");
        const auto problems =
            ir::verifyFunction(fn, ir::VerifyLevel::Schedulable);
        EXPECT_TRUE(problems.empty())
            << spec.name << ": " << problems.front();
    }
}

} // namespace
} // namespace treegion
