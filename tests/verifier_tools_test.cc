/**
 * @file
 * Tests for the schedule legality verifier and the Graphviz
 * exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "region/formation.h"
#include "region/graphviz.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "workloads/profiler.h"
#include "vliw/equivalence.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

TEST(ScheduleVerifier, AcceptsPipelineOutput)
{
    workloads::GenParams p;
    p.seed = 9;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);

    for (const auto scheme :
         {sched::RegionScheme::Treegion, sched::RegionScheme::Superblock,
          sched::RegionScheme::TreegionTailDup,
          sched::RegionScheme::Hyperblock}) {
        ir::Function f = fn.clone();
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::wide4U();
        const auto result = sched::runPipeline(f, options);
        const auto problems = sched::verifyFunctionSchedule(
            result.schedule, options.model.issue_width);
        EXPECT_TRUE(problems.empty())
            << sched::regionSchemeName(scheme) << ": "
            << problems.front();
    }
}

TEST(ScheduleVerifier, CatchesPlantedViolations)
{
    workloads::GenParams p;
    p.seed = 9;
    p.top_units = 3;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);
    sched::PipelineOptions options;
    options.model = sched::MachineModel::wide4U();
    auto result = sched::runPipeline(fn, options);

    // Find a region with at least two ops and corrupt it.
    for (auto &[root, rs] : result.schedule.regions) {
        if (rs.ops.size() < 2)
            continue;
        auto corrupted = rs;
        // Put two ops in the same slot of the same cycle.
        corrupted.ops[1].cycle = corrupted.ops[0].cycle;
        corrupted.ops[1].slot = corrupted.ops[0].slot;
        EXPECT_FALSE(sched::verifySchedule(corrupted, 4).empty());

        auto too_wide = rs;
        too_wide.ops[0].slot = 99;
        EXPECT_FALSE(sched::verifySchedule(too_wide, 4).empty());

        auto bad_exit = rs;
        if (!bad_exit.exits.empty()) {
            bad_exit.exits[0].cycle += 1;
            EXPECT_FALSE(sched::verifySchedule(bad_exit, 4).empty());
        }
        break;
    }
}

TEST(Graphviz, EmitsClustersAndEdges)
{
    workloads::GenParams p;
    p.seed = 3;
    p.top_units = 4;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);
    const auto set = region::formTreegions(fn);

    std::ostringstream os;
    region::GraphvizOptions options;
    options.title = "test graph";
    region::writeDot(os, fn, set, options);
    const std::string dot = os.str();
    EXPECT_NE(dot.find("digraph cfg {"), std::string::npos);
    EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
    EXPECT_NE(dot.find("label=\"test graph\""), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    // One cluster per region.
    size_t clusters = 0, pos = 0;
    while ((pos = dot.find("subgraph cluster_", pos)) !=
           std::string::npos) {
        ++clusters;
        pos += 1;
    }
    EXPECT_EQ(clusters, set.regions().size());
}

TEST(Regression, TransitiveElisionMustNotAliasUnwrittenRegs)
{
    // Regression for a real bug: dominator-parallelism elision once
    // aliased an op to an already-elided twin, leaving its consumers
    // reading a register that was never written. The configuration
    // below reproduced it (three tail copies of one block, two of
    // which elide into the first).
    workloads::GenParams p;
    p.seed = 23;
    p.top_units = 6;
    p.max_depth = 2;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, 1024);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::scalar1U();
    const auto result = sched::runPipeline(transformed, options);
    auto memory = workloads::makeInputMemory(1024, 1003, 100);
    const auto report = vliw::checkEquivalence(original, transformed,
                                               result.schedule, memory);
    EXPECT_TRUE(report.ok) << report.detail;
}

} // namespace
} // namespace treegion
