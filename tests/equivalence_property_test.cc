/**
 * @file
 * The library's strongest property: for any generated program, any
 * region scheme, any heuristic and any machine width, executing the
 * schedule in the VLIW simulator computes exactly what the original
 * sequential program computes (return value, final memory, and the
 * region-root control trace). This exercises renaming, path
 * predicates, speculation, guarded stores, exit reconciliation
 * copies, tail duplication and dominator parallelism end to end.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sched/pipeline.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

using sched::Heuristic;
using sched::RegionScheme;

struct Config
{
    uint64_t seed;
    RegionScheme scheme;
    Heuristic heuristic;
    int width;
};

class EquivalenceProperty : public ::testing::TestWithParam<Config>
{
};

TEST_P(EquivalenceProperty, ScheduleComputesSequentialResults)
{
    const Config config = GetParam();
    workloads::GenParams p;
    p.seed = config.seed;
    p.top_units = 8;
    p.max_depth = 3;
    p.mem_words = 2048;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = config.scheme;
    options.model = sched::MachineModel::custom(config.width);
    options.sched.heuristic = config.heuristic;
    const auto result = sched::runPipeline(transformed, options);

    const auto problems = result.regions.validate(transformed);
    ASSERT_TRUE(problems.empty()) << problems.front();

    for (uint64_t input = 0; input < 4; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 7777 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        ASSERT_FALSE(report.incomplete) << report.detail;
        EXPECT_TRUE(report.ok)
            << "seed=" << config.seed << " scheme="
            << sched::regionSchemeName(config.scheme) << " heuristic="
            << sched::heuristicName(config.heuristic) << " width="
            << config.width << " input=" << input << ": "
            << report.detail;
    }
}

std::vector<Config>
makeConfigs()
{
    std::vector<Config> configs;
    const RegionScheme schemes[] = {
        RegionScheme::BasicBlock,      RegionScheme::Slr,
        RegionScheme::Superblock,      RegionScheme::Treegion,
        RegionScheme::TreegionTailDup, RegionScheme::Hyperblock};
    const Heuristic heuristics[] = {
        Heuristic::DependenceHeight, Heuristic::ExitCount,
        Heuristic::GlobalWeight, Heuristic::WeightedCount};
    // Cross seeds with schemes; rotate heuristics and widths so every
    // (scheme, heuristic) and (scheme, width) pair appears.
    const int widths[] = {1, 2, 4, 8};
    int rotation = 0;
    for (uint64_t seed : {11u, 22u, 33u, 44u}) {
        for (const RegionScheme scheme : schemes) {
            configs.push_back({seed, scheme,
                               heuristics[rotation % 4],
                               widths[(rotation / 2) % 4]});
            ++rotation;
        }
    }
    return configs;
}

/**
 * "seed11_tree_td_global_weight_4U". Without a name, an instance is
 * named by the bytes of its Config, padding included, so the test
 * ids changed from build to build.
 */
std::string
configName(const ::testing::TestParamInfo<Config> &info)
{
    const Config &c = info.param;
    std::string name = "seed" + std::to_string(c.seed) + "_" +
                       sched::regionSchemeName(c.scheme) + "_" +
                       sched::heuristicName(c.heuristic) + "_" +
                       std::to_string(c.width) + "U";
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceProperty,
                         ::testing::ValuesIn(makeConfigs()), configName);

TEST(EquivalenceEdgeCases, PbrMaterializationStaysCorrect)
{
    workloads::GenParams p;
    p.seed = 5150;
    p.top_units = 6;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::Treegion;
    options.model = sched::MachineModel::wide4U();
    options.sched.materialize_pbr = true;
    const auto result = sched::runPipeline(transformed, options);
    auto memory = workloads::makeInputMemory(p.mem_words, 31, 100);
    const auto report = vliw::checkEquivalence(original, transformed,
                                               result.schedule, memory);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(EquivalenceEdgeCases, NoDominatorParallelismStaysCorrect)
{
    workloads::GenParams p;
    p.seed = 616;
    p.top_units = 6;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::wide8U();
    options.sched.dominator_parallelism = false;
    const auto result = sched::runPipeline(transformed, options);
    auto memory = workloads::makeInputMemory(p.mem_words, 77, 100);
    const auto report = vliw::checkEquivalence(original, transformed,
                                               result.schedule, memory);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(EquivalenceEdgeCases, FpHeavyPrograms)
{
    // Exercise the non-unit FMUL/FDIV latencies end to end.
    workloads::GenParams p;
    p.seed = 2718;
    p.top_units = 6;
    p.fp_frac = 0.3;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    for (const RegionScheme scheme :
         {RegionScheme::Treegion, RegionScheme::Superblock}) {
        ir::Function transformed = original.clone();
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::wide4U();
        const auto result = sched::runPipeline(transformed, options);
        auto memory = workloads::makeInputMemory(p.mem_words, 99, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok)
            << sched::regionSchemeName(scheme) << ": " << report.detail;
    }
}

TEST(EquivalenceEdgeCases, WideSwitchPrograms)
{
    workloads::GenParams p;
    p.seed = 31337;
    p.top_units = 6;
    p.p_switch = 0.5;
    p.switch_width_min = 16;
    p.switch_width_max = 32;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::Treegion;
    options.model = sched::MachineModel::wide8U();
    const auto result = sched::runPipeline(transformed, options);
    for (uint64_t input = 0; input < 3; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 500 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok) << report.detail;
    }
}

TEST(EquivalenceEdgeCases, HighlyBiasedPrograms)
{
    workloads::GenParams p;
    p.seed = 404;
    p.top_units = 6;
    p.bias = 0.99;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::wide4U();
    const auto result = sched::runPipeline(transformed, options);
    for (uint64_t input = 0; input < 3; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 600 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok) << report.detail;
    }
}

} // namespace
} // namespace treegion
