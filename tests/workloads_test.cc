/**
 * @file
 * Workload generator and SPECint95 proxy tests: determinism, verifier
 * compliance, structural parameters actually steering the output, and
 * proxy statistics landing in the paper's qualitative ranges.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <climits>
#include <vector>

#include "ir/printer.h"
#include "ir/verifier.h"
#include "profile_oracle.h"
#include "region/formation.h"
#include "region/region_stats.h"
#include "support/hash.h"
#include "support/rng.h"
#include "vliw/interpreter.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion::workloads {
namespace {

TEST(Generator, Deterministic)
{
    GenParams p;
    p.seed = 99;
    auto a = generateProgram("a", p);
    auto b = generateProgram("b", p);
    // Same seed, same structure (module names differ).
    ir::Function &fa = a->function("main");
    ir::Function &fb = b->function("main");
    EXPECT_EQ(fa.totalOps(), fb.totalOps());
    EXPECT_EQ(fa.numBlockIds(), fb.numBlockIds());
}

TEST(Generator, SeedChangesProgram)
{
    GenParams p;
    p.seed = 1;
    auto a = generateProgram("a", p);
    p.seed = 2;
    auto b = generateProgram("b", p);
    EXPECT_NE(a->function("main").totalOps(),
              b->function("main").totalOps());
}

TEST(Generator, AllProgramsVerifyAndTerminate)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        GenParams p;
        p.seed = seed;
        p.top_units = 8;
        p.mem_words = 1024;
        auto mod = generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        const auto problems =
            ir::verifyFunction(fn, ir::VerifyLevel::Schedulable);
        EXPECT_TRUE(problems.empty())
            << "seed " << seed << ": " << problems.front();
        auto mem = makeInputMemory(1024, seed, 100);
        const auto run = vliw::runSequential(fn, std::move(mem));
        EXPECT_TRUE(run.completed) << "seed " << seed;
        // Well-formed programs never store out of bounds.
        EXPECT_EQ(run.wrapped_stores, 0u) << "seed " << seed;
    }
}

TEST(Generator, StructureKnobsSteerOutput)
{
    GenParams base;
    base.seed = 50;
    base.top_units = 12;
    base.p_if = base.p_ifelse = base.p_ladder = base.p_loop = 0.0;
    base.p_switch = 0.0;
    base.p_straight = 1.0;
    auto straight = generateProgram("s", base);
    // Pure straight-line: a single block.
    EXPECT_EQ(straight->function("main").blockIds().size(), 1u);

    GenParams switchy = base;
    switchy.p_straight = 0.0;
    switchy.p_switch = 1.0;
    auto sw = generateProgram("w", switchy);
    size_t mwbrs = 0;
    sw->function("main").forEachBlock([&](const ir::BasicBlock &b) {
        mwbrs += (b.terminator().opcode == ir::Opcode::MWBR);
    });
    EXPECT_GT(mwbrs, 0u);
}

TEST(Generator, InputMemoryLayout)
{
    const auto mem = makeInputMemory(512, 3, 100);
    ASSERT_EQ(mem.size(), 512u);
    for (size_t i = 0; i < 512 - kReservedWords; ++i) {
        EXPECT_GE(mem[i], 0);
        EXPECT_LT(mem[i], 100);
    }
    for (size_t i = 512 - kReservedWords; i < 512; ++i)
        EXPECT_EQ(mem[i], 0);
}

TEST(Generator, BatchedDrawEqualsRepeatedNextRange)
{
    // makeInputMemory draws each image through Rng::fillRange; it
    // must yield exactly the values, and leave exactly the generator
    // state, of one nextRange call per word. The spans cover the
    // mask path (powers of two), the reciprocal divider on both of
    // its paths, the 2^64 span (no reduction) and offset ranges.
    struct Case
    {
        int64_t lo, hi;
    };
    const Case cases[] = {
        {0, 0},                      // span 1
        {0, 1},                      // span 2
        {0, 99},                     // span 100, the profiler's
        {0, (int64_t{1} << 32) - 1}, // span 2^32
        {0, 2},         {-5, 1001},  {7, 7 + 640'320},
        {0, (int64_t{1} << 32)},     // span 2^32 + 1
        {0, INT64_MAX},              // span 2^63
        {-3, INT64_MAX - 4},         // span 2^63 - 1
        {INT64_MIN / 2, INT64_MAX / 2 + 12345},
        {INT64_MIN, INT64_MAX},      // span 2^64
    };
    for (const Case &c : cases) {
        for (const uint64_t seed : {1u, 42u, 0x9e3779b9u}) {
            support::Rng one(seed), batch(seed);
            std::vector<int64_t> expected(3840), got(3840);
            for (int64_t &v : expected)
                v = one.nextRange(c.lo, c.hi);
            batch.fillRange(got.data(), got.size(), c.lo, c.hi);
            EXPECT_EQ(got, expected) << c.lo << ".." << c.hi;
            // Same final state: the next draws agree too.
            EXPECT_EQ(batch.next(), one.next()) << c.lo << ".." << c.hi;
        }
    }
}

TEST(Proxies, EightBenchmarksInPaperOrder)
{
    const auto proxies = specint95Proxies();
    ASSERT_EQ(proxies.size(), 8u);
    const char *names[] = {"compress", "gcc", "go", "ijpeg",
                           "li", "m88ksim", "perl", "vortex"};
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(proxies[i].name, names[i]);
}

TEST(Proxies, RegionStatisticsShapes)
{
    // Table 1 / Table 2 qualitative shapes: treegions hold a few
    // blocks and clearly more ops than SLRs; gcc and perl have the
    // widest treegions (their multiway branches).
    double tree_ops_total = 0.0, slr_ops_total = 0.0;
    size_t gcc_max = 0, compress_max = 0;
    for (const auto &spec : specint95Proxies()) {
        auto mod = buildProxy(spec);
        ir::Function &fn = mod->function("main");
        profileFunction(fn, spec.params.mem_words);

        ir::Function ftree = fn.clone();
        const auto tree_stats = region::computeRegionStats(
            ftree, region::formTreegions(ftree));
        ir::Function fslr = fn.clone();
        const auto slr_stats = region::computeRegionStats(
            fslr, region::formSlrs(fslr));

        EXPECT_GT(tree_stats.avg_blocks, 1.5) << spec.name;
        EXPECT_LT(tree_stats.avg_blocks, 8.0) << spec.name;
        EXPECT_GT(slr_stats.avg_blocks, 1.0) << spec.name;
        EXPECT_LT(slr_stats.avg_blocks, 3.0) << spec.name;
        EXPECT_GT(tree_stats.avg_ops, slr_stats.avg_ops) << spec.name;

        tree_ops_total += tree_stats.avg_ops;
        slr_ops_total += slr_stats.avg_ops;
        if (spec.name == "gcc")
            gcc_max = tree_stats.max_blocks;
        if (spec.name == "compress")
            compress_max = tree_stats.max_blocks;
    }
    // Treegions carry roughly 2x the ops of SLRs on average (paper:
    // 20-25 vs 8-12).
    EXPECT_GT(tree_ops_total, 1.5 * slr_ops_total);
    // gcc's widest treegion dwarfs compress's (384 vs 8 in Table 1).
    EXPECT_GT(gcc_max, 2 * compress_max);
}

TEST(Proxies, ProfilesAreConsistentAndInputDependent)
{
    const auto proxies = specint95Proxies();
    const auto &spec = proxies[1];  // gcc
    auto mod = buildProxy(spec);
    ir::Function &fn = mod->function("main");

    ProfileOptions train;
    train.input_seed = 42;
    profileFunction(fn, spec.params.mem_words, train);
    EXPECT_TRUE(tg_test::checkProfileConsistency(fn).empty());
    const double w_train = tg_test::weightedOpCount(fn);

    ProfileOptions reference;
    reference.input_seed = 4242;
    profileFunction(fn, spec.params.mem_words, reference);
    const double w_ref = tg_test::weightedOpCount(fn);
    EXPECT_NE(w_train, w_ref);
}

/** FNV-1a over every live block's id, weight and edge weights, with
 * the doubles hashed as bit patterns. */
uint64_t
profileDigest(const ir::Function &fn)
{
    uint64_t hash = support::kFnvOffsetBasis;
    auto mix = [&](auto value) {
        const auto bits = std::bit_cast<std::array<char, sizeof value>>(
            value);
        hash = support::fnv1a64({bits.data(), bits.size()}, hash);
    };
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        mix(b.id());
        mix(b.weight());
        mix(b.edgeWeights().size());
        for (const double w : b.edgeWeights())
            mix(w);
    });
    return hash;
}

TEST(Proxies, ProfileWeightsArePinned)
{
    // Every proxy's block and edge weights under the default 20-run
    // training profile, and the dynamic op count behind them, as
    // produced before the profiler moved to dense counters and a
    // batched input draw. Any drift in the input stream, the
    // interpreter or the counting shows up here bit for bit.
    struct Pin
    {
        const char *name;
        uint64_t digest;
        uint64_t dyn_ops;
    };
    const Pin pins[] = {
        {"compress", 0xc02c7ffc177cddbbull, 10753},
        {"gcc", 0x498c969f19811ed5ull, 51933},
        {"go", 0xf7b149f1a55def56ull, 38396},
        {"ijpeg", 0x7c903fbf78c1f052ull, 34101},
        {"li", 0x9d1c7f491447c692ull, 13363},
        {"m88ksim", 0x0df1aa3ba6662002ull, 31251},
        {"perl", 0x1b5ceb0cd5036af8ull, 68136},
        {"vortex", 0x74f36052d97c9babull, 36606},
    };
    const auto proxies = specint95Proxies();
    ASSERT_EQ(proxies.size(), std::size(pins));
    for (size_t i = 0; i < proxies.size(); ++i) {
        auto mod = buildProxy(proxies[i]);
        ir::Function &fn = mod->function("main");
        const ProfileSummary summary =
            profileFunction(fn, proxies[i].params.mem_words);
        EXPECT_EQ(proxies[i].name, pins[i].name);
        EXPECT_EQ(summary.completed_runs, 20) << pins[i].name;
        EXPECT_EQ(summary.total_ops, pins[i].dyn_ops) << pins[i].name;
        EXPECT_EQ(profileDigest(fn), pins[i].digest)
            << pins[i].name << std::hex << " 0x" << profileDigest(fn);
    }
}

TEST(Proxies, GccHasZeroWeightSwitchArms)
{
    // The narrowed selectors leave some multiway-branch destinations
    // with zero profile weight - the shape behind the exit-count
    // heuristic's flaw.
    const auto spec = specint95Proxies()[1];
    auto mod = buildProxy(spec);
    ir::Function &fn = mod->function("main");
    profileFunction(fn, spec.params.mem_words);

    size_t zero_arms = 0, hot_arms = 0;
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        if (b.terminator().opcode != ir::Opcode::MWBR)
            return;
        if (b.weight() <= 0.0)
            return;
        for (double w : b.edgeWeights()) {
            if (w == 0.0)
                ++zero_arms;
            else
                ++hot_arms;
        }
    });
    EXPECT_GT(zero_arms, 0u);
    EXPECT_GT(hot_arms, 0u);
    EXPECT_GT(zero_arms, hot_arms);
}

} // namespace
} // namespace treegion::workloads
