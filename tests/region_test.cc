/**
 * @file
 * Region formation tests: treegions (Fig. 2), SLRs, basic blocks, and
 * the partition/tree invariants, including property-style sweeps over
 * generated programs.
 */

#include <algorithm>
#include <functional>
#include <unordered_set>

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "region/formation.h"
#include "region/region_stats.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::region {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Reg;

/**
 * The running example of the paper (Fig. 1's topmost region):
 *
 *   bb1 -> {bb2, bb8}; bb2 -> {bb4, bb3}; bb3 -> bb5; bb4 -> bb5;
 *   bb5 -> bb9; bb8 -> bb9; bb9 -> ret
 *
 * bb5 and bb9 are merge points; everything else hangs off bb1.
 */
struct PaperCfg
{
    Function fn{"paper"};
    BlockId bb1, bb2, bb3, bb4, bb5, bb8, bb9;

    PaperCfg()
    {
        Builder bu(fn);
        bb1 = bu.newBlock();
        bb2 = bu.newBlock();
        bb3 = bu.newBlock();
        bb4 = bu.newBlock();
        bb5 = bu.newBlock();
        bb8 = bu.newBlock();
        bb9 = bu.newBlock();
        fn.setEntry(bb1);

        bu.setInsertPoint(bb1);
        const Reg base = bu.movi(0);
        const Reg r1 = bu.load(base, 0);
        const Reg r2 = bu.load(base, 1);
        const Reg r3 = bu.binary(ir::Opcode::ADD, Builder::R(r1),
                                 Builder::R(r2));
        bu.condBr(CmpKind::GT, Builder::R(r1), Builder::R(r2), bb8, bb2);

        bu.setInsertPoint(bb2);
        const Reg r4 = bu.movi(1);
        bu.condBr(CmpKind::LT, Builder::R(r3), Builder::I(100), bb3,
                  bb4);

        bu.setInsertPoint(bb3);
        bu.movi(2);
        bu.movi(5);
        bu.bru(bb5);

        bu.setInsertPoint(bb4);
        bu.movi(3);
        bu.movi(4);
        bu.bru(bb5);

        bu.setInsertPoint(bb5);
        bu.store(base, 7, Builder::R(r4));
        bu.bru(bb9);

        bu.setInsertPoint(bb8);
        bu.movi(5);
        bu.bru(bb9);

        bu.setInsertPoint(bb9);
        const Reg out = bu.load(base, 7);
        bu.ret(Builder::R(out));

        // The paper's path weights: 35 via bb8, 25 via bb4, 40 via
        // bb3.
        fn.block(bb1).setWeight(100);
        fn.block(bb1).edgeWeights() = {35, 65};
        fn.block(bb2).setWeight(65);
        fn.block(bb2).edgeWeights() = {40, 25};
        fn.block(bb3).setWeight(40);
        fn.block(bb3).edgeWeights() = {40};
        fn.block(bb4).setWeight(25);
        fn.block(bb4).edgeWeights() = {25};
        fn.block(bb5).setWeight(65);
        fn.block(bb5).edgeWeights() = {65};
        fn.block(bb8).setWeight(35);
        fn.block(bb8).edgeWeights() = {35};
        fn.block(bb9).setWeight(100);
    }
};

TEST(TreegionFormation, PaperExampleTopmostTreegion)
{
    PaperCfg g;
    RegionSet set = formTreegions(g.fn);
    EXPECT_TRUE(set.validate(g.fn).empty());

    // The topmost treegion is {bb1, bb2, bb3, bb4, bb8}: bb5 and bb9
    // are merge points and root their own regions.
    const size_t top = set.regionIndexOf(g.bb1);
    const Region &tree = set.regions()[top];
    EXPECT_EQ(tree.size(), 5u);
    for (BlockId id : {g.bb1, g.bb2, g.bb3, g.bb4, g.bb8})
        EXPECT_TRUE(tree.contains(id));
    EXPECT_NE(set.regionIndexOf(g.bb5), top);
    EXPECT_NE(set.regionIndexOf(g.bb9), top);
    EXPECT_EQ(set.regions().size(), 3u);

    // Tree structure.
    EXPECT_EQ(tree.parentOf(g.bb2), g.bb1);
    EXPECT_EQ(tree.parentOf(g.bb8), g.bb1);
    EXPECT_EQ(tree.parentOf(g.bb3), g.bb2);
    EXPECT_EQ(tree.pathCount(), 3u);

    // Exits: bb3->bb5, bb4->bb5, bb8->bb9.
    const auto exits = tree.exits(g.fn);
    EXPECT_EQ(exits.size(), 3u);
    const auto saplings = tree.saplings(g.fn);
    EXPECT_EQ(saplings.size(), 2u);
}

TEST(TreegionFormation, LoopHeaderRootsItsRegion)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId pre = bu.newBlock();
    const BlockId header = bu.newBlock();
    const BlockId body = bu.newBlock();
    const BlockId exit = bu.newBlock();
    fn.setEntry(pre);

    bu.setInsertPoint(pre);
    const Reg i = bu.movi(0);
    bu.bru(header);
    bu.setInsertPoint(header);
    bu.condBr(CmpKind::LT, Builder::R(i), Builder::I(5), body, exit);
    bu.setInsertPoint(body);
    fn.appendOp(body, ir::makeBinary(ir::Opcode::ADD, i, Builder::R(i),
                                     Builder::I(1)));
    bu.bru(header);
    bu.setInsertPoint(exit);
    bu.ret(Builder::R(i));

    RegionSet set = formTreegions(fn);
    EXPECT_TRUE(set.validate(fn).empty());
    // header is a merge point: its region contains body and exit; the
    // back edge is a region exit targeting the region's own root.
    const Region &loop =
        set.regions()[set.regionIndexOf(header)];
    EXPECT_TRUE(loop.contains(body));
    EXPECT_TRUE(loop.contains(exit));
    bool backedge = false;
    for (const RegionExit &e : loop.exits(fn))
        backedge |= (!e.is_ret && e.target == header);
    EXPECT_TRUE(backedge);
}

TEST(SlrFormation, FollowsHottestSuccessor)
{
    PaperCfg g;
    RegionSet set = formSlrs(g.fn);
    EXPECT_TRUE(set.validate(g.fn).empty());
    // From bb1 the hottest edge goes to bb2 (65 > 35), then bb3
    // (40 > 25); bb3's successor bb5 is a merge, so the SLR is
    // {bb1, bb2, bb3}.
    const Region &slr = set.regions()[set.regionIndexOf(g.bb1)];
    EXPECT_EQ(slr.size(), 3u);
    EXPECT_TRUE(slr.contains(g.bb2));
    EXPECT_TRUE(slr.contains(g.bb3));
    EXPECT_FALSE(slr.contains(g.bb8));
    // Every region is linear.
    for (const Region &r : set.regions()) {
        for (const BlockId id : r.blocks())
            EXPECT_LE(r.childrenOf(id).size(), 1u);
    }
}

TEST(BasicBlockRegions, OnePerBlock)
{
    PaperCfg g;
    RegionSet set = formBasicBlockRegions(g.fn);
    EXPECT_TRUE(set.validate(g.fn).empty());
    EXPECT_EQ(set.regions().size(), 7u);
    for (const Region &r : set.regions())
        EXPECT_EQ(r.size(), 1u);
}

TEST(RegionStats, CountsOpsAndBlocks)
{
    PaperCfg g;
    RegionSet set = formTreegions(g.fn);
    const RegionStats stats = computeRegionStats(g.fn, set);
    EXPECT_EQ(stats.num_regions, 3u);
    EXPECT_EQ(stats.max_blocks, 5u);
    EXPECT_EQ(stats.total_ops, g.fn.totalOps());
    EXPECT_GT(stats.avg_ops, 0.0);
}

class FormationProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FormationProperty, PartitionInvariantsHold)
{
    workloads::GenParams p;
    p.seed = GetParam();
    p.top_units = 10;
    p.max_depth = 3;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);

    {
        ir::Function f = fn.clone();
        RegionSet set = formTreegions(f);
        const auto problems = set.validate(f);
        EXPECT_TRUE(problems.empty()) << problems.front();
        // Treegions never mutate the CFG.
        EXPECT_EQ(f.totalOps(), fn.totalOps());
    }
    {
        ir::Function f = fn.clone();
        RegionSet set = formSlrs(f);
        EXPECT_TRUE(set.validate(f).empty());
        for (const Region &r : set.regions()) {
            for (const BlockId id : r.blocks())
                EXPECT_LE(r.childrenOf(id).size(), 1u);
        }
    }
    {
        ir::Function f = fn.clone();
        RegionSet set = formTreegionsTailDup(f, {});
        const auto problems = set.validate(f);
        EXPECT_TRUE(problems.empty()) << problems.front();
        // Tail duplication may only grow the code.
        EXPECT_GE(f.totalOps(), fn.totalOps());
    }
    {
        ir::Function f = fn.clone();
        RegionSet set = formSuperblocks(f, {});
        EXPECT_TRUE(set.validate(f).empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

TEST(TreegionFormation, RespectsPathLimit)
{
    for (const size_t limit : {1u, 2u, 4u, 8u}) {
        workloads::GenParams p;
        p.seed = 77;
        p.top_units = 8;
        p.mem_words = 1024;
        auto mod = workloads::generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, 1024);
        TailDupLimits limits;
        limits.path_limit = limit;
        RegionSet set = formTreegionsTailDup(fn, limits);
        for (const Region &r : set.regions()) {
            // Fig. 11 checks the limit before duplicating, so one
            // final duplication step may overshoot by the fan-out of
            // the absorbed sapling; the bound below is conservative.
            EXPECT_LE(r.pathCount(), limit + 8)
                << "limit " << limit;
        }
    }
}

TEST(TreegionFormation, ExpansionLimitBounds)
{
    workloads::GenParams p;
    p.seed = 123;
    p.top_units = 10;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);
    const size_t original = fn.totalOps();

    ir::Function f2 = fn.clone();
    TailDupLimits lim2;
    lim2.expansion_limit = 2.0;
    formTreegionsTailDup(f2, lim2);
    const double x2 = codeExpansionFactor(f2, original);

    ir::Function f3 = fn.clone();
    TailDupLimits lim3;
    lim3.expansion_limit = 3.0;
    formTreegionsTailDup(f3, lim3);
    const double x3 = codeExpansionFactor(f3, original);

    EXPECT_GE(x2, 1.0);
    EXPECT_LE(x2, x3);
}

/**
 * Entry bb0 branches to bb2 and bb5, and bb2 falls into bb5. bb1 and
 * bb3 each branch to bb4, and no block reaches them: the entry walk
 * misses bb1, bb3 and bb4, so only the driver's second pass can root
 * them. Their ids interleave with the reachable ones.
 */
Function
unreachableChainCfg()
{
    Function fn("unreachable");
    Builder bu(fn);
    BlockId ids[6];
    for (BlockId &id : ids)
        id = bu.newBlock();
    fn.setEntry(ids[0]);

    bu.setInsertPoint(ids[0]);
    const Reg x = bu.movi(3);
    bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(5), ids[2], ids[5]);
    bu.setInsertPoint(ids[2]);
    bu.movi(1);
    bu.bru(ids[5]);
    bu.setInsertPoint(ids[5]);
    bu.ret(Builder::R(x));
    for (const size_t from : {1, 3}) {
        bu.setInsertPoint(ids[from]);
        bu.movi(static_cast<int64_t>(from));
        bu.bru(ids[4]);
    }
    bu.setInsertPoint(ids[4]);
    bu.ret(Builder::I(0));
    return fn;
}

TEST(FormationDriver, RootsTheBlocksTheEntryWalkMisses)
{
    const std::pair<const char *,
                    std::function<RegionSet(Function &)>>
        schemes[] = {
            {"slr", [](Function &f) { return formSlrs(f); }},
            {"tree", [](Function &f) { return formTreegions(f); }},
            {"tree-td",
             [](Function &f) { return formTreegionsTailDup(f, {}); }},
            {"hyper", [](Function &f) { return formHyperblocks(f); }},
        };
    for (const auto &[name, form] : schemes) {
        SCOPED_TRACE(name);
        Function fn = unreachableChainCfg();
        const RegionSet set = form(fn);
        const auto problems = set.validate(fn);
        EXPECT_TRUE(problems.empty()) << problems.front();

        // Every live block is in exactly one region.
        fn.forEachBlock([&](const ir::BasicBlock &b) {
            size_t holders = 0;
            for (const Region &r : set.regions())
                holders += r.contains(b.id()) ? 1 : 0;
            EXPECT_EQ(holders, 1u) << "bb" << b.id();
        });

        // Blocks the entry walk reaches, on the formed CFG.
        std::unordered_set<BlockId> reached;
        std::vector<BlockId> stack = {fn.entry()};
        while (!stack.empty()) {
            const BlockId id = stack.back();
            stack.pop_back();
            if (!reached.insert(id).second)
                continue;
            for (const BlockId succ : fn.block(id).successors())
                stack.push_back(succ);
        }

        // The reachable roots come first; the extra roots follow in
        // ascending id order.
        std::vector<BlockId> extra;
        for (const Region &r : set.regions()) {
            if (reached.count(r.root()))
                EXPECT_TRUE(extra.empty())
                    << "reachable root bb" << r.root()
                    << " after an unreachable one";
            else
                extra.push_back(r.root());
        }
        ASSERT_FALSE(extra.empty());
        EXPECT_EQ(extra.front(), 1u);
        EXPECT_TRUE(std::is_sorted(extra.begin(), extra.end()));
        EXPECT_EQ(std::adjacent_find(extra.begin(), extra.end()),
                  extra.end());
    }
}

} // namespace
} // namespace treegion::region
