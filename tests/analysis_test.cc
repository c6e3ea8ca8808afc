/**
 * @file
 * Tests for dominators, liveness, and profile utilities.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/profile.h"
#include "ir/builder.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::analysis {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Reg;

/** entry -> (b, c) -> join -> ret, plus a loop around body. */
struct DiamondLoop
{
    Function fn{"f"};
    BlockId entry, b, c, join, header, body, exit;

    DiamondLoop()
    {
        Builder bu(fn);
        entry = bu.newBlock();
        b = bu.newBlock();
        c = bu.newBlock();
        join = bu.newBlock();
        header = bu.newBlock();
        body = bu.newBlock();
        exit = bu.newBlock();
        fn.setEntry(entry);

        bu.setInsertPoint(entry);
        const Reg base = bu.movi(0);
        const Reg x = bu.load(base, 1);
        bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);

        bu.setInsertPoint(b);
        bu.bru(join);
        bu.setInsertPoint(c);
        bu.bru(join);

        bu.setInsertPoint(join);
        const Reg i = bu.movi(0);
        bu.bru(header);

        bu.setInsertPoint(header);
        bu.condBr(CmpKind::LT, Builder::R(i), Builder::I(3), body, exit);

        bu.setInsertPoint(body);
        fn.appendOp(body, ir::makeBinary(ir::Opcode::ADD, i,
                                         Builder::R(i), Builder::I(1)));
        bu.bru(header);

        bu.setInsertPoint(exit);
        bu.ret(Builder::R(x));
    }
};

TEST(Dominators, DiamondStructure)
{
    DiamondLoop g;
    DominatorTree dom(g.fn);
    EXPECT_EQ(dom.idom(g.entry), ir::kNoBlock);
    EXPECT_EQ(dom.idom(g.b), g.entry);
    EXPECT_EQ(dom.idom(g.c), g.entry);
    EXPECT_EQ(dom.idom(g.join), g.entry);
    EXPECT_EQ(dom.idom(g.header), g.join);
    EXPECT_EQ(dom.idom(g.body), g.header);
    EXPECT_TRUE(dom.dominates(g.entry, g.exit));
    EXPECT_TRUE(dom.dominates(g.header, g.body));
    EXPECT_FALSE(dom.dominates(g.b, g.join));
    EXPECT_TRUE(dom.dominates(g.join, g.join));
}

TEST(Dominators, ReversePostorderStartsAtEntry)
{
    DiamondLoop g;
    const auto rpo = reversePostorder(g.fn);
    ASSERT_FALSE(rpo.empty());
    EXPECT_EQ(rpo.front(), g.entry);
    EXPECT_EQ(rpo.size(), 7u);
}

TEST(Dominators, ChildrenInverse)
{
    DiamondLoop g;
    DominatorTree dom(g.fn);
    const auto kids = dom.children(g.entry);
    EXPECT_NE(std::find(kids.begin(), kids.end(), g.join), kids.end());
}

TEST(Liveness, ValueLiveAcrossBranch)
{
    DiamondLoop g;
    Liveness live(g.fn);
    // x (the load result) is returned in exit, so it is live into
    // every block on the way.
    const Reg x = ir::gpr(1);
    EXPECT_TRUE(live.liveIn(g.join, x));
    EXPECT_TRUE(live.liveIn(g.exit, x));
    EXPECT_TRUE(live.liveOut(g.entry, x));
    // The loop counter is live around the loop but not into entry.
    const Reg i = ir::gpr(2);
    EXPECT_TRUE(live.liveIn(g.header, i));
    EXPECT_FALSE(live.liveIn(g.entry, i));
}

TEST(Liveness, DeadAfterLastUse)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg t = bu.movi(1);
    const Reg u = bu.binary(ir::Opcode::ADD, Builder::R(t),
                            Builder::I(1));
    bu.bru(b);
    bu.setInsertPoint(b);
    bu.ret(Builder::R(u));
    Liveness live(fn);
    EXPECT_TRUE(live.liveIn(b, u));
    EXPECT_FALSE(live.liveIn(b, t));
}

TEST(Profile, UniformProfileIsConsistent)
{
    DiamondLoop g;
    applyUniformProfile(g.fn, 10.0);
    // Uniform edge splitting does not conserve flow at merges in
    // general; only the outgoing check is expected to hold.
    g.fn.forEachBlock([&](const ir::BasicBlock &blk) {
        double out = 0.0;
        for (double w : blk.edgeWeights())
            out += w;
        if (!blk.edgeWeights().empty())
            EXPECT_NEAR(out, blk.weight(), 1e-9);
    });
}

TEST(Profile, ProfilerProducesConsistentCounts)
{
    workloads::GenParams p;
    p.seed = 5;
    p.top_units = 5;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    const auto summary = workloads::profileFunction(fn, 1024);
    EXPECT_GT(summary.completed_runs, 0);
    EXPECT_TRUE(checkProfileConsistency(fn).empty());
    EXPECT_GT(fn.block(fn.entry()).weight(), 0.0);
}

TEST(Profile, ScaleAndClear)
{
    DiamondLoop g;
    applyUniformProfile(g.fn, 4.0);
    scaleProfile(g.fn, 0.5);
    EXPECT_DOUBLE_EQ(g.fn.block(g.entry).weight(), 2.0);
    clearProfile(g.fn);
    EXPECT_DOUBLE_EQ(g.fn.block(g.entry).weight(), 0.0);
}

TEST(Profile, DifferentInputSeedsGiveDifferentProfiles)
{
    workloads::GenParams p;
    p.seed = 8;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");

    workloads::ProfileOptions a;
    a.input_seed = 1;
    workloads::profileFunction(fn, 1024, a);
    std::vector<double> weights_a;
    fn.forEachBlock([&](const ir::BasicBlock &blk) {
        weights_a.push_back(blk.weight());
    });

    workloads::ProfileOptions b;
    b.input_seed = 999;
    workloads::profileFunction(fn, 1024, b);
    std::vector<double> weights_b;
    fn.forEachBlock([&](const ir::BasicBlock &blk) {
        weights_b.push_back(blk.weight());
    });

    EXPECT_NE(weights_a, weights_b);
}

} // namespace
} // namespace treegion::analysis
