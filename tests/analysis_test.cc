/**
 * @file
 * Tests for liveness and for the profiler's flow conservation.
 */

#include <gtest/gtest.h>

#include "analysis/liveness.h"
#include "ir/builder.h"
#include "profile_oracle.h"
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
    EXPECT_TRUE(tg_test::checkProfileConsistency(fn).empty());
    EXPECT_GT(fn.block(fn.entry()).weight(), 0.0);
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
