/**
 * @file
 * Tail duplication tests: semantic preservation, profile flow
 * conservation, the Fig. 12 example (duplicating a merge point into a
 * treegion), and predecessor lists kept current through every
 * duplication and orphan removal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "profile_oracle.h"
#include "region/formation.h"
#include "region/tail_duplication.h"
#include "vliw/interpreter.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"
#include "workloads/synthetic.h"

namespace treegion::region {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Reg;

/** Diamond with a shared tail: a -> (b|c) -> tail -> ret. */
struct SharedTail
{
    Function fn{"f"};
    BlockId a, b, c, tail;

    SharedTail()
    {
        Builder bu(fn);
        a = bu.newBlock();
        b = bu.newBlock();
        c = bu.newBlock();
        tail = bu.newBlock();
        fn.setEntry(a);

        bu.setInsertPoint(a);
        const Reg base = bu.movi(0);
        const Reg x = bu.load(base, 1);
        bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);

        bu.setInsertPoint(b);
        bu.store(base, 2, Builder::I(1));
        bu.bru(tail);

        bu.setInsertPoint(c);
        bu.store(base, 2, Builder::I(2));
        bu.bru(tail);

        bu.setInsertPoint(tail);
        const Reg y = bu.load(base, 2);
        bu.ret(Builder::R(y));

        fn.block(a).setWeight(10);
        fn.block(a).edgeWeights() = {6, 4};
        fn.block(b).setWeight(6);
        fn.block(b).edgeWeights() = {6};
        fn.block(c).setWeight(4);
        fn.block(c).edgeWeights() = {4};
        fn.block(tail).setWeight(10);
    }
};

TEST(TailDuplicateEdge, SplitsProfileFlow)
{
    SharedTail g;
    const BlockId clone = tailDuplicateEdge(g.fn, g.b, 0);
    EXPECT_EQ(g.fn.block(clone).originalId(), g.tail);
    EXPECT_DOUBLE_EQ(g.fn.block(clone).weight(), 6.0);
    EXPECT_DOUBLE_EQ(g.fn.block(g.tail).weight(), 4.0);
    // b now targets the clone; c still targets the original.
    EXPECT_EQ(g.fn.block(g.b).successors()[0], clone);
    EXPECT_EQ(g.fn.block(g.c).successors()[0], g.tail);
    EXPECT_FALSE(g.fn.isMergePoint(g.tail));
    EXPECT_TRUE(tg_test::checkProfileConsistency(g.fn).empty());
}

TEST(TailDuplicateEdge, PreservesSemantics)
{
    SharedTail g;
    Function copy = g.fn.clone();
    tailDuplicateEdge(copy, g.b, 0);

    for (int64_t x : {10, 90}) {
        std::vector<int64_t> mem(64, 0);
        mem[1] = x;
        const auto before = vliw::runSequential(g.fn, mem);
        const auto after = vliw::runSequential(copy, mem);
        ASSERT_TRUE(before.completed && after.completed);
        EXPECT_EQ(before.ret_value, after.ret_value);
        EXPECT_EQ(before.memory, after.memory);
    }
}

TEST(TreegionTailDup, Fig12AbsorbsBothCopies)
{
    SharedTail g;
    TailDupLimits limits;
    RegionSet set = formTreegionsTailDup(g.fn, limits);
    EXPECT_TRUE(set.validate(g.fn).empty());
    // The whole CFG becomes one treegion: tail is duplicated for one
    // side and directly absorbed for the other (Fig. 12), so every
    // original execution path is a unique tree path.
    EXPECT_EQ(set.regions().size(), 1u);
    const Region &tree = set.regions()[0];
    EXPECT_EQ(tree.pathCount(), 2u);
    EXPECT_EQ(tree.size(), 5u);
}

TEST(TreegionTailDup, MergeLimitBlocksWideMerges)
{
    // A 5-way merge with merge_limit 4 must stay unduplicated unless
    // it is a function exit.
    Function fn("f");
    Builder bu(fn);
    const BlockId entry = bu.newBlock();
    std::vector<BlockId> arms;
    for (int i = 0; i < 5; ++i)
        arms.push_back(bu.newBlock());
    const BlockId join = bu.newBlock();
    const BlockId done = bu.newBlock();
    fn.setEntry(entry);

    bu.setInsertPoint(entry);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    const Reg sel = bu.binary(ir::Opcode::REM, Builder::R(x),
                              Builder::I(5));
    bu.mwbr(sel, arms);
    for (const BlockId arm : arms) {
        bu.setInsertPoint(arm);
        bu.store(base, 3, Builder::I(arm));
        bu.bru(join);
    }
    bu.setInsertPoint(join);
    bu.store(base, 4, Builder::I(9));
    bu.bru(done);
    bu.setInsertPoint(done);
    bu.ret(Builder::I(0));
    workloads::GenParams dummy;
    (void)dummy;
    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(),
                                 1.0 /
                                     std::max<size_t>(
                                         1, blk.successors().size()));
    });

    TailDupLimits limits;
    limits.merge_limit = 4;
    ir::Function f = fn.clone();
    RegionSet set = formTreegionsTailDup(f, limits);
    EXPECT_TRUE(set.validate(f).empty());
    // join (5 preds, has successors) must not be duplicated: the
    // total op count is unchanged except possibly for `done`
    // (single-pred absorption adds nothing).
    EXPECT_EQ(f.totalOps(), fn.totalOps());

    // Raising the limit to 5 lets the join be duplicated.
    TailDupLimits loose;
    loose.merge_limit = 5;
    loose.expansion_limit = 8.0;
    ir::Function f2 = fn.clone();
    formTreegionsTailDup(f2, loose);
    EXPECT_GT(f2.totalOps(), fn.totalOps());
}

TEST(TreegionTailDup, FunctionExitsExemptFromMergeLimit)
{
    // A RET block with many predecessors is still duplicated
    // ("merge points with no successors in the CFG, such as function
    // exits").
    Function fn("f");
    Builder bu(fn);
    const BlockId entry = bu.newBlock();
    std::vector<BlockId> arms;
    for (int i = 0; i < 6; ++i)
        arms.push_back(bu.newBlock());
    const BlockId ret = bu.newBlock();
    fn.setEntry(entry);

    bu.setInsertPoint(entry);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    const Reg sel = bu.binary(ir::Opcode::REM, Builder::R(x),
                              Builder::I(6));
    bu.mwbr(sel, arms);
    for (const BlockId arm : arms) {
        bu.setInsertPoint(arm);
        bu.store(base, 2, Builder::I(arm));
        bu.bru(ret);
    }
    bu.setInsertPoint(ret);
    const Reg y = bu.load(base, 2);
    bu.ret(Builder::R(y));
    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(),
                                 1.0 /
                                     std::max<size_t>(
                                         1, blk.successors().size()));
    });

    TailDupLimits limits;
    limits.merge_limit = 4;
    limits.expansion_limit = 4.0;
    RegionSet set = formTreegionsTailDup(fn, limits);
    EXPECT_TRUE(set.validate(fn).empty());
    // The RET block was duplicated into the arms.
    size_t ret_copies = 0;
    fn.forEachBlock([&](const ir::BasicBlock &blk) {
        if (blk.originalId() == ret)
            ++ret_copies;
    });
    EXPECT_GT(ret_copies, 1u);
}

TEST(TailDup, SemanticsPreservedOnGeneratedPrograms)
{
    for (uint64_t seed : {3u, 14u, 159u}) {
        workloads::GenParams p;
        p.seed = seed;
        p.top_units = 8;
        p.mem_words = 1024;
        auto mod = workloads::generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, 1024);

        for (int variant = 0; variant < 2; ++variant) {
            ir::Function f = fn.clone();
            if (variant == 0)
                formTreegionsTailDup(f, {});
            else
                formSuperblocks(f, {});
            EXPECT_TRUE(
                tg_test::checkProfileConsistency(f, 1e-6).empty())
                << "seed " << seed << " variant " << variant;
            for (uint64_t input = 0; input < 3; ++input) {
                auto mem = workloads::makeInputMemory(1024,
                                                      500 + input, 100);
                const auto before = vliw::runSequential(fn, mem);
                const auto after = vliw::runSequential(f, mem);
                ASSERT_TRUE(before.completed && after.completed);
                EXPECT_EQ(before.ret_value, after.ret_value);
                EXPECT_EQ(before.memory, after.memory);
            }
        }
    }
}

/**
 * Predecessor lists as a full rebuild makes them: for every
 * live block, one entry per target slot of each predecessor, in
 * ascending predecessor order.
 */
std::map<BlockId, std::vector<BlockId>>
recountPreds(const Function &fn)
{
    std::map<BlockId, std::vector<BlockId>> preds;
    fn.forEachBlock([&](const ir::BasicBlock &b) { preds[b.id()]; });
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        for (const BlockId succ : b.successors()) {
            if (succ != ir::kNoBlock)
                preds[succ].push_back(b.id());
        }
    });
    return preds;
}

/**
 * Every block's maintained list equals the recount. Reads the lists
 * through BasicBlock::preds(), which never rebuilds, so a list left
 * stale by an edit fails here instead of being silently rebuilt.
 */
void
expectPredsCurrent(const Function &fn, const std::string &where)
{
    for (const auto &[id, expected] : recountPreds(fn))
        ASSERT_EQ(fn.block(id).preds(), expected) << where << ": bb" << id;
}

TEST(PredecessorLists, StayCurrentThroughRetargetsAndRemovals)
{
    // a -> (b | d); b -> (c | c); d -> c. c starts with [b, b, d]:
    // a double edge, and an edit that must insert below the end.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    const BlockId c = bu.newBlock();
    const BlockId d = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg x = bu.movi(3);
    bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(5), b, d);
    bu.setInsertPoint(b);
    bu.condBr(CmpKind::GT, Builder::R(x), Builder::I(1), c, c);
    bu.setInsertPoint(d);
    bu.bru(c);
    bu.setInsertPoint(c);
    bu.ret(Builder::R(x));

    ASSERT_EQ(fn.predsOf(c), (std::vector<BlockId>{b, b, d}));
    fn.retargetEdge(a, d, c);  // c gains a, ahead of b
    expectPredsCurrent(fn, "retarget a->c");
    fn.removeBlock(d);
    expectPredsCurrent(fn, "remove d");
    fn.retargetSlot(a, 0, c);
    expectPredsCurrent(fn, "retarget slot 0");
    fn.removeBlock(b);  // drops both of b's entries
    expectPredsCurrent(fn, "remove b");
    EXPECT_EQ(fn.block(c).preds(), (std::vector<BlockId>{a, a}));
    const BlockId copy = fn.cloneBlock(a);
    expectPredsCurrent(fn, "clone a");
    EXPECT_EQ(fn.block(c).preds(), (std::vector<BlockId>{a, a, copy, copy}));
}

TEST(TailDuplicateEdge, KeepsPredecessorListsCurrentOnProxies)
{
    const RegionSet no_regions;
    for (const auto &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        Function fn = mod->function("main").clone();
        workloads::profileFunction(fn, spec.params.mem_words);
        fn.predsOf(fn.entry());  // build the lists once
        expectPredsCurrent(fn, spec.name + " built");

        // Take merge points apart edge by edge, as formation does,
        // until the original is orphaned and swept; check after every
        // duplication and every sweep.
        size_t dups = 0;
        for (BlockId id = 0; id < fn.numBlockIds() && dups < 150; ++id) {
            if (!fn.hasBlock(id) || id == fn.entry() ||
                !fn.isMergePoint(id))
                continue;
            while (fn.hasBlock(id) && !fn.predsOf(id).empty() &&
                   dups < 150) {
                const BlockId pred = fn.predsOf(id).back();
                if (pred == id)
                    break;  // a self-loop stays a loop
                const auto &targets = fn.block(pred).terminator().targets;
                const size_t slot = static_cast<size_t>(
                    std::find(targets.begin(), targets.end(), id) -
                    targets.begin());
                tailDuplicateEdge(fn, pred, slot);
                ++dups;
                expectPredsCurrent(fn, spec.name + " dup " +
                                           std::to_string(dups));
            }
            if (fn.hasBlock(id) && fn.predsOf(id).empty()) {
                orphanSweep(fn, no_regions, id);
                EXPECT_FALSE(fn.hasBlock(id)) << spec.name;
                expectPredsCurrent(fn, spec.name + " sweep");
            }
        }
        EXPECT_GT(dups, 0u) << spec.name;
        // A clone carries the current lists with it.
        expectPredsCurrent(fn.clone(), spec.name + " clone");

        // Both tail-duplicating formations leave them current too.
        Function tree = mod->function("main").clone();
        workloads::profileFunction(tree, spec.params.mem_words);
        formTreegionsTailDup(tree, {});
        expectPredsCurrent(tree, spec.name + " tree-td");
        Function sb = mod->function("main").clone();
        workloads::profileFunction(sb, spec.params.mem_words);
        formSuperblocks(sb, {});
        expectPredsCurrent(sb, spec.name + " sb");
    }
}

} // namespace
} // namespace treegion::region
