/**
 * @file
 * List scheduler tests: legality invariants (resources, latencies,
 * memory order), heuristic behavior, dominator parallelism, and the
 * DDG's height computation.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "analysis/liveness.h"
#include "ir/builder.h"
#include "region/formation.h"
#include "sched/ddg.h"
#include "sched/perf_model.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::sched {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Opcode;
using ir::Reg;

/**
 * Check a region schedule's legality:
 *  - at most `width` ops per cycle, unique slots;
 *  - every register read happens at least `latency` cycles after its
 *    (unique GPR / any predicate) writer issues;
 *  - memory ops that the lowering ordered (same path) stay ordered,
 *    approximated here by slot order within a cycle;
 *  - exit cycles recorded in the exit table match the branch ops.
 */
void
checkLegality(const RegionSchedule &sched, int width)
{
    std::unordered_map<int, int> per_cycle;
    for (const ScheduledOp &sop : sched.ops) {
        EXPECT_GE(sop.cycle, 0);
        EXPECT_LT(sop.cycle, sched.length);
        EXPECT_GE(sop.slot, 0);
        EXPECT_LT(sop.slot, width);
        ++per_cycle[sop.cycle];
    }
    for (const auto &[cycle, count] : per_cycle)
        EXPECT_LE(count, width) << "cycle " << cycle;

    // Writer map (predicates may have several writers; readers must
    // follow all of them).
    std::unordered_map<ir::Reg, std::vector<const ScheduledOp *>>
        writers;
    for (const ScheduledOp &sop : sched.ops) {
        for (const ir::Reg &d : sop.op.dsts)
            writers[d].push_back(&sop);
    }
    for (const ScheduledOp &sop : sched.ops) {
        sop.op.forEachUsedReg([&](const ir::Reg &use) {
            auto it = writers.find(use);
            if (it == writers.end())
                return;
            for (const ScheduledOp *w : it->second) {
                if (w == &sop)
                    continue;
                EXPECT_GE(sop.cycle, w->cycle + w->op.latency())
                    << sop.op.str() << " reads " << use.str()
                    << " written by " << w->op.str();
            }
        });
    }

    for (const ScheduledExit &exit : sched.exits) {
        ASSERT_LT(exit.op_index, sched.ops.size());
        EXPECT_EQ(exit.cycle, sched.ops[exit.op_index].cycle);
        EXPECT_TRUE(sched.ops[exit.op_index].op.isBranch());
    }
}

TEST(Scheduler, RespectsWidthAndLatencies)
{
    for (const uint64_t seed : {2u, 9u, 31u}) {
        workloads::GenParams p;
        p.seed = seed;
        p.top_units = 6;
        p.mem_words = 1024;
        auto mod = workloads::generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, 1024);

        for (const int width : {1, 2, 4, 8}) {
            ir::Function f = fn.clone();
            PipelineOptions options;
            options.scheme = RegionScheme::Treegion;
            options.model = MachineModel::custom(width);
            const auto result = runPipeline(f, options);
            for (const auto &[root, rs] : result.schedule.regions)
                checkLegality(rs, width);
        }
    }
}

TEST(Scheduler, OneWideIsSequential)
{
    workloads::GenParams p;
    p.seed = 4;
    p.top_units = 4;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);
    PipelineOptions options;
    options.scheme = RegionScheme::BasicBlock;
    options.model = MachineModel::scalar1U();
    const auto result = runPipeline(fn, options);
    for (const auto &[root, rs] : result.schedule.regions) {
        for (const ScheduledOp &sop : rs.ops)
            EXPECT_EQ(sop.slot, 0);
    }
}

TEST(Scheduler, WiderMachinesNeverSlower)
{
    workloads::GenParams p;
    p.seed = 6;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);

    double prev = 1e300;
    for (const int width : {1, 2, 4, 8, 16}) {
        ir::Function f = fn.clone();
        PipelineOptions options;
        options.scheme = RegionScheme::Treegion;
        options.model = MachineModel::custom(width);
        const auto result = runPipeline(f, options);
        // Greedy list scheduling admits small Graham-style anomalies,
        // so allow a few percent of slack.
        EXPECT_LE(result.estimated_time, prev * 1.05)
            << "width " << width;
        prev = result.estimated_time;
    }
}

TEST(Scheduler, DominatorParallelismElidesDuplicates)
{
    // Diamond whose sides both need the shared tail: tail duplication
    // clones it, and the duplicated ops (identical sources) must be
    // elided when speculated into the common dominator.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    const BlockId c = bu.newBlock();
    const BlockId tail = bu.newBlock();
    fn.setEntry(a);

    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);
    bu.setInsertPoint(b);
    bu.store(base, 2, Builder::I(1));
    bu.bru(tail);
    bu.setInsertPoint(c);
    bu.store(base, 3, Builder::I(2));
    bu.bru(tail);
    bu.setInsertPoint(tail);
    // The tail computes from values defined above the branch: its
    // clones are identical and exhibit dominator parallelism.
    const Reg t = bu.binary(Opcode::MUL, Builder::R(x), Builder::I(3));
    const Reg u = bu.binary(Opcode::ADD, Builder::R(t), Builder::I(7));
    bu.ret(Builder::R(u));

    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(2.0);
        blk.edgeWeights().assign(blk.successors().size(),
                                 2.0 / std::max<size_t>(
                                           1,
                                           blk.successors().size()));
    });

    PipelineOptions with_dp;
    with_dp.scheme = RegionScheme::TreegionTailDup;
    with_dp.model = MachineModel::wide8U();
    ir::Function f1 = fn.clone();
    const auto r1 = runPipeline(f1, with_dp);
    EXPECT_GT(r1.total_sched_stats.elided_ops, 0u);

    PipelineOptions without_dp = with_dp;
    without_dp.sched.dominator_parallelism = false;
    ir::Function f2 = fn.clone();
    const auto r2 = runPipeline(f2, without_dp);
    EXPECT_EQ(r2.total_sched_stats.elided_ops, 0u);
    // Elision can only help (fewer slots consumed).
    EXPECT_LE(r1.estimated_time, r2.estimated_time + 1e-9);
}

TEST(Scheduler, SlotOrderedStoreAndLoadShareACycle)
{
    // The load may issue in the store's cycle, at a later slot.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    bu.store(base, 2, Builder::I(7));
    bu.ret(Builder::R(bu.load(base, 2)));

    PipelineOptions options;
    options.scheme = RegionScheme::BasicBlock;
    options.model = MachineModel::wide4U();
    const auto result = runPipeline(fn, options);
    EXPECT_TRUE(verifyFunctionSchedule(result.schedule, 4).empty());
    const RegionSchedule &rs = result.schedule.regions.at(a);
    const ScheduledOp *store = nullptr, *load = nullptr;
    for (const ScheduledOp &sop : rs.ops) {
        if (sop.op.isStore())
            store = &sop;
        else if (sop.op.isLoad())
            load = &sop;
    }
    ASSERT_TRUE(store && load);
    EXPECT_EQ(store->cycle, 1);
    EXPECT_EQ(load->cycle, store->cycle);
    EXPECT_LT(store->slot, load->slot);
}

TEST(Scheduler, ElisionTwinMustFollowSlotOrderedPreds)
{
    // a branches to b or c, both joining a tail that loads [base+2];
    // tail duplication gives each path its own copy of the load. On
    // c's path the copy issues in cycle 1. On b's path a store to
    // [base+2] comes first, from a value ready in cycle 4, so b's copy
    // may not alias the earlier load: its twin would precede one of
    // its slot-ordered predecessors.
    for (const bool store_in_b : {true, false}) {
        Function fn("f");
        Builder bu(fn);
        const BlockId a = bu.newBlock();
        const BlockId b = bu.newBlock();
        const BlockId c = bu.newBlock();
        const BlockId tail = bu.newBlock();
        fn.setEntry(a);
        bu.setInsertPoint(a);
        const Reg base = bu.movi(0);
        const Reg x = bu.load(base, 1);
        bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);
        bu.setInsertPoint(b);
        const Reg w = bu.binary(Opcode::ADD, Builder::R(x), Builder::I(5));
        if (store_in_b)
            bu.store(base, 2, Builder::R(w));
        bu.bru(tail);
        bu.setInsertPoint(c);
        bu.bru(tail);
        bu.setInsertPoint(tail);
        bu.ret(Builder::R(bu.load(base, 2)));
        fn.forEachBlockMut([](ir::BasicBlock &blk) {
            blk.setWeight(2.0);
            blk.edgeWeights().assign(
                blk.successors().size(),
                2.0 / std::max<size_t>(1, blk.successors().size()));
        });

        PipelineOptions options;
        options.scheme = RegionScheme::TreegionTailDup;
        options.model = MachineModel::wide8U();
        ir::Function original = fn.clone();
        const auto result = runPipeline(fn, options);
        const RegionSchedule &rs = result.schedule.regions.at(a);
        size_t loads = 0;
        for (const ScheduledOp &sop : rs.ops)
            loads += sop.op.isLoad();
        EXPECT_EQ(rs.stats.elided_ops, store_in_b ? 0u : 1u);
        EXPECT_EQ(loads, store_in_b ? 3u : 2u);

        // x = 0 takes b's path, which must read the stored 5, not 99.
        std::vector<int64_t> memory(workloads::kMinInputMemWords, 0);
        memory[2] = 99;
        const vliw::EquivalenceReport report = vliw::checkEquivalence(
            original, fn, result.schedule, memory);
        EXPECT_TRUE(report.ok) << report.detail;
    }
}

TEST(Scheduler, HeuristicsProduceDifferentSchedules)
{
    workloads::GenParams p;
    p.seed = 10;
    p.top_units = 10;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, 1024);

    std::vector<double> times;
    for (const Heuristic h : kAllHeuristics) {
        ir::Function f = fn.clone();
        PipelineOptions options;
        options.scheme = RegionScheme::Treegion;
        options.model = MachineModel::wide4U();
        options.sched.heuristic = h;
        times.push_back(runPipeline(f, options).estimated_time);
    }
    // All four produce valid estimates; at least two differ.
    bool any_diff = false;
    for (double t : times) {
        EXPECT_GT(t, 0.0);
        any_diff |= (t != times[0]);
    }
    EXPECT_TRUE(any_diff);
}

TEST(Ddg, HeightsRespectLatencies)
{
    // LD (2) -> ADD (1) -> FMUL (3) -> ST chain: the load's height
    // sees the whole chain.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    const Reg y = bu.binary(Opcode::ADD, Builder::R(x), Builder::I(1));
    const Reg z = bu.binary(Opcode::FMUL, Builder::R(y), Builder::I(2));
    bu.store(base, 2, Builder::R(z));
    bu.ret(Builder::I(0));

    region::RegionSet set = region::formBasicBlockRegions(fn);
    analysis::Liveness live(fn);
    const region::Region &r = set.regions()[set.regionIndexOf(a)];
    LoweredRegion lowered = lowerRegion(fn, r, live);
    Ddg ddg(lowered);

    // Find the load and the store in the lowered ops.
    int load_height = -1, store_height = -1, fmul_height = -1;
    for (size_t i = 0; i < lowered.ops.size(); ++i) {
        if (lowered.ops[i].op.isLoad())
            load_height = ddg.height(i);
        if (lowered.ops[i].op.isStore())
            store_height = ddg.height(i);
        if (lowered.ops[i].op.opcode == Opcode::FMUL)
            fmul_height = ddg.height(i);
    }
    // Store is a sink feeding the RET exit pin: height small.
    ASSERT_GE(store_height, 1);
    EXPECT_GE(fmul_height, 3 + 1);          // FMUL latency + store
    EXPECT_GE(load_height, 2 + 1 + 3 + 1);  // whole chain
}

TEST(Ddg, BackedgeExitGetsRecurrenceFloor)
{
    // Counted loop: the back-edge exit's height is floored above
    // everything else, which in turn raises the induction update.
    Function fn("f");
    Builder bu(fn);
    const BlockId pre = bu.newBlock();
    const BlockId header = bu.newBlock();
    const BlockId body = bu.newBlock();
    const BlockId exit = bu.newBlock();
    fn.setEntry(pre);
    bu.setInsertPoint(pre);
    const Reg base = bu.movi(0);
    const Reg i = bu.movi(0);
    bu.bru(header);
    bu.setInsertPoint(header);
    bu.condBr(CmpKind::LT, Builder::R(i), Builder::I(9), body, exit);
    bu.setInsertPoint(body);
    const Reg v = bu.load(base, 3);
    bu.store(base, 4, Builder::R(v));
    fn.appendOp(body, ir::makeBinary(Opcode::ADD, i, Builder::R(i),
                                     Builder::I(1)));
    bu.bru(header);
    bu.setInsertPoint(exit);
    bu.ret(Builder::R(i));

    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(), 0.5);
    });

    region::RegionSet set = region::formTreegions(fn);
    analysis::Liveness live(fn);
    const region::Region &loop =
        set.regions()[set.regionIndexOf(header)];
    LoweredRegion lowered = lowerRegion(fn, loop, live);
    Ddg ddg(lowered);

    const LoweredExit *backedge = nullptr;
    for (const LoweredExit &e : lowered.exits) {
        if (!e.is_ret && e.target == header)
            backedge = &e;
    }
    ASSERT_NE(backedge, nullptr);
    const int backedge_height =
        ddg.height(backedge->op_index);

    // The floor makes the back edge at least as tall as any BRANCH,
    // and it propagates through the exit's reconciliation copy into
    // the induction update, which would otherwise be a low-height
    // sink.
    ASSERT_EQ(backedge->copies.size(), 1u);
    int update_height = -1;
    for (size_t k = 0; k < lowered.ops.size(); ++k) {
        for (const ir::Reg &d : lowered.ops[k].op.dsts) {
            if (d == backedge->copies[0].src)
                update_height = ddg.height(k);
        }
    }
    ASSERT_GE(update_height, 0);
    EXPECT_GE(update_height, backedge_height);
    for (size_t k = 0; k < lowered.ops.size(); ++k) {
        if (lowered.ops[k].kind == LoweredKind::ExitBranch &&
            k != backedge->op_index) {
            EXPECT_GE(backedge_height, ddg.height(k));
        }
    }
}

TEST(Scheduler, PaperHeuristicNamesAreStable)
{
    EXPECT_EQ(heuristicName(Heuristic::DependenceHeight), "dep-height");
    EXPECT_EQ(heuristicName(Heuristic::ExitCount), "exit-count");
    EXPECT_EQ(heuristicName(Heuristic::GlobalWeight), "global-weight");
    EXPECT_EQ(heuristicName(Heuristic::WeightedCount),
              "weighted-count");
}

/** Place @p op at (cycle, slot) with program-order id @p id. */
ScheduledOp
placed(ir::Op op, ir::OpId id, int cycle, int slot)
{
    ScheduledOp sop;
    sop.op = std::move(op);
    sop.op.id = id;
    sop.cycle = cycle;
    sop.slot = slot;
    return sop;
}

// A store reordered past a load of the same path must be rejected:
// with both ops in one home block, ascending op id is program order,
// and the load here follows the store (it reads what was written).
TEST(ScheduleVerifier, RejectsStoreReorderedPastDependentLoad)
{
    RegionSchedule sched;
    sched.length = 2;
    // Program order: ST [r0+4] <- r1 (id 10), then r2 = LD [r0+4]
    // (id 20). r0/r1 are region live-ins.
    sched.ops.push_back(
        placed(ir::makeStore(ir::gpr(0), 4,
                             ir::Operand::makeReg(ir::gpr(1))),
               10, 1, 0));
    sched.ops.push_back(
        placed(ir::makeLoad(ir::gpr(2), ir::gpr(0), 4), 20, 0, 0));
    const auto problems = verifySchedule(sched, 4);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("memory order"), std::string::npos)
        << problems.front();

    // The program-order placement is legal.
    RegionSchedule fixed = sched;
    fixed.ops[0].cycle = 0;
    fixed.ops[1].cycle = 1;
    EXPECT_TRUE(verifySchedule(fixed, 4).empty());
}

// Memory ops in region blocks on disjoint paths never execute in the
// same traversal, so their relative order is unconstrained.
TEST(ScheduleVerifier, AllowsStoreLoadReorderAcrossDisjointPaths)
{
    // A fork: root 0 branches to 1 and 2; @p chained adds 1 -> 2.
    auto fork = [](bool chained) {
        return RegionTree({0, 1, 2}, [chained](ir::BlockId id) {
            if (id == 0)
                return std::vector<ir::BlockId>{1, 2};
            if (id == 1 && chained)
                return std::vector<ir::BlockId>{2};
            return std::vector<ir::BlockId>{};
        });
    };
    RegionSchedule sched;
    sched.root = 0;
    sched.length = 2;
    sched.tree = fork(false);
    ScheduledOp st = placed(
        ir::makeStore(ir::gpr(0), 4, ir::Operand::makeReg(ir::gpr(1))),
        10, 1, 0);
    st.home = 1;
    ScheduledOp ld =
        placed(ir::makeLoad(ir::gpr(2), ir::gpr(0), 4), 20, 0, 0);
    ld.home = 2;
    sched.ops.push_back(st);
    sched.ops.push_back(ld);
    EXPECT_TRUE(verifySchedule(sched, 4).empty());

    // Same pair with the load downstream of the store is ordered.
    sched.tree = fork(true);
    EXPECT_FALSE(verifySchedule(sched, 4).empty());
}

// Every predicate is synthesized inside the region (path predicates,
// guards, branch conditions), so a guard read with no in-schedule
// writer is an undefined predicate, not a live-in.
TEST(ScheduleVerifier, RejectsUndefinedGuardPredicate)
{
    RegionSchedule sched;
    sched.length = 3;
    ScheduledOp guarded =
        placed(ir::makeBinary(Opcode::ADD, ir::gpr(1),
                              ir::Operand::makeReg(ir::gpr(0)),
                              ir::Operand::makeImm(1)),
               10, 2, 0);
    guarded.op.guard = ir::pred(0);
    sched.ops.push_back(guarded);
    const auto problems = verifySchedule(sched, 4);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("guard predicate"),
              std::string::npos)
        << problems.front();

    // Defining the guard early enough makes the schedule legal.
    RegionSchedule fixed = sched;
    fixed.ops.push_back(
        placed(ir::makeCmpp1(CmpKind::LT,  ir::pred(0),
                             ir::Operand::makeReg(ir::gpr(0)),
                             ir::Operand::makeImm(5)),
               5, 0, 0));
    EXPECT_TRUE(verifySchedule(fixed, 4).empty());
}

// A fall-through exit has no branch op: the path stays in the region
// for the whole schedule, so it costs weight x length (DESIGN.md §6).
TEST(PerfModel, FallthroughExitCostsFullScheduleLength)
{
    RegionSchedule sched;
    sched.length = 5;
    ScheduledExit exit;
    exit.op_index = ScheduledExit::kFallthrough;
    exit.weight = 2.0;
    sched.exits.push_back(exit);
    EXPECT_DOUBLE_EQ(estimateRegionTime(sched), 2.0 * 5);
    EXPECT_TRUE(verifySchedule(sched, 4).empty());
}

// Never-taken exits (zero profile weight) contribute nothing, even
// with nonsense cycles; only executed paths cost time.
TEST(PerfModel, ZeroWeightExitContributesNothing)
{
    RegionSchedule sched;
    sched.length = 4;
    ScheduledExit dead;
    dead.op_index = ScheduledExit::kFallthrough;
    dead.weight = 0.0;
    dead.cycle = 1 << 20;
    sched.exits.push_back(dead);
    ScheduledExit hot;
    hot.op_index = ScheduledExit::kFallthrough;
    hot.weight = 3.0;
    sched.exits.push_back(hot);
    EXPECT_DOUBLE_EQ(estimateRegionTime(sched), 3.0 * 4);
}

} // namespace
} // namespace treegion::sched
