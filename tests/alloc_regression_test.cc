/**
 * @file
 * Allocation regression tests for the scheduling hot path.
 *
 * The arena refactor's core claim (DESIGN.md §11): after a warm-up
 * compile has grown the per-thread arena, DDG construction plus list
 * scheduling perform ZERO heap allocations. These tests pin that with
 * a counting operator new interposer (alloc_guard.h) around
 * runPlacementProbe, and check the arena's aggregate gauges are
 * reported through support::MetricsRegistry.
 *
 * A second pin keeps per-region cost independent of the function's
 * register count: a tiny region of a function that has allocated a
 * million registers must lower and schedule in bounded scratch.
 *
 * A third set pins that copying ops costs no allocation: an op's
 * operands live in place, so copying one is heap-free, and cloning a
 * function or lowering its regions allocates per block and per
 * region, never per op.
 *
 * A fourth pins the schedule simulators: the in-order engine and the
 * out-of-order backend allocate per run, never per cycle, op or
 * region transition. A fifth pins a cold request's other passes
 * (parse, IR verify, profile, schedule verify) the same way.
 *
 * Remarks and tracing stay disabled here: both are opt-in observers
 * that legitimately allocate, and the steady-state property concerns
 * production (observer-free) compiles.
 */

#include "alloc_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "ir/function.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "ooo/ooo_sim.h"
#include "region/formation.h"
#include "sched/hyperblock_lowering.h"
#include "sched/list_scheduler.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "support/flightrec.h"
#include "support/metrics.h"
#include "support/spans.h"
#include "vliw/vliw_sim.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::sched {
namespace {

/** Lowered treegions of a synthetic function, largest first. */
std::vector<LoweredRegion>
lowerWorkload(ir::Function &fn)
{
    region::RegionSet set = region::formTreegions(fn);
    analysis::Liveness live(fn);
    std::vector<LoweredRegion> jobs;
    for (const region::Region &r : set.regions())
        jobs.push_back(lowerRegion(fn, r, live));
    std::sort(jobs.begin(), jobs.end(),
              [](const LoweredRegion &a, const LoweredRegion &b) {
                  return a.ops.size() > b.ops.size();
              });
    return jobs;
}

TEST(AllocRegression, SteadyStateSchedulingIsHeapFree)
{
    workloads::GenParams p;
    p.seed = 12;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);

    const MachineModel model = MachineModel::custom(4);
    const SchedOptions options;
    std::vector<LoweredRegion> jobs = lowerWorkload(fn);
    ASSERT_FALSE(jobs.empty());

    // Warm-up: one probe per region grows the thread's arena to this
    // workload's high-water mark; the blocks are retained across
    // reset(), so the replay below runs entirely out of them.
    std::vector<int> warm_lengths;
    for (const LoweredRegion &job : jobs) {
        warm_lengths.push_back(
            runPlacementProbe(fn, job, model, options));
    }

    // Replay the same jobs. The inputs are copied BEFORE the guard
    // opens; inside it the scheduler must not touch the heap.
    std::vector<LoweredRegion> replay = jobs;
    std::vector<int> replay_lengths;
    replay_lengths.reserve(replay.size());
    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (LoweredRegion &job : replay) {
            replay_lengths.push_back(runPlacementProbe(
                fn, std::move(job), model, options));
        }
        allocations = guard.allocations();
    }
    EXPECT_EQ(allocations, 0u)
        << "scheduling hot path allocated on a warm arena";

    // Placement is deterministic, so the replay lengths match.
    EXPECT_EQ(replay_lengths, warm_lengths);
    for (const int length : warm_lengths)
        EXPECT_GT(length, 0);
}

/**
 * Lowering and scheduling one region must cost O(region size), not
 * O(function registers). A compile keeps allocating fresh registers
 * (every region renames every definition), so a function grows from
 * hundreds to thousands of GPRs while 34-112 regions are lowered; a
 * per-region table sized by the register count pays that growth once
 * per region. Here a 3-op region of a function holding a million GPRs
 * and 100k predicates must stay within a fixed scratch bound: the DDG
 * definition table is keyed by the region's own destinations and the
 * rename table reuses per-thread slots sized by the original
 * registers it maps.
 */
TEST(AllocRegression, RegionCostIgnoresFunctionRegisterCount)
{
    constexpr uint64_t kBound = 256 * 1024;

    ir::Function fn("f");
    const ir::BlockId entry = fn.createBlock();
    fn.setEntry(entry);
    const ir::Reg x = fn.freshGpr();
    const ir::Reg y = fn.freshGpr();
    fn.appendOp(entry, ir::makeMovi(x, 7));
    fn.appendOp(entry, ir::makeBinary(ir::Opcode::ADD, y,
                                      ir::Operand::makeReg(x),
                                      ir::Operand::makeImm(1)));
    fn.appendTerminator(entry, ir::makeRet(ir::Operand::makeReg(y)));
    const analysis::Liveness live(fn);
    const region::RegionSet set = region::formTreegions(fn);
    ASSERT_EQ(set.regions().size(), 1u);
    const region::Region &r = set.regions().front();

    const MachineModel model = MachineModel::custom(4);
    const SchedOptions options;
    uint64_t arena_high_water = 0;
    uint64_t heap_bytes = 0;
    size_t ops = 0;
    // A fresh thread starts with an empty scheduling arena and rename
    // storage, so the high water read below is this test's alone.
    std::thread worker([&] {
        // Warm-up at the function's original size: the arena's first
        // block and the rename slots for x and y are grown here.
        scheduleLoweredRegion(fn, lowerRegion(fn, r, live), model,
                              options);
        for (int i = 0; i < 1000000; ++i)
            fn.freshGpr();
        for (int i = 0; i < 100000; ++i)
            fn.freshPred();
        tg_test::AllocGuard guard;
        LoweredRegion lowered = lowerRegion(fn, r, live);
        ops = scheduleLoweredRegion(fn, std::move(lowered), model,
                                    options)
                  .ops.size();
        heap_bytes = guard.bytes();
        arena_high_water = schedArenaHighWaterBytes();
    });
    worker.join();

    EXPECT_EQ(ops, 3u);
    EXPECT_LT(arena_high_water, kBound)
        << "scheduling arena grew with the function's register count";
    EXPECT_LT(heap_bytes, kBound)
        << "lowering or scheduling allocated by register count";
}

/**
 * The tracing observers are compiled into every binary; the claim
 * that keeps them free is that DISABLED observers cost nothing on
 * the hot path — no clock reads and, pinned here, no allocation.
 * Inert SpanScope construction (child-only and root), ambient-context
 * reads and flight-recorder notes must all run heap-free, or always-on
 * instrumentation would break the arena steady-state property above.
 */
TEST(AllocRegression, DisabledTracingObserversAreHeapFree)
{
    auto &spans = support::SpanCollector::instance();
    spans.setEnabled(false);
    ASSERT_FALSE(spans.enabled());

    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (int i = 0; i < 256; ++i) {
            support::SpanScope child("cache-lookup");
            support::SpanScope root(
                "request", support::SpanScope::Root::IfEnabled);
            child.arg("hit", int64_t{1});  // inert: must not buffer
            support::noteSpan(support::currentSpanContext(),
                              "queue-wait", 0, 1);
            support::flightrec::note("probe", "steady-state",
                                     static_cast<uint64_t>(i));
        }
        allocations = guard.allocations();
    }
    EXPECT_EQ(allocations, 0u)
        << "disabled tracing observers allocated";
}

TEST(AllocRegression, CopyingAnOpIsHeapFree)
{
    const ir::Operand r1 = ir::Operand::makeReg(ir::gpr(1));
    const ir::Operand five = ir::Operand::makeImm(5);
    std::vector<ir::Op> ops = {
        ir::makeBinary(ir::Opcode::ADD, ir::gpr(2), r1, five),
        ir::makeStore(ir::gpr(0), 4, r1),
        ir::makeCmpp(ir::CmpKind::LT, ir::pred(0), ir::pred(1), r1, five),
        ir::makePbr(ir::btr(0), 3),
        ir::makeBrct(ir::pred(0), 1, 2),
        ir::makeRet(r1),
    };
    ops[1].guard = ir::pred(0);
    std::vector<ir::Op> copies(ops.size());
    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (size_t i = 0; i < ops.size(); ++i) {
            ir::Op copy(ops[i]);
            copies[i] = copy;
        }
        allocations = guard.allocations();
    }
    EXPECT_EQ(allocations, 0u) << "copying an op allocated";
    for (size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(copies[i].str(), ops[i].str());
}

/** @p fn with every block's body (all but the terminator) twice. */
ir::Function
withDoubledBodies(const ir::Function &fn)
{
    ir::Function doubled = fn.clone();
    doubled.forEachBlockMut([&](ir::BasicBlock &b) {
        std::vector<ir::Op> ops;
        for (int pass = 0; pass < 2; ++pass) {
            for (size_t i = 0; i + 1 < b.ops().size(); ++i) {
                ops.push_back(b.ops()[i]);
                if (pass)
                    ops.back().id = doubled.freshOpId();
            }
        }
        ops.push_back(b.ops().back());
        b.ops() = std::move(ops);
    });
    return doubled;
}

/** Heap allocations made by @p f. */
template <typename F>
uint64_t
allocationsOf(F &&f)
{
    tg_test::AllocGuard guard;
    f();
    return guard.allocations();
}

/** Allocations lowering every region of a clone of @p fn makes. */
uint64_t
loweringAllocations(const ir::Function &fn, bool hyper,
                    size_t *regions)
{
    ir::Function work = fn.clone();
    const region::RegionSet set = hyper ? region::formHyperblocks(work)
                                        : region::formTreegions(work);
    const analysis::Liveness live(work);
    *regions = set.regions().size();
    return allocationsOf([&] {
        for (const region::Region &r : set.regions()) {
            const LoweredRegion lowered =
                hyper ? lowerHyperblock(work, r, live)
                      : lowerRegion(work, r, live);
        }
    });
}

/**
 * No allocation count grows with the op count: cloning a function and
 * lowering its treegions or hyperblocks allocate as often on the
 * function as on a copy with every block body doubled.
 */
TEST(AllocRegression, CloneAndLoweringAllocationsIgnoreOpCount)
{
    workloads::GenParams p;
    p.seed = 7;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);
    const ir::Function doubled = withDoubledBodies(fn);
    ASSERT_GT(doubled.totalOps(), fn.totalOps() * 3 / 2);

    EXPECT_EQ(allocationsOf([&] { fn.clone(); }),
              allocationsOf([&] { doubled.clone(); }))
        << "Function::clone allocates per op";

    for (const bool hyper : {false, true}) {
        size_t regions = 0, doubled_regions = 0;
        // Warm-up: grows the thread's rename storage (slots and undo
        // journal) to its high water.
        loweringAllocations(doubled, hyper, &regions);
        const uint64_t base = loweringAllocations(fn, hyper, &regions);
        const uint64_t twice =
            loweringAllocations(doubled, hyper, &doubled_regions);
        ASSERT_EQ(regions, doubled_regions);
        ASSERT_GT(regions, 1u);
        EXPECT_EQ(base, twice)
            << (hyper ? "lowerHyperblock" : "lowerRegion")
            << " allocates per op";
    }
}

/**
 * The cold request's passes outside the compile pipeline allocate per
 * function, block or region, never per op: the IR verifier, the
 * profiler and the schedule verifier allocate as often on a function
 * as on a copy with every block body doubled, and so does parsing the
 * copy's text, whose blocks are sized before their ops are read.
 */
TEST(AllocRegression, ColdPathPassesIgnoreOpCount)
{
    workloads::GenParams p;
    p.seed = 11;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);
    ir::Function doubled = withDoubledBodies(fn);
    ASSERT_GT(doubled.totalOps(), fn.totalOps() * 3 / 2);

    const auto verify = [](ir::Function &f) {
        return allocationsOf([&] {
            EXPECT_TRUE(
                ir::verifyFunction(f, ir::VerifyLevel::Schedulable).empty());
        });
    };
    EXPECT_EQ(verify(fn), verify(doubled)) << "verifyFunction";

    const auto profile = [&](ir::Function &f) {
        return allocationsOf(
            [&] { workloads::profileFunction(f, p.mem_words); });
    };
    EXPECT_EQ(profile(fn), profile(doubled)) << "profileFunction";

    PipelineOptions options;
    options.scheme = RegionScheme::TreegionTailDup;
    options.model = MachineModel::custom(4);
    const ClonedPipelineRun run = runPipelineOnClone(fn, options);
    const ClonedPipelineRun run2 = runPipelineOnClone(doubled, options);
    const auto verifySchedule = [](const FunctionSchedule &s) {
        return allocationsOf(
            [&] { EXPECT_TRUE(verifyFunctionSchedule(s, 4).empty()); });
    };
    EXPECT_EQ(verifySchedule(run.result.schedule),
              verifySchedule(run2.result.schedule))
        << "verifyFunctionSchedule";

    const auto parse = [](const ir::Function &f) {
        std::ostringstream text;
        text << "module m mem=1024\n";
        ir::printFunction(text, f);
        const std::string source = text.str();
        return allocationsOf(
            [&] { EXPECT_NE(ir::parseModule(source, nullptr), nullptr); });
    };
    EXPECT_EQ(parse(fn), parse(doubled)) << "parseModule";
}

/**
 * A loop whose trip count is mem[0]; each iteration loads, adds and
 * stores, and re-enters its region through a back edge.
 */
constexpr const char *kCountedLoop = R"(module counted mem=512
func @main entry=bb0 gprs=8 preds=2 {
  block bb0 {
    r0 = MOVI 0
    r1 = LD [r0 + 0]
    r2 = MOVI 0
    r3 = MOVI 0
    BRU bb1
  }
  block bb1 {
    p0 = CMPP.LT r2, r1
    BRCT p0, bb2, bb3
  }
  block bb2 {
    r4 = LD [r2 + 8]
    r3 = ADD r3, r4
    ST [r0 + 1], r3
    r2 = ADD r2, 1
    BRU bb1
  }
  block bb3 {
    RET r3
  }
}
)";

/**
 * Neither simulator allocates per cycle, per op or per region
 * transition: running the loop 10x as many times allocates no more,
 * except that the region trace the result returns grows by doubling
 * (std::bit_width(n) allocations for n entries).
 */
TEST(AllocRegression, SimulationAllocationsIgnoreRunLength)
{
    std::string error;
    auto mod = ir::parseModule(kCountedLoop, &error);
    ASSERT_TRUE(mod) << error;
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, mod->memWords());
    PipelineOptions options;
    options.scheme = RegionScheme::Treegion;
    options.model = MachineModel::custom(4);
    ClonedPipelineRun run = runPipelineOnClone(fn, options);
    const FunctionSchedule &schedule = run.result.schedule;

    auto input = [](int64_t trips) {
        std::vector<int64_t> memory(512, 3);
        memory[0] = trips;
        return memory;
    };
    const std::vector<int64_t> short_run = input(20), long_run = input(200);

    // Allocations of the short and the long run of @p simulate, and
    // the trace growth the long one may add.
    auto expectFlat = [&](const std::string &engine, auto simulate) {
        vliw::VliwResult a, b;
        const uint64_t base = allocationsOf([&] { a = simulate(short_run); });
        const uint64_t more = allocationsOf([&] { b = simulate(long_run); });
        ASSERT_TRUE(a.completed && b.completed) << engine;
        ASSERT_GE(b.trace.size(), 9 * a.trace.size()) << engine;
        EXPECT_LE(more, base + std::bit_width(b.trace.size()) -
                            std::bit_width(a.trace.size()))
            << engine << " allocates per cycle, op or region";
    };
    expectFlat("vliw", [&](const std::vector<int64_t> &memory) {
        return vliw::runScheduled(run.fn, schedule, memory);
    });
    for (const ooo::OooConfig &config : ooo::oooConfigs()) {
        expectFlat(config.name, [&](const std::vector<int64_t> &memory) {
            return ooo::runOutOfOrder(run.fn, schedule, memory, config)
                .arch;
        });
    }
}

TEST(AllocRegression, ArenaMetricsReported)
{
    workloads::GenParams p;
    p.seed = 5;
    p.top_units = 4;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);

    const MachineModel model = MachineModel::custom(4);
    const SchedOptions options;
    std::vector<LoweredRegion> jobs = lowerWorkload(fn);
    ASSERT_FALSE(jobs.empty());

    support::MetricsRegistry before;
    reportArenaMetrics(before);
    const uint64_t jobs_before = before.counter("sched.arena.jobs");

    size_t probes = 0;
    for (LoweredRegion &job : jobs) {
        runPlacementProbe(fn, std::move(job), model, options);
        ++probes;
    }

    support::MetricsRegistry metrics;
    reportArenaMetrics(metrics);
    EXPECT_EQ(metrics.counter("sched.arena.jobs"),
              jobs_before + probes);
    // The gauges aggregate maxima over every thread that ever
    // scheduled; after at least one job both are nonzero and the
    // capacity covers the high-water mark.
    const uint64_t high = metrics.counter("sched.arena.high_water_bytes");
    const uint64_t cap = metrics.counter("sched.arena.capacity_bytes");
    EXPECT_GT(high, 0u);
    EXPECT_GE(cap, high);
}

} // namespace
} // namespace treegion::sched
