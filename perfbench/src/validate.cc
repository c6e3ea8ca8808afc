/**
 * @file
 * Workload `validate`: one thread runs compiled schedules on seeded
 * input images, on the VLIW simulator or on an out-of-order
 * configuration, and compares each architectural result with the
 * sequential interpreter's. Only here do the `vliw` and `ooo` layers do
 * the work; the interpreter runs in reference (trace) mode.
 */

#include <algorithm>
#include <random>

#include "bench.h"
#include "ooo/ooo_sim.h"
#include "sched/perf_model.h"
#include "sched/schedule_verifier.h"
#include "vliw/interpreter.h"
#include "vliw/vliw_sim.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace perfbench {

using namespace treegion;

namespace {

constexpr uint64_t kProfileStream = 0x5650;
constexpr uint64_t kInputStream = 0x5649;
constexpr uint64_t kOrderStream = 0x564F;
/**
 * Variants of each of the 8 proxies: 64 programs at 6 schemes on 3
 * engines are 1152 cells, more than the 1000 that leave 10 cells beyond
 * p99_ms, and enough programs that the seed barely moves the figures.
 */
constexpr int kVariants = 8;

/** One schedule compiled in set-up. */
struct Compiled
{
    size_t program;
    sched::ClonedPipelineRun run;
};

/** Engine 0 is the VLIW simulator, the others out-of-order configs. */
const std::vector<ooo::OooConfig> &
oooEngines()
{
    static const std::vector<ooo::OooConfig> configs = {ooo::oooSmall(),
                                                        ooo::oooWide()};
    return configs;
}

/** Architectural outcome of an engine run. */
bool
sameResult(const vliw::ExecResult &seq, const vliw::VliwResult &sim)
{
    return seq.completed && sim.completed &&
           seq.ret_value == sim.ret_value && seq.memory == sim.memory;
}

} // namespace

void
runValidate(const Options &o, Report &report)
{
    std::vector<Program> programs;
    std::vector<Compiled> compiled;
    std::vector<std::vector<int64_t>> images;  // one per program
    const auto setup = [&] {
        programs = seededProxies(o.seed, kVariants);
        for (size_t p = 0; p < programs.size(); ++p) {
            workloads::ProfileOptions prof;
            prof.input_seed = deriveSeed(o.seed, kProfileStream, p);
            workloads::profileFunction(programs[p].fn(),
                                       programs[p].mod->memWords(), prof);
            for (sched::RegionScheme scheme : allSchemes()) {
                compiled.push_back(
                    {p, sched::runPipelineOnClone(programs[p].fn(),
                                                  pipelineOptions(scheme, 4))});
            }
            images.push_back(workloads::makeInputMemory(
                programs[p].mod->memWords(),
                deriveSeed(o.seed, kInputStream, p), 100));
        }
    };
    const auto reset = [&] {
        compiled.clear();
        images.clear();
        programs.clear();
    };
    const double setup_s = medianSetupSeconds(setupReps(o), setup, reset);

    std::vector<double> speedups, expansions;
    for (const Compiled &c : compiled) {
        report.check(sched::verifyFunctionSchedule(c.run.result.schedule, 4)
                         .empty(),
                     "schedule verifier: " + programs[c.program].name);
        speedups.push_back(report.ratio(
            sched::estimateBaselineTime(programs[c.program].fn()),
            c.run.result.estimated_time, "speedup"));
        expansions.push_back(c.run.result.code_expansion);
    }

    const size_t engines = 1 + oooEngines().size();
    Tracer tracer;
    tracer.enabled = o.trace;
    const uint32_t interp_span = spanName("vliw.interp");
    const uint32_t vliw_span = spanName("vliw.sim");
    std::vector<uint32_t> ooo_spans;
    for (const ooo::OooConfig &cfg : oooEngines())
        ooo_spans.push_back(spanName("ooo.sim." + cfg.name));
    uint64_t traced_vliw_cycles = 0;

    // One cell: run schedule c on its program's image with engine e, then
    // compare with the sequential interpreter on the same image.
    auto cell = [&](size_t c, size_t e, vliw::VliwResult *out) {
        Compiled &comp = compiled[c];
        const std::vector<int64_t> &input = images[comp.program];
        vliw::ExecResult seq;
        {
            Scope span(tracer, interp_span);
            seq = vliw::runSequential(programs[comp.program].fn(), input);
        }
        if (e == 0) {
            Scope span(tracer, vliw_span);
            *out = vliw::runScheduled(comp.run.fn, comp.run.result.schedule,
                                      input);
        } else {
            Scope span(tracer, ooo_spans[e - 1]);
            *out = ooo::runOutOfOrder(comp.run.fn, comp.run.result.schedule,
                                      input, oooEngines()[e - 1])
                       .arch;
        }
        return sameResult(seq, *out);
    };

    std::vector<Op> ops;
    OverheadMeter overhead;
    std::vector<size_t> order(compiled.size() * engines);
    const auto start = Clock::now();
    const auto deadline = after(start, o.seconds);
    const Slicer slicer(start, o.trace);
    auto last = start;
    for (uint64_t round = 0; last < deadline; ++round) {
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(),
                     std::mt19937_64(deriveSeed(o.seed, kOrderStream, round)));
        for (size_t i : order) {
            const auto t0 = Clock::now();
            const bool traced = slicer.tracedAt(t0);
            tracer.enabled = traced;
            vliw::VliwResult result;
            const bool ok = cell(i / engines, i % engines, &result);
            last = Clock::now();
            const double ms = msBetween(t0, last);
            ops.push_back({i, ms});
            overhead.add(traced, ms);
            if (traced && i % engines == 0)
                traced_vliw_cycles += result.cycles;
            report.op(ok);
            if (last >= deadline)
                break;
        }
    }
    tracer.enabled = false;
    report.check(report.failed() == 0,
                 "a simulated result differs from the interpreter's");

    if (!o.trace) {
        reportBestOf(ops, order.size(), 1, speedups, expansions, setup_s,
                     report);
        return;
    }

    const LayerTimes times = aggregateSpans({&tracer});
    const auto perCall = [&](const std::string &name) {
        const LayerTimes::Entry &e = times.get(name);
        return report.ratio(e.total_us, e.count, name + " calls");
    };
    report.metric("vliw.interp_us", perCall("vliw.interp"), "us");
    report.metric("vliw.sim_us", perCall("vliw.sim"), "us");
    report.metric("vliw.sim_mcycles_per_s",
                  report.ratio(traced_vliw_cycles,
                               times.get("vliw.sim").total_us,
                               "VLIW simulation time"),
                  "Mcycle/s");
    for (const ooo::OooConfig &cfg : oooEngines()) {
        report.metric("ooo.sim_us." + cfg.name,
                      perCall("ooo.sim." + cfg.name), "us");
    }

    // Exact counts over a fixed set: every schedule on its image.
    uint64_t vliw_cycles = 0;
    for (Compiled &c : compiled) {
        vliw_cycles += vliw::runScheduled(c.run.fn, c.run.result.schedule,
                                          images[c.program])
                           .cycles;
    }
    report.metric("vliw.cycles", vliw_cycles, "count");
    for (const ooo::OooConfig &cfg : oooEngines()) {
        uint64_t retired = 0, cycles = 0;
        for (Compiled &c : compiled) {
            const ooo::OooResult r = ooo::runOutOfOrder(
                c.run.fn, c.run.result.schedule, images[c.program], cfg);
            retired += r.stats.retired;
            cycles += r.arch.cycles;
        }
        report.metric("ooo.ipc." + cfg.name,
                      report.ratio(retired, cycles, "OoO cycles"), "ratio");
    }
    report.metric("trace.overhead_share", overhead.share(report), "ratio");
    report.check(writeSpans(o.work_dir + "/spans-validate.jsonl", {&tracer}),
                 "writing spans");
}

} // namespace perfbench
