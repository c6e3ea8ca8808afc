/**
 * @file
 * Workload `sweep`: one thread compiles every seeded SPEC proxy under
 * every region scheme at 4U and 8U. Formation, liveness, lowering, DDG
 * build and list scheduling do nearly all the work; the service,
 * profiler and simulators do none.
 */

#include <algorithm>
#include <random>

#include "bench.h"
#include "sched/perf_model.h"
#include "sched/schedule_verifier.h"
#include "vliw/interpreter.h"
#include "vliw/vliw_sim.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace perfbench {

using namespace treegion;

namespace {

constexpr uint64_t kProfileStream = 0x5057;
constexpr uint64_t kInputStream = 0x5149;
constexpr uint64_t kOrderStream = 0x514F;
/**
 * Variants of each of the 8 proxies: 88 programs at 12 options are 1056
 * jobs, the fewest that leave 10 jobs beyond p99_ms.
 */
constexpr int kVariants = 11;

struct Job
{
    size_t program;
    sched::PipelineOptions options;
};

/** What runPipelineOnClone produced for a job (outside the loop). */
struct Expected
{
    double estimated_time = 0.0;
    double code_expansion = 0.0;
};

} // namespace

void
runSweep(const Options &o, Report &report)
{
    std::vector<Program> programs;
    double profile_us = 0.0;
    uint64_t profile_ops = 0;
    const auto setup = [&] {
        programs = seededProxies(o.seed, kVariants);
        profile_us = 0.0;
        profile_ops = 0;
        for (size_t i = 0; i < programs.size(); ++i) {
            workloads::ProfileOptions prof;
            prof.input_seed = deriveSeed(o.seed, kProfileStream, i);
            const auto t0 = Clock::now();
            const workloads::ProfileSummary summary =
                workloads::profileFunction(programs[i].fn(),
                                           programs[i].mod->memWords(),
                                           prof);
            profile_us += msBetween(t0, Clock::now()) * 1000.0;
            profile_ops += summary.total_ops;
        }
    };
    const auto reset = [&] { programs.clear(); };
    const double setup_s = medianSetupSeconds(setupReps(o), setup, reset);

    std::vector<Job> jobs;
    for (size_t p = 0; p < programs.size(); ++p) {
        for (sched::RegionScheme scheme : allSchemes()) {
            for (int width : {4, 8})
                jobs.push_back({p, pipelineOptions(scheme, width)});
        }
    }

    // Output checks and expected results, outside the timed loop (this
    // pass also warms the scheduling arena): every schedule verifies,
    // and the VLIW result equals the sequential interpreter's.
    std::vector<Expected> expected(jobs.size());
    std::vector<double> speedups, expansions;
    std::vector<double> baseline(programs.size());
    for (size_t p = 0; p < programs.size(); ++p)
        baseline[p] = sched::estimateBaselineTime(programs[p].fn());
    for (size_t j = 0; j < jobs.size(); ++j) {
        Program &prog = programs[jobs[j].program];
        sched::ClonedPipelineRun run =
            sched::runPipelineOnClone(prog.fn(), jobs[j].options);
        const std::string label =
            prog.name + "/" + sched::encodePipelineOptions(jobs[j].options);
        report.check(sched::verifyFunctionSchedule(
                         run.result.schedule,
                         jobs[j].options.model.issue_width)
                         .empty(),
                     "schedule verifier: " + label);
        const auto input = workloads::makeInputMemory(
            prog.mod->memWords(),
            deriveSeed(o.seed, kInputStream, jobs[j].program), 100);
        const vliw::ExecResult seq = vliw::runSequential(prog.fn(), input);
        const vliw::VliwResult sim =
            vliw::runScheduled(run.fn, run.result.schedule, input);
        report.check(seq.completed && sim.completed &&
                         seq.ret_value == sim.ret_value &&
                         seq.memory == sim.memory,
                     "VLIW result differs from the interpreter: " + label);
        expected[j] = {run.result.estimated_time, run.result.code_expansion};
        speedups.push_back(report.ratio(baseline[jobs[j].program],
                                        run.result.estimated_time,
                                        "speedup of " + label));
        expansions.push_back(run.result.code_expansion);
    }

    Tracer tracer;
    tracer.enabled = o.trace;
    registerReplayNames();
    const uint32_t compile_span = spanName("sweep.compile");
    std::map<sched::RegionScheme, uint64_t> traced_compiles;
    bool replay_matches = true;

    std::vector<Op> ops;
    OverheadMeter overhead;
    std::vector<size_t> order(jobs.size());
    const auto start = Clock::now();
    const auto deadline = after(start, o.seconds);
    const Slicer slicer(start, o.trace);
    auto last = start;
    for (uint64_t round = 0; last < deadline; ++round) {
        for (size_t j = 0; j < order.size(); ++j)
            order[j] = j;
        std::shuffle(order.begin(), order.end(),
                     std::mt19937_64(deriveSeed(o.seed, kOrderStream, round)));
        for (size_t j : order) {
            const Job &job = jobs[j];
            const ir::Function &fn = programs[job.program].fn();
            const auto t0 = Clock::now();
            const bool traced = slicer.tracedAt(t0);
            Expected got;
            if (traced) {
                Scope span(tracer, compile_span);
                const ReplayResult r = replayPipeline(fn, job.options, tracer);
                got = {r.estimated_time, r.code_expansion};
            } else {
                const sched::ClonedPipelineRun run =
                    sched::runPipelineOnClone(fn, job.options);
                got = {run.result.estimated_time, run.result.code_expansion};
            }
            last = Clock::now();
            const double ms = msBetween(t0, last);
            ops.push_back({j, ms});
            overhead.add(traced, ms);
            const bool ok = got.estimated_time == expected[j].estimated_time &&
                            got.code_expansion == expected[j].code_expansion;
            if (traced) {
                ++traced_compiles[job.options.scheme];
                replay_matches = replay_matches && ok;
            }
            report.op(ok);
            if (last >= deadline)
                break;
        }
    }
    report.check(replay_matches,
                 "stage replay differs from runPipelineOnClone");
    report.check(report.failed() == 0,
                 "a compile differs from its first result");

    if (!o.trace) {
        reportBestOf(ops, jobs.size(), 1, speedups, expansions, setup_s,
                     report);
        return;
    }

    reportReplayStages(aggregateSpans({&tracer}), traced_compiles, report);
    std::vector<std::pair<const ir::Function *, sched::PipelineOptions>>
        probe_jobs;
    for (const Job &job : jobs)
        probe_jobs.emplace_back(&programs[job.program].fn(), job.options);
    reportSchemeProbes(probe_jobs, report);
    report.metric("workloads.profile_us", profile_us / programs.size(),
                  "us");
    report.metric("workloads.profile_dyn_ops", profile_ops, "count");
    report.metric("workloads.profile_ns_per_op",
                  report.ratio(profile_us * 1000.0, profile_ops,
                               "profiled ops"),
                  "ns");
    report.metric("trace.overhead_share", overhead.share(report), "ratio");
    report.check(writeSpans(o.work_dir + "/spans-sweep.jsonl", {&tracer}),
                 "writing spans");
}

} // namespace perfbench
