/**
 * @file
 * treegionc — command-line driver for the treegion compiler.
 *
 * Reads a module in the textual IR format (a file path, or stdin
 * with "-"), optionally profiles it on seeded synthetic inputs, runs
 * the region-scheduling pipeline, and prints what you ask for.
 *
 * Usage:
 *   treegionc [options] <input.tir | ->
 *
 * Options:
 *   --scheme bb|slr|sb|tree|tree-td   region formation (default tree)
 *   --heuristic h|ec|gw|wc            priority heuristic (default gw)
 *   --width N                         issue width (default 4)
 *   --expansion X --paths N --merge N tail-duplication limits
 *   --profile-seed S --profile-runs N training profile (default 42/20)
 *   --no-profile                      keep weights from the input file
 *   --print-ir                        echo the parsed (profiled) IR
 *   --print-schedule                  print every region schedule
 *   --print-dot                       dot graph of CFG + regions
 *   --run SEED                        simulate on a seeded input
 *   --sim-backend vliw|ooo            machine model for --run: the
 *                                     in-order VLIW simulator
 *                                     (default) or the out-of-order
 *                                     Tomasulo/ROB backend, whose
 *                                     outcome must match the
 *                                     in-order run's
 *   --ooo-config NAME                 OoO configuration for
 *                                     --sim-backend ooo: "ooo-small"
 *                                     (default) or "ooo-wide"
 *   --stats                           region + scheduling statistics
 *   --remarks FILE                    write decision remarks as JSON
 *                                     lines ("-" = stdout); works in
 *                                     single and batch mode
 *
 * Batch compilation (on a FIFO thread pool; -j 1 is one worker):
 *   -j N | --jobs N      worker threads (default 1; 0 = all cores)
 *   --mem-budget-mb N    admit jobs through a peak-memory budget of
 *                        N MiB: a job starts only when its projected
 *                        peak (sched/mem_estimate.h) fits next to
 *                        the jobs already running, largest first; an
 *                        oversized job runs solo (default 0 = off)
 *   --all-functions      compile every function in the module
 *   --sweep              compile every scheme x heuristic config
 *   --trace-json FILE    record a span per pipeline stage and write
 *                        them to FILE as Chrome trace events (load
 *                        in chrome://tracing or perfetto)
 *   --flight-rec FILE    crash flight recorder: dump each thread's
 *                        ring of recent events (one "job" per
 *                        compile, naming function, scheme and
 *                        heuristic) to FILE as JSONL on TG_PANIC or
 *                        a fatal signal
 *
 * Batch results are printed in deterministic input order — function
 * order x configuration order — whatever the thread count.
 *
 * To compile on a running treegiond instead, use treegion-client
 * with the same configuration in encodePipelineOptions form
 * (--options "scheme=tree heuristic=gw width=4").
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "ooo/ooo_sim.h"
#include "region/graphviz.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/spans.h"
#include "support/string_utils.h"
#include "support/remarks.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"

using namespace treegion;

namespace {

struct CliOptions
{
    std::string input;
    sched::PipelineOptions pipeline;
    bool do_profile = true;
    uint64_t profile_seed = 42;
    int profile_runs = 20;
    bool print_ir = false;
    bool print_schedule = false;
    bool print_dot = false;
    bool stats = false;
    bool run = false;
    uint64_t run_seed = 1;
    bool run_ooo = false;             ///< --sim-backend ooo
    ooo::OooConfig ooo_config;        ///< --ooo-config
    size_t jobs = 1;
    uint64_t mem_budget_bytes = 0;
    bool all_functions = false;
    bool sweep = false;
    std::string trace_json;
    std::string remarks_path;
    std::string flightrec_path;
};

/**
 * "2.54x", or "n/a" when @p estimate is 0: a profile with all-zero
 * weights estimates 0 cycles for every scheme, and 0/0 is no speedup.
 */
std::string
speedupText(double baseline, double estimate)
{
    return estimate > 0.0
               ? support::strprintf("%.2fx", baseline / estimate)
               : "n/a";
}

/** Write @p jsonl to @p path ("-" = stdout). @return false on error. */
bool
writeRemarks(const std::string &path, const std::string &jsonl)
{
    if (path == "-") {
        std::fputs(jsonl.c_str(), stdout);
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write remarks to %s\n",
                     path.c_str());
        return false;
    }
    out << jsonl;
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] <input.tir | ->\n"
                 "see the file header or README for options\n",
                 argv0);
    return 2;
}

/** The scheme x heuristic grid the paper's evaluation sweeps. */
std::vector<sched::PipelineOptions>
sweepConfigs(const sched::PipelineOptions &base)
{
    std::vector<sched::PipelineOptions> configs;
    for (const auto scheme : sched::kAllRegionSchemes) {
        for (const auto heuristic : sched::kAllHeuristics) {
            sched::PipelineOptions options = base;
            options.scheme = scheme;
            options.sched.heuristic = heuristic;
            configs.push_back(options);
        }
    }
    return configs;
}

/**
 * Compile a batch of (function x configuration) jobs across the
 * requested number of workers and print one summary line per job in
 * input order. @return the number of jobs whose schedule failed
 * verification.
 */
int
runBatch(const std::vector<ir::Function *> &fns, const CliOptions &cli)
{
    // Per-function baselines for the speedup column
    // (estimateBaselineTime is const-safe, so the batch functions
    // stay pristine for compilation).
    std::vector<double> baselines;
    for (const ir::Function *fn : fns)
        baselines.push_back(sched::estimateBaselineTime(*fn));

    const std::vector<sched::PipelineOptions> configs =
        cli.sweep ? sweepConfigs(cli.pipeline)
                  : std::vector<sched::PipelineOptions>{cli.pipeline};

    std::vector<sched::PipelineJob> batch;
    for (const ir::Function *fn : fns) {
        for (const auto &config : configs) {
            sched::PipelineJob job;
            job.fn = fn;
            job.options = config;
            job.label = fn->name() + "/" +
                        sched::regionSchemeName(config.scheme) + "/" +
                        sched::heuristicName(config.sched.heuristic);
            job.collect_remarks = !cli.remarks_path.empty();
            batch.push_back(std::move(job));
        }
    }
    std::fprintf(stderr, "batch: %zu jobs (%zu functions x %zu "
                 "configs) on %zu thread(s)\n",
                 batch.size(), fns.size(), configs.size(),
                 cli.jobs == 0 ? support::ThreadPool::hardwareThreads()
                               : cli.jobs);

    // Results are streamed through a sink and reduced to their
    // formatted report lines on the spot, so the driver retains a
    // few strings per job instead of every schedule and function
    // clone — under --mem-budget-mb the batch's resident peak is
    // otherwise dominated by retained results the admission gate
    // cannot govern. Output stays in input order (and bit-identical
    // to the retained path) because everything is re-emitted from
    // the per-index buffers below.
    std::vector<std::string> report_lines(batch.size());
    std::vector<std::string> verify_lines(batch.size());
    std::vector<std::string> remark_chunks(batch.size());
    std::vector<char> verify_failed(batch.size(), 0);
    const bool want_remarks = !cli.remarks_path.empty();

    // The sink runs on the pool's workers: carry this thread's trace
    // context over so each job's "verify" span lands in the trace.
    const support::SpanContext trace = support::currentSpanContext();
    sched::ParallelRunOptions run;
    run.num_threads = cli.jobs;
    run.mem_budget_bytes = cli.mem_budget_bytes;
    run.sink = [&](sched::PipelineJobResult &&jr) {
        const support::SpanContextScope in_trace(trace);
        const size_t i = jr.job_index;
        const auto problems = sched::verifyFunctionSchedule(
            jr.result.schedule, batch[i].options.model.issue_width);
        for (const auto &p : problems) {
            verify_lines[i] +=
                jr.label + ": schedule verifier: " + p + "\n";
        }
        verify_failed[i] = problems.empty() ? 0 : 1;

        const double baseline = baselines[i / configs.size()];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%-28s %4zu regions  %10.0f cycles  "
                      "speedup %6s%s\n",
                      jr.label.c_str(),
                      jr.result.schedule.regions.size(),
                      jr.result.estimated_time,
                      speedupText(baseline, jr.result.estimated_time)
                          .c_str(),
                      problems.empty() ? "" : "  [VERIFY FAILED]");
        report_lines[i] = line;
        if (cli.stats) {
            std::snprintf(
                line, sizeof line,
                "    expansion %.2fx; renamed %zu, copies "
                "%zu, speculated %zu, elided %zu; compile "
                "%.2f ms\n",
                jr.result.code_expansion,
                jr.result.total_sched_stats.renamed_defs,
                jr.result.total_sched_stats.exit_copies,
                jr.result.total_sched_stats.speculated_ops,
                jr.result.total_sched_stats.elided_ops,
                jr.compile_ms);
            report_lines[i] += line;
        }
        if (want_remarks)
            remark_chunks[i] = jr.remarks.toJsonLines();
    };
    sched::runPipelineParallel(batch, run);

    int failures = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        std::fputs(verify_lines[i].c_str(), stderr);
        failures += verify_failed[i] ? 1 : 0;
        std::fputs(report_lines[i].c_str(), stdout);
    }

    if (want_remarks) {
        // Per-job streams concatenated in input order: bit-identical
        // for any -j.
        std::string jsonl;
        for (const std::string &chunk : remark_chunks)
            jsonl += chunk;
        if (!writeRemarks(cli.remarks_path, jsonl))
            ++failures;
        else if (cli.remarks_path != "-")
            std::fprintf(stderr, "remarks written to %s\n",
                         cli.remarks_path.c_str());
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.pipeline.scheme = sched::RegionScheme::Treegion;
    cli.pipeline.model = sched::MachineModel::wide4U();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scheme") {
            if (!sched::parseRegionScheme(next(),
                                          cli.pipeline.scheme))
                return usage(argv[0]);
        } else if (arg == "--heuristic") {
            if (!sched::parseHeuristicName(
                    next(), cli.pipeline.sched.heuristic))
                return usage(argv[0]);
        } else if (arg == "--width") {
            cli.pipeline.model = sched::MachineModel::custom(
                std::atoi(next()));
        } else if (arg == "--expansion") {
            cli.pipeline.tail_dup.expansion_limit = std::atof(next());
        } else if (arg == "--paths") {
            cli.pipeline.tail_dup.path_limit =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--merge") {
            cli.pipeline.tail_dup.merge_limit =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--profile-seed") {
            cli.profile_seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--profile-runs") {
            cli.profile_runs = std::atoi(next());
        } else if (arg == "--no-profile") {
            cli.do_profile = false;
        } else if (arg == "--print-ir") {
            cli.print_ir = true;
        } else if (arg == "--print-schedule") {
            cli.print_schedule = true;
        } else if (arg == "--print-dot") {
            cli.print_dot = true;
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--run") {
            cli.run = true;
            cli.run_seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sim-backend") {
            const std::string backend = next();
            if (backend == "ooo") {
                cli.run_ooo = true;
            } else if (backend != "vliw") {
                std::fprintf(stderr,
                             "--sim-backend expects vliw or ooo, "
                             "got %s\n", backend.c_str());
                return 2;
            }
        } else if (arg == "--ooo-config") {
            const std::string name = next();
            if (!ooo::parseOooConfig(name, cli.ooo_config)) {
                std::fprintf(stderr, "unknown --ooo-config %s "
                             "(try ooo-small or ooo-wide)\n",
                             name.c_str());
                return 2;
            }
        } else if (arg == "-j" || arg == "--jobs") {
            const long long jobs = std::atoll(next());
            if (jobs < 0 || jobs > 1024) {
                std::fprintf(stderr,
                             "-j expects 0..1024 (0 = all cores), "
                             "got %lld\n", jobs);
                return 2;
            }
            cli.jobs = static_cast<size_t>(jobs);
        } else if (arg == "--mem-budget-mb") {
            cli.mem_budget_bytes =
                static_cast<uint64_t>(std::atoll(next())) << 20;
        } else if (arg == "--all-functions") {
            cli.all_functions = true;
        } else if (arg == "--sweep") {
            cli.sweep = true;
        } else if (arg == "--trace-json") {
            cli.trace_json = next();
        } else if (arg == "--remarks") {
            cli.remarks_path = next();
        } else if (arg == "--flight-rec") {
            cli.flightrec_path = next();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        } else if (cli.input.empty()) {
            cli.input = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (cli.input.empty())
        return usage(argv[0]);

    if (!cli.flightrec_path.empty()) {
        support::flightrec::setDumpPath(cli.flightrec_path.c_str());
        support::flightrec::installCrashHandlers();
        support::setPanicHook(&support::flightrec::dumpConfigured);
    }

    // ---- Read and parse.
    std::string source;
    if (cli.input == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        source = buffer.str();
    } else {
        std::ifstream file(cli.input);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         cli.input.c_str());
            return 1;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        source = buffer.str();
    }
    // A local trace is the span buffer rendered for Chrome: every
    // stage scope below this root (and each pool worker's "job" root)
    // records one span.
    std::optional<support::SpanScope> root;
    if (!cli.trace_json.empty()) {
        auto &spans = support::SpanCollector::instance();
        spans.setService("treegionc");
        spans.configure(1.0);
        root.emplace("treegionc", support::SpanScope::Root::IfEnabled);
    }

    std::string error;
    std::unique_ptr<ir::Module> mod;
    {
        support::SpanScope span("parse");
        mod = ir::parseModule(source, &error);
    }
    if (!mod) {
        std::fprintf(stderr, "parse error: %s\n", error.c_str());
        return 1;
    }
    if ((cli.do_profile || cli.run) &&
        mod->memWords() < workloads::kMinInputMemWords) {
        std::fprintf(stderr,
                     "mem=%zu is too small to %s: it needs mem=%zu or "
                     "more\n",
                     mod->memWords(), cli.do_profile ? "profile" : "run",
                     workloads::kMinInputMemWords);
        return 1;
    }

    // ---- Select, verify and profile the functions to compile.
    std::vector<ir::Function *> fns;
    if (cli.all_functions) {
        for (const auto &fn : mod->functions())
            fns.push_back(fn.get());
    } else {
        fns.push_back(mod->functions().front().get());
    }
    for (ir::Function *fn : fns) {
        const auto problems =
            ir::verifyFunction(*fn, ir::VerifyLevel::Schedulable);
        if (!problems.empty()) {
            for (const auto &p : problems)
                std::fprintf(stderr, "verifier: %s: %s\n",
                             fn->name().c_str(), p.c_str());
            return 1;
        }
        if (cli.do_profile) {
            support::SpanScope span("profile");
            span.arg("fn", fn->name());
            workloads::ProfileOptions profile;
            profile.input_seed = cli.profile_seed;
            profile.runs = cli.profile_runs;
            const auto summary = workloads::profileFunction(
                *fn, mod->memWords(), profile);
            std::fprintf(stderr,
                         "%s: profiled %d runs (%llu dynamic ops)\n",
                         fn->name().c_str(), summary.completed_runs,
                         static_cast<unsigned long long>(
                             summary.total_ops));
        }
    }

    auto finish = [&](int code) {
        if (!cli.trace_json.empty()) {
            root.reset();
            auto &spans = support::SpanCollector::instance();
            if (support::writeChromeTraceFile(cli.trace_json,
                                              spans.snapshot())) {
                std::fprintf(stderr,
                             "trace written to %s (%llu spans dropped "
                             "past the buffer cap)\n",
                             cli.trace_json.c_str(),
                             static_cast<unsigned long long>(
                                 spans.dropped()));
            } else {
                std::fprintf(stderr, "cannot write trace to %s\n",
                             cli.trace_json.c_str());
                code = code ? code : 1;
            }
        }
        return code;
    };

    // ---- Batch mode: functions x configurations over the pool.
    if (cli.all_functions || cli.sweep)
        return finish(runBatch(fns, cli) == 0 ? 0 : 1);

    // ---- Single-function mode.
    ir::Function &fn = *fns.front();
    if (cli.print_ir)
        ir::printFunction(std::cout, fn);

    const double baseline = sched::estimateBaselineTime(fn);
    // The scope covers only the main compilation, not the baseline
    // estimate above, so the stream describes this run alone. fn stays
    // the original; run.fn is what the schedule was built from.
    support::RemarkStream remarks;
    sched::ClonedPipelineRun run = [&] {
        support::RemarkScope scope(
            cli.remarks_path.empty() ? nullptr : &remarks);
        return sched::runPipelineOnClone(fn, cli.pipeline);
    }();
    const sched::PipelineResult &result = run.result;
    if (!cli.remarks_path.empty()) {
        if (!writeRemarks(cli.remarks_path, remarks.toJsonLines()))
            return finish(1);
        if (cli.remarks_path != "-")
            std::fprintf(stderr, "%zu remarks written to %s\n",
                         remarks.size(), cli.remarks_path.c_str());
    }
    const auto sched_problems = sched::verifyFunctionSchedule(
        result.schedule, cli.pipeline.model.issue_width);
    for (const auto &p : sched_problems)
        std::fprintf(stderr, "schedule verifier: %s\n", p.c_str());

    std::fprintf(stderr,
                 "%s/%s on %s: %zu regions, estimate %.0f cycles, "
                 "speedup %s over bb@1U\n",
                 sched::regionSchemeName(cli.pipeline.scheme).c_str(),
                 sched::heuristicName(cli.pipeline.sched.heuristic)
                     .c_str(),
                 cli.pipeline.model.name.c_str(),
                 result.schedule.regions.size(), result.estimated_time,
                 speedupText(baseline, result.estimated_time).c_str());

    if (cli.stats) {
        std::fprintf(stderr,
                     "regions: %zu (avg %.2f blocks, max %zu, avg "
                     "%.2f ops); code expansion %.2fx; renamed %zu "
                     "defs, %zu exit copies, %zu speculated, %zu "
                     "elided; compile %.2f ms\n",
                     result.region_stats.num_regions,
                     result.region_stats.avg_blocks,
                     result.region_stats.max_blocks,
                     result.region_stats.avg_ops,
                     result.code_expansion,
                     result.total_sched_stats.renamed_defs,
                     result.total_sched_stats.exit_copies,
                     result.total_sched_stats.speculated_ops,
                     result.total_sched_stats.elided_ops,
                     run.compile_ms);
    }
    if (cli.print_dot)
        region::writeDot(std::cout, run.fn, result.regions,
                         {false, true, mod->name()});
    if (cli.print_schedule) {
        for (const auto &[root, rs] : result.schedule.regions) {
            std::printf("-- region bb%u (%d cycles)\n%s", root,
                        rs.length,
                        rs.str(cli.pipeline.model.issue_width)
                            .c_str());
        }
    }

    if (cli.run) {
        auto memory = workloads::makeInputMemory(
            mod->memWords(), cli.run_seed, 100);
        const auto report = vliw::checkEquivalence(
            fn, run.fn, result.schedule, memory);
        if (!report.ok) {
            std::fprintf(stderr, "equivalence FAILED: %s\n",
                         report.detail.c_str());
            return finish(1);
        }
        if (cli.run_ooo) {
            const auto ooo_run = ooo::runOutOfOrder(
                run.fn, result.schedule, memory, cli.ooo_config);
            const std::string mismatch =
                vliw::backendMismatch(ooo_run.arch, report.vliw);
            if (!mismatch.empty()) {
                std::fprintf(stderr, "equivalence FAILED: %s: %s\n",
                             cli.ooo_config.name.c_str(),
                             mismatch.c_str());
                return finish(1);
            }
            std::printf(
                "run(seed=%llu, %s): result %lld in %llu cycles "
                "(IPC %.2f, avg window %.1f, %llu rename stalls; "
                "sequential match confirmed)\n",
                static_cast<unsigned long long>(cli.run_seed),
                cli.ooo_config.name.c_str(),
                static_cast<long long>(ooo_run.arch.ret_value),
                static_cast<unsigned long long>(ooo_run.arch.cycles),
                ooo_run.stats.ipc(ooo_run.arch.cycles),
                ooo_run.stats.avgWindowOccupancy(ooo_run.arch.cycles),
                static_cast<unsigned long long>(
                    ooo_run.stats.rename_stalls));
        } else {
            std::printf("run(seed=%llu): result %lld in %llu cycles "
                        "(sequential match confirmed)\n",
                        static_cast<unsigned long long>(cli.run_seed),
                        static_cast<long long>(report.vliw.ret_value),
                        static_cast<unsigned long long>(
                            report.vliw.cycles));
        }
    }
    return finish(sched_problems.empty() ? 0 : 1);
}
