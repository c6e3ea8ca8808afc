/**
 * @file
 * Max-RSS vs makespan frontier of memory-budgeted batch compilation.
 *
 * The batch is the SPECint95 proxy sweep (every proxy under the
 * memory-hungry schemes). It is compiled once unbudgeted — plain
 * FIFO over the thread pool — to measure the unconstrained
 * peak heap footprint, then again under several --mem-budget style
 * budgets expressed as fractions of that peak. For every point the
 * bench reports the measured peak live-heap growth (the max-RSS
 * proxy: this binary links the tests/alloc_guard.h interposer, so
 * every allocation is accounted), the gate's projected high water,
 * the makespan, and jobs/s.
 *
 * Acceptance (ISSUE 8): at the tightest budget the measured peak
 * must drop >= 30% below unbudgeted FIFO while the makespan inflates
 * <= 15%; the bench exits nonzero otherwise. CI's memsched job runs
 * it with --assert; the perf-smoke gate diffs jobs_per_s per config
 * against the last BENCH_memsched.json entry
 * (treegion-memsched-bench/v1, scripts/perf_compare.py).
 *
 * --calibrate instead compiles every job alone on this thread and
 * prints one CSV row per job: the shape counts (ops, blocks, edges),
 * the thread's scheduling-arena high water so far, the peak live-heap
 * growth over the whole job, and the current sched/mem_estimate.h
 * projection. The estimator's coefficients are fit from (and pinned
 * within 2x of) this sweep.
 *
 * Usage:
 *   throughput_memsched [--repeats N] [--threads N] [--label STR]
 *                       [--json FILE] [--assert] [--calibrate]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "bench_common.h"
#include "sched/mem_estimate.h"
#include "support/memstat.h"
#include "support/string_utils.h"

namespace {

using namespace treegion;

/** The budget fractions of the unbudgeted peak, tightest last. */
const double kBudgetFractions[] = {0.75, 0.50, 0.35};

/** Acceptance bars at the tightest budget. */
constexpr double kMinPeakReduction = 0.30;
constexpr double kMaxMakespanInflation = 0.15;

/** Schemes that dominate compile footprint: expansion + DAG state. */
struct JobConfig
{
    const char *name;
    sched::RegionScheme scheme;
    int width;
};
const JobConfig kJobConfigs[] = {
    {"tree/8U", sched::RegionScheme::Treegion, 8},
    {"tree-td/4U", sched::RegionScheme::TreegionTailDup, 4},
    {"hyper/4U", sched::RegionScheme::Hyperblock, 4},
};

std::vector<sched::PipelineJob>
buildJobs(std::vector<bench::Workload> &workloads)
{
    std::vector<sched::PipelineJob> jobs;
    for (bench::Workload &w : workloads) {
        for (const JobConfig &config : kJobConfigs) {
            sched::PipelineJob job;
            job.fn = &w.fn();
            job.options =
                bench::makeOptions(config.scheme, config.width);
            job.label = w.name + "/" + config.name;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double>(clock::now() - epoch)
        .count();
}

/** One frontier point: a budget (0 = unbudgeted FIFO) measured. */
struct Point
{
    const char *name = "";
    uint64_t budget_bytes = 0;
    uint64_t peak_bytes = 0;       ///< measured live-heap growth
    uint64_t gate_high_water = 0;  ///< projected bytes (0 for FIFO)
    double makespan_s = 0.0;       ///< best of --repeats
    double jobs_per_s = 0.0;
    double checksum = 0.0;         ///< summed estimates (sanity)
};

/**
 * Compile @p jobs under @p budget_bytes (0 = unbudgeted FIFO) and
 * measure the peak heap growth of the whole run. A fresh pool per
 * measurement keeps the per-thread scheduling arenas inside the
 * window — they die with the workers — so every point pays its own
 * arena growth instead of inheriting a previous run's. Results are
 * streamed through a sink and dropped as they complete — the batch
 * driver's own mode of use — so the measured peak is the in-flight
 * compile state the budget actually governs, not the accumulated
 * output of the whole batch.
 */
Point
runPoint(const char *name,
         const std::vector<sched::PipelineJob> &jobs,
         uint64_t budget_bytes, size_t threads, size_t repeats)
{
    Point point;
    point.name = name;
    point.budget_bytes = budget_bytes;
    point.makespan_s = 1e100;
    for (size_t r = 0; r < repeats; ++r) {
        support::MemoryGate gate(budget_bytes);
        const uint64_t start_live = support::memstatResetWindow();
        const double start = nowSeconds();
        {
            support::ThreadPool pool(threads);
            sched::ParallelRunOptions run;
            run.pool = &pool;
            run.gate = &gate;
            double checksum = 0.0;
            run.sink = [&checksum](sched::PipelineJobResult &&jr) {
                checksum += jr.result.estimated_time;
            };
            sched::runPipelineParallel(jobs, run);
            const double wall = nowSeconds() - start;
            point.makespan_s = std::min(point.makespan_s, wall);
            point.checksum = checksum;
        }
        const uint64_t peak = support::memstatWindowPeakBytes();
        const uint64_t growth =
            peak > start_live ? peak - start_live : 0;
        point.peak_bytes = std::max(point.peak_bytes, growth);
        point.gate_high_water =
            std::max(point.gate_high_water, gate.highWaterBytes());
    }
    point.jobs_per_s = point.makespan_s > 0
                           ? static_cast<double>(jobs.size()) /
                                 point.makespan_s
                           : 0.0;
    return point;
}

/**
 * Compile every job alone on this thread and print one CSV row per
 * job: shape counts, the thread's scheduling-arena high water so far,
 * the peak live-heap growth over the whole job (one window, opened
 * before the clone and read after the pipeline returns), and the
 * current estimator projection. The coefficient fit in
 * sched/mem_estimate.cc comes from this output.
 */
int
runCalibration(const std::vector<sched::PipelineJob> &jobs)
{
    std::printf("label,scheme,width,ops,blocks,edges,"
                "arena_high_water,measured_peak,estimated_peak\n");
    for (const sched::PipelineJob &job : jobs) {
        const sched::MemShape shape =
            sched::measureShape(*job.fn);
        const uint64_t estimated =
            sched::estimateJobPeakBytes(job);
        const uint64_t start_live = support::memstatResetWindow();
        const auto run = sched::runPipelineOnClone(*job.fn,
                                                   job.options);
        const uint64_t peak = support::memstatWindowPeakBytes();
        const uint64_t measured =
            peak > start_live ? peak - start_live : 0;
        std::printf(
            "%s,%s,%d,%llu,%llu,%llu,%llu,%llu,%llu\n",
            job.label.c_str(),
            sched::regionSchemeName(job.options.scheme).c_str(),
            job.options.model.issue_width,
            static_cast<unsigned long long>(shape.ops),
            static_cast<unsigned long long>(shape.blocks),
            static_cast<unsigned long long>(shape.edges),
            static_cast<unsigned long long>(
                sched::schedArenaHighWaterBytes()),
            static_cast<unsigned long long>(measured),
            static_cast<unsigned long long>(estimated));
    }
    return 0;
}

/**
 * Render the frontier as one treegion-memsched-bench/v1 entry. The
 * schema is pinned by tests/support_test.cc (BenchSchema.*); entries
 * are appended by hand to BENCH_memsched.json and CI's perf-smoke
 * job gates jobs_per_s against the last one.
 */
std::string
entryJson(const std::string &label, size_t jobs, size_t threads,
          const std::vector<Point> &points)
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"treegion-memsched-bench/v1\",\n";
    out += support::strprintf("  \"label\": \"%s\",\n",
                              label.c_str());
    out += support::strprintf("  \"bench_seed\": %llu,\n",
                              static_cast<unsigned long long>(
                                  bench::benchSeed()));
    out += support::strprintf("  \"jobs\": %zu,\n", jobs);
    out += support::strprintf("  \"threads\": %zu,\n", threads);
    out += "  \"configs\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        out += support::strprintf(
            "    {\"name\": \"%s\", \"budget_bytes\": %llu, "
            "\"peak_bytes\": %llu, \"gate_high_water_bytes\": %llu, "
            "\"makespan_s\": %.6g, \"jobs_per_s\": %.6g}%s\n",
            p.name, static_cast<unsigned long long>(p.budget_bytes),
            static_cast<unsigned long long>(p.peak_bytes),
            static_cast<unsigned long long>(p.gate_high_water),
            p.makespan_s, p.jobs_per_s,
            i + 1 < points.size() ? "," : "");
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    size_t repeats = 3;
    size_t threads = 8;
    std::string label = "dev";
    std::string json_path;
    bool do_assert = false;
    bool calibrate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--repeats") {
            repeats = static_cast<size_t>(std::atoll(value()));
        } else if (arg == "--threads") {
            threads = static_cast<size_t>(std::atoll(value()));
        } else if (arg == "--label") {
            label = value();
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--assert") {
            do_assert = true;
        } else if (arg == "--calibrate") {
            calibrate = true;
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--repeats N] [--threads N] "
                "[--label STR] [--json FILE] [--assert] "
                "[--calibrate]\n",
                argv[0]);
            return 2;
        }
    }

    auto workloads = bench::loadWorkloads();
    const auto jobs = buildJobs(workloads);
    if (calibrate)
        return runCalibration(jobs);

    std::printf("memsched frontier: %zu jobs on %zu threads, "
                "best of %zu repeats\n",
                jobs.size(), threads, repeats);
    std::printf("%-12s %12s %12s %12s %10s %10s\n", "config",
                "budget MiB", "peak MiB", "gate MiB", "makespan",
                "jobs/s");

    std::vector<Point> points;
    points.push_back(
        runPoint("fifo", jobs, 0, threads, repeats));
    const uint64_t fifo_peak = points[0].peak_bytes;
    std::vector<std::string> names;  // outlive the Points
    names.reserve(std::size(kBudgetFractions));
    for (const double fraction : kBudgetFractions) {
        const uint64_t budget = static_cast<uint64_t>(
            static_cast<double>(fifo_peak) * fraction);
        names.push_back(support::strprintf(
            "budget-%d", static_cast<int>(fraction * 100)));
        points.push_back(runPoint(names.back().c_str(), jobs,
                                  budget, threads, repeats));
    }
    for (const Point &p : points) {
        std::printf("%-12s %12.1f %12.1f %12.1f %9.3fs %10.2f\n",
                    p.name,
                    static_cast<double>(p.budget_bytes) / (1 << 20),
                    static_cast<double>(p.peak_bytes) / (1 << 20),
                    static_cast<double>(p.gate_high_water) /
                        (1 << 20),
                    p.makespan_s, p.jobs_per_s);
    }

    int exit_code = 0;
    const Point &tightest = points.back();
    const double reduction =
        fifo_peak > 0
            ? 1.0 - static_cast<double>(tightest.peak_bytes) /
                        static_cast<double>(fifo_peak)
            : 0.0;
    const double inflation =
        points[0].makespan_s > 0
            ? tightest.makespan_s / points[0].makespan_s - 1.0
            : 0.0;
    std::printf("tightest budget (%s): peak -%.0f%%, "
                "makespan %+.0f%%\n",
                tightest.name, reduction * 100, inflation * 100);
    if (do_assert) {
        if (reduction < kMinPeakReduction) {
            std::fprintf(stderr,
                         "FAIL: peak reduction %.0f%% < %.0f%%\n",
                         reduction * 100, kMinPeakReduction * 100);
            exit_code = 1;
        }
        if (inflation > kMaxMakespanInflation) {
            std::fprintf(
                stderr,
                "FAIL: makespan inflation %.0f%% > %.0f%%\n",
                inflation * 100, kMaxMakespanInflation * 100);
            exit_code = 1;
        }
    }

    if (!json_path.empty()) {
        const std::string json =
            entryJson(label, jobs.size(), threads, points);
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        out << json;
        std::printf("wrote %s\n", json_path.c_str());
    }
    return exit_code;
}
