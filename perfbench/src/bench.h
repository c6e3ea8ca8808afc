/**
 * @file
 * Shared pieces of the treegion benchmark: options, the result report,
 * exact sample statistics, the in-memory span recorder, seeded inputs
 * and the stage-by-stage pipeline replay.
 *
 * The benchmark measures each layer from outside, by timing calls into
 * that module's public functions. It deliberately uses none of the
 * library's own telemetry (support/trace.h, support/spans.h,
 * support::Histogram, remarks), so rewriting those does not require
 * editing the benchmark.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "sched/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** @p seconds after @p t. */
inline Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory (inside the checkout) for the socket and span files. */
    std::string work_dir = ".bench_build";
};

/** SplitMix64 finalizer: the benchmark's only source of seeds. */
uint64_t mix64(uint64_t x);

/** Seed for stream @p stream, item @p index, of workload seed @p seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

/**
 * The metrics and verdict of one run, printed as the last line of
 * standard output.
 */
class Report
{
  public:
    /** Record metric @p name. A non-finite value fails the run. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** @return num / den, or 0 with a failed check when den is 0. */
    double ratio(double num, double den, const std::string &what);

    /** Record a correctness check; a false one fails the run. */
    void check(bool ok, const std::string &what);

    /** Count one attempted operation of the measured loop. */
    void op(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** @return the result line (one JSON object). */
    std::string json() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
};

/** Raw samples with exact nearest-rank percentiles. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    size_t size() const { return values_.size(); }
    double mean() const;

    /**
     * Nearest-rank percentile @p q in (0, 1) of the sorted samples.
     * Fails the run through @p report when fewer than @p min_beyond
     * samples lie above the rank, or when there are no samples.
     */
    double percentile(double q, Report &report, const std::string &what,
                      size_t min_beyond = 0) const;

  private:
    std::vector<double> values_;
};

/** Geometric mean of positive values (0 with no values). */
double geomean(const std::vector<double> &values);

/** One completed operation of a timed loop: which job ran, and how long. */
struct Op
{
    size_t job;
    double ms;
};

/** Runs each job must have in a best-of loop. */
inline constexpr uint64_t kMinRuns = 3;

/**
 * Report every end-to-end metric of a closed loop of @p streams
 * concurrent streams that run @p jobs fixed, deterministic jobs over
 * and over (Op::job numbers them). A job's time is its best of all its
 * runs: the work repeats exactly, so the slower runs measure the host,
 * not the program. ops_per_s is the rate of @p streams streams whose
 * every job takes its best time, and p50_ms and p99_ms are exact
 * nearest-rank percentiles over the jobs' best times (p99 needs 10 jobs
 * beyond it). speedup_geomean and code_expansion are geometric means
 * over the distinct compiled (program, options) pairs.
 */
void reportBestOf(const std::vector<Op> &ops, size_t jobs, size_t streams,
                  const std::vector<double> &speedups,
                  const std::vector<double> &expansions, double setup_s,
                  Report &report);

/** Peak resident set size of this process, in MiB. */
double peakRssMib();

// ---------------------------------------------------------------------
// Tracing: spans recorded in memory by the benchmark's own code around
// each public call, written out as JSON lines when the run ends.
// ---------------------------------------------------------------------

/** Interned span name id. Register names before the timed loops. */
uint32_t spanName(const std::string &name);

/** One recorded interval. */
struct SpanRecord
{
    uint32_t name;
    int32_t parent;  ///< index in the same Tracer, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
};

/** Per-thread span recorder; inert unless enabled. */
class Tracer
{
  public:
    bool enabled = false;

    int32_t begin(uint32_t name);
    void end(int32_t index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

  private:
    std::vector<SpanRecord> spans_;
    std::vector<int32_t> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, uint32_t name)
        : tracer_(tracer), index_(tracer.begin(name))
    {
    }
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int32_t index_;
};

/** Per-name totals over a set of tracers. */
struct LayerTimes
{
    struct Entry
    {
        double total_us = 0.0;  ///< summed span durations
        uint64_t count = 0;
    };
    std::map<std::string, Entry> by_name;

    const Entry &get(const std::string &name) const;
};

LayerTimes aggregateSpans(const std::vector<const Tracer *> &tracers);

/** Write every span as one JSON line to @p path. @return success. */
bool writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

/**
 * Alternates measurement slices in a traced run: even slices run
 * untraced, odd ones traced, so both see the same warm state and the
 * difference is the tracing overhead.
 */
class Slicer
{
  public:
    Slicer(Clock::time_point start, bool trace) : start_(start), trace_(trace) {}

    bool
    tracedAt(Clock::time_point t) const
    {
        if (!trace_)
            return false;
        const auto slice = std::chrono::duration_cast<
                               std::chrono::milliseconds>(t - start_)
                               .count() /
                           kSliceMs;
        return slice % 2 == 1;
    }

  private:
    static constexpr int64_t kSliceMs = 500;
    Clock::time_point start_;
    bool trace_;
};

/** Untraced vs traced time per operation -> overhead share. */
struct OverheadMeter
{
    double untraced_ms = 0.0, traced_ms = 0.0;
    uint64_t untraced_ops = 0, traced_ops = 0;

    void add(bool traced, double ms)
    {
        (traced ? traced_ms : untraced_ms) += ms;
        ++(traced ? traced_ops : untraced_ops);
    }

    double share(Report &report) const;
};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/** Schemes in the order the benchmark reports them. */
const std::vector<treegion::sched::RegionScheme> &allSchemes();

/** One seeded SPEC proxy program. */
struct Program
{
    std::string name;
    std::unique_ptr<treegion::ir::Module> mod;
    treegion::ir::Function &fn() const
    {
        return *mod->functions().front();
    }
};

/**
 * The eight SPEC proxies, @p variants structure variants each. The
 * seed changes each proxy's structure seed only, so every variant
 * keeps its proxy's CFG character (size, mix, bias).
 */
std::vector<Program> seededProxies(uint64_t seed, int variants);

/** Pipeline options for @p scheme at @p width, global-weight. */
treegion::sched::PipelineOptions
pipelineOptions(treegion::sched::RegionScheme scheme, int width);

// ---------------------------------------------------------------------
// Stage-by-stage replay of sched::runPipelineOnClone.
// ---------------------------------------------------------------------

/** Register the replay's span names (call before any replay). */
void registerReplayNames();

/** Outcome of a replayed compile. */
struct ReplayResult
{
    treegion::ir::Function fn;  ///< the compiled clone
    treegion::sched::FunctionSchedule schedule;
    double estimated_time = 0.0;
    double code_expansion = 1.0;
};

/**
 * Clone @p fn, form regions, compute region statistics and liveness,
 * then lower and place every region, recording one span per stage. The
 * calls are the ones runPipeline makes, in its order, so the result
 * must equal runPipelineOnClone's exactly.
 */
ReplayResult replayPipeline(const treegion::ir::Function &fn,
                            const treegion::sched::PipelineOptions &options,
                            Tracer &tracer);

/**
 * Compile every (function, options) job once more, building a
 * standalone sched::Ddg on each lowered region, and report per scheme:
 * regions, scheduled ops, DDG edges, the scheduling arena's high water
 * (each scheme compiles on a fresh thread, so the high water is its
 * own) and the mean DDG build time per compile (sched.ddg_us.<s>).
 */
void reportSchemeProbes(
    const std::vector<std::pair<const treegion::ir::Function *,
                                treegion::sched::PipelineOptions>> &jobs,
    Report &report);

/** Per-scheme stage metrics (…_us.<s>) from replay spans. */
void reportReplayStages(const LayerTimes &times,
                        const std::map<treegion::sched::RegionScheme,
                                       uint64_t> &compiles,
                        Report &report);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

void runSweep(const Options &options, Report &report);
void runFarm(const Options &options, Report &report);
void runValidate(const Options &options, Report &report);

/**
 * Median of @p reps timed calls of @p setup, in seconds; @p reset runs
 * untimed before each, so tearing down the previous set-up is not
 * counted.
 */
template <typename Setup, typename Reset>
double
medianSetupSeconds(int reps, Setup &&setup, Reset &&reset)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        reset();
        const auto t0 = Clock::now();
        setup();
        s.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

/** Set-up repetitions in an untraced run (traced runs set up once). */
inline int
setupReps(const Options &options)
{
    return options.trace ? 1 : 5;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
