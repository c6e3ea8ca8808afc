#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "bench.h"
#include "vliw/interpreter.h"
#include "workloads/spec_proxy.h"
#include "workloads/synthetic.h"

namespace perfbench {

using namespace treegion;

uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    return mix64(mix64(mix64(seed) ^ stream) ^ index);
}

// ---------------------------------------------------------------------
// Report

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_[name] = {value, unit};
}

double
Report::ratio(double num, double den, const std::string &what)
{
    if (den == 0.0) {
        check(false, what + ": zero denominator");
        return 0.0;
    }
    return num / den;
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    if (correct_)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct_ = false;
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, v] : metrics_) {
        std::snprintf(buf, sizeof(buf), "%.17g", v.value);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << v.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------------
// Statistics

double
Samples::mean() const
{
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    return values_.empty() ? 0.0 : sum / values_.size();
}

double
Samples::percentile(double q, Report &report, const std::string &what,
                    size_t min_beyond) const
{
    if (values_.empty()) {
        report.check(false, what + ": no samples");
        return 0.0;
    }
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < min_beyond) {
        report.check(false, what + ": only " + std::to_string(n - rank) +
                                " samples beyond the percentile (" +
                                std::to_string(n) +
                                " in all); run longer");
    }
    return sorted[rank - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

void
reportBestOf(const std::vector<Op> &ops, size_t jobs, size_t streams,
             const std::vector<double> &speedups,
             const std::vector<double> &expansions, double setup_s,
             Report &report)
{
    std::vector<double> best(jobs, 0.0);
    std::vector<uint64_t> runs(jobs, 0);
    for (const Op &op : ops) {
        if (runs[op.job] == 0 || op.ms < best[op.job])
            best[op.job] = op.ms;
        ++runs[op.job];
    }
    const uint64_t fewest =
        jobs ? *std::min_element(runs.begin(), runs.end()) : 0;
    report.check(fewest >= kMinRuns, "a job ran fewer than " +
                                         std::to_string(kMinRuns) +
                                         " times; run longer");
    Samples per_job;
    double pass_ms = 0.0;
    for (double ms : best) {
        per_job.add(ms);
        pass_ms += ms;
    }
    std::fprintf(stderr,
                 "perfbench: %zu ops over %zu jobs, each run at least %llu "
                 "times; one pass at the best times takes %.1f ms\n",
                 ops.size(), jobs, static_cast<unsigned long long>(fewest),
                 pass_ms);
    report.metric("ops_per_s",
                  report.ratio(streams * jobs, pass_ms / 1000.0, "pass"),
                  "1/s");
    report.metric("p50_ms", per_job.percentile(0.5, report, "p50"), "ms");
    report.metric("p99_ms", per_job.percentile(0.99, report, "p99", 10),
                  "ms");
    report.metric("speedup_geomean", geomean(speedups), "x");
    report.metric("code_expansion", geomean(expansions), "x");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double
OverheadMeter::share(Report &report) const
{
    const double untraced =
        report.ratio(untraced_ms, untraced_ops, "untraced op time");
    const double traced =
        report.ratio(traced_ms, traced_ops, "traced op time");
    return report.ratio(traced - untraced, untraced, "trace overhead");
}

// ---------------------------------------------------------------------
// Tracing

namespace {

std::vector<std::string> &
spanNames()
{
    static std::vector<std::string> names;
    return names;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

uint32_t
spanName(const std::string &name)
{
    auto &names = spanNames();
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end())
        return static_cast<uint32_t>(it - names.begin());
    names.push_back(name);
    return static_cast<uint32_t>(names.size() - 1);
}

int32_t
Tracer::begin(uint32_t name)
{
    if (!enabled)
        return -1;
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(
        {name, open_.empty() ? -1 : open_.back(), nowNs(), 0});
    open_.push_back(index);
    return index;
}

void
Tracer::end(int32_t index)
{
    if (index < 0)
        return;
    spans_[index].end_ns = nowNs();
    open_.pop_back();
}

const LayerTimes::Entry &
LayerTimes::get(const std::string &name) const
{
    static const Entry kEmpty;
    const auto it = by_name.find(name);
    return it == by_name.end() ? kEmpty : it->second;
}

LayerTimes
aggregateSpans(const std::vector<const Tracer *> &tracers)
{
    const auto &names = spanNames();
    std::vector<LayerTimes::Entry> acc(names.size());
    for (const Tracer *t : tracers) {
        const auto &spans = t->spans();
        for (const SpanRecord &s : spans) {
            const double us = (s.end_ns - s.start_ns) / 1000.0;
            acc[s.name].total_us += us;
            ++acc[s.name].count;
        }
    }
    LayerTimes out;
    for (size_t i = 0; i < names.size(); ++i) {
        if (acc[i].count > 0)
            out.by_name[names[i]] = acc[i];
    }
    return out;
}

bool
writeSpans(const std::string &path,
           const std::vector<const Tracer *> &tracers)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto &names = spanNames();
    for (size_t t = 0; t < tracers.size(); ++t) {
        for (const SpanRecord &s : tracers[t]->spans()) {
            out << "{\"thread\":" << t << ",\"name\":\"" << names[s.name]
                << "\",\"parent\":" << s.parent
                << ",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << "}\n";
        }
    }
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Inputs

const std::vector<sched::RegionScheme> &
allSchemes()
{
    using sched::RegionScheme;
    static const std::vector<RegionScheme> schemes = {
        RegionScheme::BasicBlock, RegionScheme::Slr,
        RegionScheme::Superblock, RegionScheme::Treegion,
        RegionScheme::TreegionTailDup, RegionScheme::Hyperblock,
    };
    return schemes;
}

std::vector<Program>
seededProxies(uint64_t seed, int variants)
{
    // A structure seed draws a program of random size; compile and
    // simulation cost track static and dynamic size, so without a size
    // match the seed would move every timing by tens of percent. Each
    // variant is the closest of kDraws draws to the proxy's own op
    // count, block count and ops executed on one input. The draw count
    // is fixed so that set-up work does not depend on the seed.
    constexpr int kDraws = 32;
    struct Size
    {
        double ops, blocks, executed;
    };
    auto sizeOf = [](const ir::Module &mod) {
        ir::Function &fn = *mod.functions().front();
        const auto input = workloads::makeInputMemory(mod.memWords(), 1, 100);
        return Size{static_cast<double>(fn.totalOps()),
                    static_cast<double>(fn.numBlockIds()),
                    static_cast<double>(
                        vliw::runSequential(fn, input).ops_executed)};
    };
    auto distance = [](const Size &a, const Size &ref) {
        const auto rel = [](double x, double y) {
            return std::abs(x - y) / y;
        };
        return std::max({rel(a.ops, ref.ops), rel(a.blocks, ref.blocks),
                         rel(a.executed, ref.executed)});
    };
    std::vector<Program> programs;
    for (const workloads::ProxySpec &base : workloads::specint95Proxies()) {
        const Size ref = sizeOf(*workloads::buildProxy(base));
        for (int v = 0; v < variants; ++v) {
            workloads::ProxySpec spec = base;
            spec.name = base.name + "_" + std::to_string(v);
            Program best{spec.name, nullptr};
            double best_distance = 0.0;
            for (int draw = 0; draw < kDraws; ++draw) {
                spec.params.seed = deriveSeed(seed, base.params.seed,
                                              v * kDraws + draw);
                auto mod = workloads::buildProxy(spec);
                const double d = distance(sizeOf(*mod), ref);
                if (!best.mod || d < best_distance) {
                    best.mod = std::move(mod);
                    best_distance = d;
                }
            }
            programs.push_back(std::move(best));
        }
    }
    return programs;
}

sched::PipelineOptions
pipelineOptions(sched::RegionScheme scheme, int width)
{
    sched::PipelineOptions options;
    options.scheme = scheme;
    options.model = sched::MachineModel::custom(width);
    options.sched.heuristic = sched::Heuristic::GlobalWeight;
    return options;
}

} // namespace perfbench
