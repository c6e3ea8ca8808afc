#include "sched/pipeline.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include <algorithm>

#include "analysis/liveness.h"
#include "sched/mem_estimate.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/spans.h"
#include "support/string_utils.h"

namespace treegion::sched {

std::string
regionSchemeName(RegionScheme scheme)
{
    switch (scheme) {
      case RegionScheme::BasicBlock: return "bb";
      case RegionScheme::Slr: return "slr";
      case RegionScheme::Superblock: return "sb";
      case RegionScheme::Treegion: return "tree";
      case RegionScheme::TreegionTailDup: return "tree-td";
      case RegionScheme::Hyperblock: return "hyper";
    }
    TG_PANIC("bad RegionScheme");
}

bool
parseRegionScheme(const std::string &name, RegionScheme &out)
{
    if (name == "bb")
        out = RegionScheme::BasicBlock;
    else if (name == "slr")
        out = RegionScheme::Slr;
    else if (name == "sb")
        out = RegionScheme::Superblock;
    else if (name == "tree")
        out = RegionScheme::Treegion;
    else if (name == "tree-td")
        out = RegionScheme::TreegionTailDup;
    else if (name == "hyper")
        out = RegionScheme::Hyperblock;
    else
        return false;
    return true;
}

bool
parseHeuristicName(const std::string &name, Heuristic &out)
{
    if (name == "h" || name == "dep-height")
        out = Heuristic::DependenceHeight;
    else if (name == "ec" || name == "exit-count")
        out = Heuristic::ExitCount;
    else if (name == "gw" || name == "global-weight")
        out = Heuristic::GlobalWeight;
    else if (name == "wc" || name == "weighted-count")
        out = Heuristic::WeightedCount;
    else
        return false;
    return true;
}

std::string
encodePipelineOptions(const PipelineOptions &o)
{
    std::ostringstream os;
    os << "scheme=" << regionSchemeName(o.scheme)
       << " heuristic=" << heuristicName(o.sched.heuristic)
       << " width=" << o.model.issue_width
       << " dom-par=" << (o.sched.dominator_parallelism ? 1 : 0)
       << " pbr=" << (o.sched.materialize_pbr ? 1 : 0)
       << support::strprintf(" td-expansion=%.17g",
                             o.tail_dup.expansion_limit)
       << " td-paths=" << o.tail_dup.path_limit
       << " td-merge=" << o.tail_dup.merge_limit
       << " td-max-blocks=" << o.tail_dup.max_region_blocks
       << support::strprintf(" sb-cold=%.17g sb-prob=%.17g",
                             o.superblock.cold_edge_weight,
                             o.superblock.min_edge_prob)
       << " sb-mml=" << (o.superblock.mutual_most_likely ? 1 : 0)
       << " sb-max-blocks=" << o.superblock.max_blocks
       << support::strprintf(" hb-ratio=%.17g",
                             o.hyperblock.min_weight_ratio)
       << " hb-max-blocks=" << o.hyperblock.max_blocks
       << " hb-paths=" << o.hyperblock.path_limit;
    return os.str();
}

bool
parsePipelineOptions(const std::string &text, PipelineOptions &out,
                     std::string *error)
{
    auto bad = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    for (const std::string &field : support::splitString(text, ' ')) {
        const size_t eq = field.find('=');
        if (eq == std::string::npos)
            return bad("expected key=value, got '" + field + "'");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "scheme") {
            if (!parseRegionScheme(value, out.scheme))
                return bad("unknown scheme '" + value + "'");
        } else if (key == "heuristic") {
            if (!parseHeuristicName(value, out.sched.heuristic))
                return bad("unknown heuristic '" + value + "'");
        } else if (key == "width") {
            const int width = std::atoi(value.c_str());
            if (width <= 0 || width > 64)
                return bad("bad width '" + value + "'");
            out.model = MachineModel::custom(width);
        } else if (key == "dom-par") {
            out.sched.dominator_parallelism = value != "0";
        } else if (key == "pbr") {
            out.sched.materialize_pbr = value != "0";
        } else if (key == "td-expansion") {
            out.tail_dup.expansion_limit = std::atof(value.c_str());
        } else if (key == "td-paths") {
            out.tail_dup.path_limit =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (key == "td-merge") {
            out.tail_dup.merge_limit =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (key == "td-max-blocks") {
            out.tail_dup.max_region_blocks =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (key == "sb-cold") {
            out.superblock.cold_edge_weight = std::atof(value.c_str());
        } else if (key == "sb-prob") {
            out.superblock.min_edge_prob = std::atof(value.c_str());
        } else if (key == "sb-mml") {
            out.superblock.mutual_most_likely = value != "0";
        } else if (key == "sb-max-blocks") {
            out.superblock.max_blocks =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (key == "hb-ratio") {
            out.hyperblock.min_weight_ratio = std::atof(value.c_str());
        } else if (key == "hb-max-blocks") {
            out.hyperblock.max_blocks =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else if (key == "hb-paths") {
            out.hyperblock.path_limit =
                static_cast<size_t>(std::atoll(value.c_str()));
        } else {
            return bad("unknown option key '" + key + "'");
        }
    }
    return true;
}

PipelineResult
runPipeline(ir::Function &fn, const PipelineOptions &options)
{
    using support::SpanScope;

    // If this compile never returns, the flight recorder's dump shows
    // which compile each thread was in when the process died. The
    // detail is built on the stack: noting must not allocate.
    char detail[support::flightrec::kDetailChars];
    std::snprintf(detail, sizeof detail, "%s/%s/%s", fn.name().c_str(),
                  regionSchemeName(options.scheme).c_str(),
                  heuristicName(options.sched.heuristic).c_str());
    support::flightrec::note("job", detail);

    if (auto *remarks = support::currentRemarkStream())
        remarks->setFunction(fn.name());

    PipelineResult result;
    const size_t original_ops = fn.totalOps();

    {
        SpanScope span("formation");
        if (span.live())
            span.arg("fn", fn.name())
                .arg("scheme", regionSchemeName(options.scheme));
        switch (options.scheme) {
          case RegionScheme::BasicBlock:
            result.regions = region::formBasicBlockRegions(fn);
            break;
          case RegionScheme::Slr:
            result.regions = region::formSlrs(fn);
            break;
          case RegionScheme::Superblock:
            result.regions =
                region::formSuperblocks(fn, options.superblock);
            break;
          case RegionScheme::Treegion:
            result.regions = region::formTreegions(fn);
            break;
          case RegionScheme::TreegionTailDup:
            result.regions =
                region::formTreegionsTailDup(fn, options.tail_dup);
            break;
          case RegionScheme::Hyperblock:
            result.regions =
                region::formHyperblocks(fn, options.hyperblock);
            break;
        }
        span.arg("regions",
                 static_cast<int64_t>(result.regions.regions().size()));
    }

    result.region_stats = region::computeRegionStats(fn, result.regions);
    result.code_expansion = region::codeExpansionFactor(fn, original_ops);

    // Liveness on the (possibly tail-duplicated) CFG feeds the exit
    // reconciliation copies.
    std::unique_ptr<analysis::Liveness> live;
    {
        SpanScope span("liveness");
        if (span.live())
            span.arg("fn", fn.name());
        live = std::make_unique<analysis::Liveness>(fn);
    }

    SpanScope sched_span("schedule");
    if (sched_span.live())
        sched_span.arg("fn", fn.name())
            .arg("scheme", regionSchemeName(options.scheme))
            .arg("model", options.model.name);
    result.schedule.entry = fn.entry();
    size_t scheduled_ops = 0;
    for (const region::Region &r : result.regions.regions()) {
        RegionSchedule rs =
            scheduleRegion(fn, r, *live, options.model, options.sched);
        result.estimated_time += estimateRegionTime(rs);
        result.total_sched_stats.renamed_defs += rs.stats.renamed_defs;
        result.total_sched_stats.exit_copies += rs.stats.exit_copies;
        result.total_sched_stats.speculated_ops +=
            rs.stats.speculated_ops;
        result.total_sched_stats.elided_ops += rs.stats.elided_ops;
        scheduled_ops += rs.ops.size();
        result.schedule.regions.emplace(r.root(), std::move(rs));
    }
    sched_span.arg("ops", static_cast<int64_t>(scheduled_ops));
    return result;
}

ClonedPipelineRun
runPipelineOnClone(const ir::Function &fn,
                   const PipelineOptions &options)
{
    const auto start = std::chrono::steady_clock::now();
    ClonedPipelineRun run{fn.clone(), {}, 0.0};
    run.result = runPipeline(run.fn, options);
    run.compile_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    return run;
}

double
estimateBaselineTime(const ir::Function &fn)
{
    PipelineOptions options;
    options.scheme = RegionScheme::BasicBlock;
    options.model = MachineModel::scalar1U();
    options.sched.heuristic = Heuristic::DependenceHeight;
    return runPipelineOnClone(fn, options).result.estimated_time;
}

namespace {

/** Compile one job on a private clone of its function. */
PipelineJobResult
runOneJob(const PipelineJob &job)
{
    TG_ASSERT(job.fn != nullptr);
    support::SpanScope span("job", support::SpanScope::Root::IfEnabled);
    if (span.live())
        span.arg("label",
                 job.label.empty() ? job.fn->name() : job.label);
    // The stream is installed only around this job's pipeline run on
    // this worker thread, so every emitted remark belongs to exactly
    // this job whatever the pool interleaving.
    support::RemarkStream remarks;
    support::RemarkScope scope(job.collect_remarks ? &remarks
                                                   : nullptr);
    ClonedPipelineRun run = runPipelineOnClone(*job.fn, job.options);
    return PipelineJobResult{std::move(run.fn), std::move(run.result),
                             job.label, run.compile_ms,
                             std::move(remarks)};
}

} // namespace

std::vector<PipelineJobResult>
runPipelineParallel(const std::vector<PipelineJob> &jobs,
                    size_t num_threads, support::ThreadPool *pool)
{
    ParallelRunOptions run;
    run.num_threads = num_threads;
    run.pool = pool;
    return runPipelineParallel(jobs, run);
}

std::vector<PipelineJobResult>
runPipelineParallel(const std::vector<PipelineJob> &jobs,
                    const ParallelRunOptions &run)
{
    // Without a budget the private gate is unlimited: it admits every
    // job on the first scan, in input order.
    support::MemoryGate local_gate(run.mem_budget_bytes);
    support::MemoryGate *gate = run.gate ? run.gate : &local_gate;
    const bool budgeted = run.gate || run.mem_budget_bytes > 0;

    // A budgeted run projects every job's peak up front; the gate
    // then admits them largest first among the jobs that fit.
    struct Candidate
    {
        size_t index;
        uint64_t projected;
    };
    std::vector<Candidate> waiting;
    waiting.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        waiting.push_back(
            {i, budgeted ? estimateJobPeakBytes(jobs[i]) : 0});
    }

    // Run one admitted job. Its result is parked in the job's slot
    // (gathered in input order below) or, with a sink, handed off as
    // soon as it exists so its memory dies with the job. Jobs join
    // the caller's trace, whichever worker runs them.
    const support::SpanContext caller = support::currentSpanContext();
    std::mutex sink_mutex;
    std::vector<std::optional<PipelineJobResult>> slots(jobs.size());
    auto runAdmitted = [&](const Candidate &c) {
        // Release on every exit path, including a throwing pipeline,
        // or the coordinator would wait forever. Trim this thread's
        // retained scheduling arena first: memory a worker keeps
        // between jobs would otherwise accumulate outside the budget,
        // and what the gate re-admits against must actually be
        // available.
        struct Release
        {
            support::MemoryGate *gate;
            uint64_t bytes;
            ~Release()
            {
                if (gate->budgetBytes() > 0)
                    schedArenaTrim();
                gate->release(bytes);
            }
        } release{gate, c.projected};
        const support::SpanContextScope in_caller(caller);
        PipelineJobResult result = runOneJob(jobs[c.index]);
        result.projected_peak_bytes = c.projected;
        result.job_index = c.index;
        if (run.sink) {
            std::lock_guard<std::mutex> lock(sink_mutex);
            run.sink(std::move(result));
        } else {
            slots[c.index].emplace(std::move(result));
        }
    };

    std::unique_ptr<support::ThreadPool> local_pool;
    if (!run.pool)
        local_pool = std::make_unique<support::ThreadPool>(run.num_threads);
    support::ThreadPool &workers = run.pool ? *run.pool : *local_pool;

    // The coordinator (this thread) is the only one that ever waits
    // on the gate; workers just run jobs and release, so admission
    // cannot deadlock the pool.
    std::vector<std::future<void>> futures(jobs.size());
    while (!waiting.empty()) {
        const uint64_t gen = gate->generation();
        const size_t started =
            gate->admitLargestFirst(waiting, [&](const Candidate &c) {
                futures[c.index] =
                    workers.submit([&runAdmitted, c] { runAdmitted(c); });
                return true;
            });
        if (started == 0 && !waiting.empty())
            gate->waitForRelease(gen);
    }

    // Let every job finish before any get() can rethrow: the tasks
    // still write into slots and the sink's mutex.
    for (auto &future : futures)
        future.wait();
    for (auto &future : futures)
        future.get();

    std::vector<PipelineJobResult> results;
    if (!run.sink) {
        results.reserve(jobs.size());
        for (auto &slot : slots)
            results.push_back(std::move(*slot));
    }
    return results;
}

} // namespace treegion::sched
