#include <thread>

#include "analysis/liveness.h"
#include "bench.h"
#include "region/formation.h"
#include "region/region_stats.h"
#include "sched/ddg.h"
#include "sched/hyperblock_lowering.h"
#include "sched/list_scheduler.h"
#include "sched/lowering.h"
#include "sched/perf_model.h"

namespace perfbench {

using namespace treegion;
using sched::RegionScheme;

namespace {

/** Span name ids of the replay stages for one scheme. */
struct ReplayNames
{
    uint32_t clone, form, liveness, lower, place;
};

std::map<RegionScheme, ReplayNames> &
namesByScheme()
{
    static std::map<RegionScheme, ReplayNames> names;
    return names;
}

uint32_t g_region_stats = 0;

/** Per-scheme counts from one probe compile. */
struct ProbeCounts
{
    size_t regions = 0;
    size_t ops = 0;
    size_t ddg_edges = 0;
    double ddg_us = 0.0;  ///< standalone sched::Ddg build time
};

region::RegionSet
formRegions(ir::Function &fn, const sched::PipelineOptions &options)
{
    switch (options.scheme) {
      case RegionScheme::BasicBlock:
        return region::formBasicBlockRegions(fn);
      case RegionScheme::Slr:
        return region::formSlrs(fn);
      case RegionScheme::Superblock:
        return region::formSuperblocks(fn, options.superblock);
      case RegionScheme::Treegion:
        return region::formTreegions(fn);
      case RegionScheme::TreegionTailDup:
        return region::formTreegionsTailDup(fn, options.tail_dup);
      case RegionScheme::Hyperblock:
        return region::formHyperblocks(fn, options.hyperblock);
    }
    return {};
}

/** The lowering scheduleRegion picks for @p r. */
sched::LoweredRegion
lowerFor(ir::Function &fn, const region::Region &r,
         const analysis::Liveness &live,
         const sched::PipelineOptions &options)
{
    if (r.kind() == region::RegionKind::Hyperblock)
        return sched::lowerHyperblock(fn, r, live);
    sched::LowerOptions lower;
    lower.materialize_pbr = options.sched.materialize_pbr;
    return sched::lowerRegion(fn, r, live, lower);
}

std::string
schemeName(RegionScheme scheme)
{
    return sched::regionSchemeName(scheme);
}

/**
 * Compile @p src under @p options, building a standalone sched::Ddg on
 * each lowered region to count its edges and time its construction.
 */
ProbeCounts
probeCompile(const ir::Function &src, const sched::PipelineOptions &options)
{
    ProbeCounts counts;
    ir::Function fn = src.clone();
    const region::RegionSet regions = formRegions(fn, options);
    const analysis::Liveness live(fn);
    for (const region::Region &r : regions.regions()) {
        sched::LoweredRegion lowered = lowerFor(fn, r, live, options);
        const auto t0 = Clock::now();
        const sched::Ddg ddg(lowered);
        counts.ddg_us += msBetween(t0, Clock::now()) * 1000.0;
        for (size_t i = 0; i < ddg.size(); ++i)
            counts.ddg_edges += ddg.succs(i).size();
        counts.ops += sched::scheduleLoweredRegion(fn, std::move(lowered),
                                                   options.model,
                                                   options.sched)
                          .ops.size();
    }
    counts.regions = regions.regions().size();
    return counts;
}

} // namespace

void
registerReplayNames()
{
    for (RegionScheme s : allSchemes()) {
        const std::string n = schemeName(s);
        namesByScheme()[s] = {
            spanName("ir.clone." + n), spanName("region.form." + n),
            spanName("analysis.liveness." + n),
            spanName("sched.lower." + n), spanName("sched.place." + n)};
    }
    g_region_stats = spanName("region.stats");
}

ReplayResult
replayPipeline(const ir::Function &src,
               const sched::PipelineOptions &options, Tracer &tracer)
{
    const ReplayNames &n = namesByScheme().at(options.scheme);
    ReplayResult out{[&] {
                         Scope span(tracer, n.clone);
                         return src.clone();
                     }(),
                     {}, 0.0, 1.0};
    ir::Function &fn = out.fn;
    const size_t original_ops = fn.totalOps();

    region::RegionSet regions;
    {
        Scope span(tracer, n.form);
        regions = formRegions(fn, options);
    }
    {
        Scope span(tracer, g_region_stats);
        region::computeRegionStats(fn, regions);
        out.code_expansion = region::codeExpansionFactor(fn, original_ops);
    }
    std::unique_ptr<analysis::Liveness> live;
    {
        Scope span(tracer, n.liveness);
        live = std::make_unique<analysis::Liveness>(fn);
    }
    out.schedule.entry = fn.entry();
    for (const region::Region &r : regions.regions()) {
        sched::LoweredRegion lowered;
        {
            Scope span(tracer, n.lower);
            lowered = lowerFor(fn, r, *live, options);
        }
        sched::RegionSchedule rs;
        {
            Scope span(tracer, n.place);
            rs = sched::scheduleLoweredRegion(fn, std::move(lowered),
                                              options.model, options.sched);
        }
        out.estimated_time += sched::estimateRegionTime(rs);
        out.schedule.regions.emplace(r.root(), std::move(rs));
    }
    return out;
}

void
reportSchemeProbes(
    const std::vector<std::pair<const ir::Function *,
                                sched::PipelineOptions>> &jobs,
    Report &report)
{
    for (RegionScheme s : allSchemes()) {
        ProbeCounts total;
        uint64_t compiles = 0;
        uint64_t arena_bytes = 0;
        // A fresh thread has a fresh scheduling arena, so the high
        // water read at its end belongs to this scheme alone.
        std::thread worker([&] {
            for (const auto &[fn, options] : jobs) {
                if (options.scheme != s)
                    continue;
                const ProbeCounts c = probeCompile(*fn, options);
                total.regions += c.regions;
                total.ops += c.ops;
                total.ddg_edges += c.ddg_edges;
                total.ddg_us += c.ddg_us;
                ++compiles;
            }
            arena_bytes = sched::schedArenaHighWaterBytes();
        });
        worker.join();
        if (compiles == 0)
            continue;
        const std::string n = schemeName(s);
        report.metric("region.regions." + n, total.regions, "count");
        report.metric("sched.ops." + n, total.ops, "count");
        report.metric("sched.ddg_edges." + n, total.ddg_edges, "count");
        report.metric("sched.arena_hw_kib." + n, arena_bytes / 1024.0,
                      "KiB");
        report.metric("sched.ddg_us." + n, total.ddg_us / compiles, "us");
    }
}

void
reportReplayStages(const LayerTimes &times,
                   const std::map<RegionScheme, uint64_t> &compiles,
                   Report &report)
{
    uint64_t all = 0;
    for (const auto &[scheme, count] : compiles) {
        if (count == 0)
            continue;
        all += count;
        const std::string n = schemeName(scheme);
        for (const char *stage : {"ir.clone", "region.form",
                                  "analysis.liveness", "sched.lower",
                                  "sched.place"}) {
            const std::string span = std::string(stage) + "." + n;
            report.metric(std::string(stage) + "_us." + n,
                          times.get(span).total_us / count, "us");
        }
    }
    if (all > 0) {
        report.metric("region.stats_us",
                      times.get("region.stats").total_us / all, "us");
    }
}

} // namespace perfbench
