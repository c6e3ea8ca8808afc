/**
 * @file
 * End-to-end compilation pipeline: region formation -> lowering ->
 * scheduling -> performance estimate, for one function and one
 * configuration. This is the library's main entry point and the
 * workhorse behind every experiment.
 *
 * Compilation is embarrassingly parallel across (function,
 * configuration) pairs — the paper's own evaluation sweeps schemes x
 * heuristics x machine models over every benchmark — so the driver
 * also offers runPipelineParallel: run a batch of PipelineJobs on a
 * FIFO ThreadPool, compile each one on a private clone, and return
 * results in input order, bit-identical to the sequential path for
 * any thread count.
 */

#ifndef TREEGION_SCHED_PIPELINE_H
#define TREEGION_SCHED_PIPELINE_H

#include <functional>
#include <string>
#include <vector>

#include "region/formation.h"
#include "region/region_stats.h"
#include "sched/list_scheduler.h"
#include "sched/machine_model.h"
#include "sched/perf_model.h"
#include "support/remarks.h"
#include "support/thread_pool.h"

namespace treegion::sched {

/** Region formation schemes the paper compares. */
enum class RegionScheme {
    BasicBlock,       ///< baseline
    Slr,              ///< simple linear regions
    Superblock,       ///< traces + tail duplication (mutates the CFG)
    Treegion,         ///< Fig. 2 treegions
    TreegionTailDup,  ///< Fig. 11 treegions (mutates the CFG)
    Hyperblock,       ///< if-converted DAG regions (the paper's
                      ///< planned comparison point)
};

/** All six schemes, in the order sweeps and the fuzzer visit them. */
inline constexpr RegionScheme kAllRegionSchemes[] = {
    RegionScheme::BasicBlock,
    RegionScheme::Slr,
    RegionScheme::Superblock,
    RegionScheme::Treegion,
    RegionScheme::TreegionTailDup,
    RegionScheme::Hyperblock,
};

/** @return display name of @p scheme. */
std::string regionSchemeName(RegionScheme scheme);

/** Parse a regionSchemeName() token. @return false on error. */
bool parseRegionScheme(const std::string &name, RegionScheme &out);

/** Parse a heuristic name ("gw" or "global-weight" style). */
bool parseHeuristicName(const std::string &name, Heuristic &out);

/** Full pipeline configuration. */
struct PipelineOptions
{
    RegionScheme scheme = RegionScheme::Treegion;
    MachineModel model = MachineModel::wide4U();
    SchedOptions sched;
    region::TailDupLimits tail_dup;   ///< for TreegionTailDup
    region::SuperblockOptions superblock;  ///< for Superblock
    region::HyperblockOptions hyperblock;  ///< for Hyperblock
};

/**
 * Render @p options as one canonical "key=value key=value ..." line
 * covering every field (scheme, heuristic, width, scheduler flags,
 * tail-dup / superblock / hyperblock limits). Two PipelineOptions
 * encode identically iff they configure identical compilations, so
 * the encoding doubles as the options half of the compile-cache key
 * and as the wire format of the compile service.
 */
std::string encodePipelineOptions(const PipelineOptions &options);

/**
 * Parse encodePipelineOptions() output (any subset of the fields, in
 * any order; omitted fields keep their defaults). @return false and
 * set @p error on an unknown key or a malformed value.
 */
bool parsePipelineOptions(const std::string &text,
                          PipelineOptions &out,
                          std::string *error = nullptr);

/** Everything the experiments need from one pipeline run. */
struct PipelineResult
{
    FunctionSchedule schedule;
    region::RegionSet regions;
    region::RegionStats region_stats;
    double estimated_time = 0.0;
    double code_expansion = 1.0;  ///< vs. the pre-formation function
    RegionSchedStats total_sched_stats;
};

/**
 * Run the pipeline on @p fn.
 *
 * This is where every compile is instrumented: one span per stage
 * (formation, liveness, schedule) and one flight-recorder note, tag
 * "job" with detail "<fn>/<scheme>/<heuristic>", so a crash dump
 * names the compile each thread was in whichever tool ran it.
 *
 * Tail-duplicating schemes mutate @p fn (clone blocks, split profile
 * flow); clone the function first if the original is still needed.
 */
PipelineResult runPipeline(ir::Function &fn,
                           const PipelineOptions &options);

/** A pipeline run on a private clone of the input function. */
struct ClonedPipelineRun
{
    /** The compiled clone (tail-duplicating schemes mutate it). */
    ir::Function fn;
    PipelineResult result;
    double compile_ms = 0.0;  ///< wall time of the pipeline run
};

/**
 * Const-safe pipeline entry point: clone @p fn, run the pipeline on
 * the clone, and return both. The input is never mutated, so the
 * same function can be compiled under any number of configurations
 * concurrently — this is the only pipeline entry point shared state
 * (the compile service, the fuzzer, the parallel driver) should use.
 */
ClonedPipelineRun runPipelineOnClone(const ir::Function &fn,
                                     const PipelineOptions &options);

/**
 * The paper's baseline: basic-block scheduling on the single-issue
 * machine, run on a private clone. @return its estimated execution
 * time for @p fn.
 */
double estimateBaselineTime(const ir::Function &fn);

/**
 * One unit of batched compilation: a function x configuration pair.
 * The function is never mutated — every job compiles a private
 * clone, so the same function may appear in any number of jobs.
 */
struct PipelineJob
{
    const ir::Function *fn = nullptr;  ///< profiled input function
    PipelineOptions options;
    std::string label;  ///< trace/report label, e.g. "gcc/tree/gw"
    /** Collect decision remarks for this job (support/remarks.h). */
    bool collect_remarks = false;
};

/** Outcome of one PipelineJob. */
struct PipelineJobResult
{
    /** The compiled clone (tail-duplicating schemes mutate it). */
    ir::Function fn;
    PipelineResult result;
    std::string label;        ///< copied from the job
    double compile_ms = 0.0;  ///< wall time of this job's pipeline run
    /** Decision remarks, when the job asked for them. The stream is
     * private to the job, so its order is deterministic and identical
     * for any worker count. */
    support::RemarkStream remarks;
    /** The admission gate's reservation for this job (0 when the run
     * was unbudgeted). */
    uint64_t projected_peak_bytes = 0;
    /** Index of the job in the submitted batch. Sink consumers see
     * results in completion order; this is how they restore input
     * order without retaining whole results. */
    size_t job_index = 0;
};

/**
 * Compile every job in @p jobs across @p num_threads workers
 * (0 = one per hardware thread) and return the results **in input
 * order**. Each job runs on a private clone of its function, so
 * results are bit-identical to calling runPipeline sequentially on
 * clones, regardless of thread count or scheduling interleaving.
 *
 * num_threads == 1 is a one-worker pool like any other count. Each
 * job runs under the calling thread's span context, so its "job"
 * span is a child of the caller's span at every thread count. Pass
 * @p pool to reuse an existing pool (num_threads is then ignored).
 * This is the ParallelRunOptions overload with only num_threads and
 * pool set.
 */
std::vector<PipelineJobResult>
runPipelineParallel(const std::vector<PipelineJob> &jobs,
                    size_t num_threads = 0,
                    support::ThreadPool *pool = nullptr);

/** Configuration for a runPipelineParallel run. */
struct ParallelRunOptions
{
    /** Worker count; 0 = one per hardware thread. */
    size_t num_threads = 0;
    /** Reuse an existing pool (num_threads is then ignored). */
    support::ThreadPool *pool = nullptr;
    /**
     * Peak-memory budget in bytes; 0 = unbudgeted FIFO: no job is
     * projected and every job is submitted in input order. When
     * set, jobs are admitted through a
     * support::MemoryGate: a job is submitted to the pool only once
     * its projected peak (sched/mem_estimate.h) fits under what
     * remains of the budget, largest-projected-first among the jobs
     * that fit — the ROMA ordering, which minimizes the makespan
     * cost of the memory ceiling. A job projected over the whole
     * budget runs solo instead of deadlocking.
     */
    uint64_t mem_budget_bytes = 0;
    /**
     * Reserve through this gate instead of a private one (its budget
     * wins over mem_budget_bytes). Lets tests and benches observe
     * inUseBytes/highWaterBytes across the run.
     */
    support::MemoryGate *gate = nullptr;
    /**
     * Consume each result as its job completes instead of returning
     * the batch: when set, every PipelineJobResult is handed to this
     * callback (calls are serialized, but completion order depends
     * on the pool interleaving) and runPipelineParallel returns an
     * empty vector. Retaining a whole batch's results makes live
     * memory grow with the batch no matter when jobs start, which
     * swamps any admission policy — streaming consumption is what
     * keeps the peak proportional to the jobs actually in flight,
     * so budgeted batch drivers should always set a sink.
     */
    std::function<void(PipelineJobResult &&)> sink;
};

/**
 * runPipelineParallel with optional memory-budgeted admission and a
 * streaming sink. Results are still returned in input order and are
 * bit-identical to the unbudgeted path — the budget only changes
 * when each job starts.
 */
std::vector<PipelineJobResult>
runPipelineParallel(const std::vector<PipelineJob> &jobs,
                    const ParallelRunOptions &run);

} // namespace treegion::sched

#endif // TREEGION_SCHED_PIPELINE_H
