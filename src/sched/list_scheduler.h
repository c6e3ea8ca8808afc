/**
 * @file
 * Cycle-driven list scheduler for lowered regions (paper Fig. 3).
 *
 * The three-step process: the DDG is built by Ddg, the nodes are
 * sorted by a Heuristic, and this scheduler walks cycles placing the
 * highest-priority ready ops into the machine's issue slots. Every
 * computation op may be speculated (renaming already removed the
 * hazards); guarded stores and exit branches are held back only by
 * their DDG edges.
 *
 * Dominator parallelism (paper Section 4): when an op carrying a
 * tail-duplication group becomes ready and an identical group member
 * (same opcode and identical renamed sources) has already been
 * scheduled in a position that also satisfies this op's memory
 * ordering edges, the op is elided — its destination is aliased to
 * the scheduled twin's and it consumes no issue slot.
 */

#ifndef TREEGION_SCHED_LIST_SCHEDULER_H
#define TREEGION_SCHED_LIST_SCHEDULER_H

#include "sched/machine_model.h"
#include "sched/priority.h"
#include "sched/schedule.h"
#include "support/metrics.h"

namespace treegion::sched {

/** Scheduling options. */
struct SchedOptions
{
    Heuristic heuristic = Heuristic::GlobalWeight;

    /** Elide duplicated ops speculated into a dominator. */
    bool dominator_parallelism = true;

    /** Materialize PBR ops for exit branches (see LowerOptions). */
    bool materialize_pbr = false;
};

/**
 * Schedule one lowered region (any region type: the lowering carries
 * the region's internal control structure).
 *
 * @param fn the function
 * @param lowered lowered ops; consumed (ops are rewritten by
 *        dominator-parallelism elision)
 * @param model the target machine
 * @param options heuristic and feature flags
 */
RegionSchedule scheduleLoweredRegion(ir::Function &fn,
                                     LoweredRegion lowered,
                                     const MachineModel &model,
                                     const SchedOptions &options);

/**
 * Convenience wrapper: lower @p r then schedule it.
 */
RegionSchedule scheduleRegion(ir::Function &fn, const region::Region &r,
                              const analysis::Liveness &live,
                              const MachineModel &model,
                              const SchedOptions &options);

/**
 * Run the scheduling hot path only — DDG construction, priority
 * sorting and op placement — without assembling a RegionSchedule.
 * Placement results stay in the per-job arena, so a warmed-up call
 * performs zero heap allocations; tests/alloc_regression_test.cc
 * pins that property.
 *
 * @return the schedule length in cycles (same value a full run's
 *         RegionSchedule::length would have)
 */
int runPlacementProbe(ir::Function &fn, LoweredRegion lowered,
                      const MachineModel &model,
                      const SchedOptions &options);

/**
 * Report the scheduler's per-thread arena statistics (aggregated over
 * all threads that ever scheduled) into @p metrics:
 * sched.arena.jobs, sched.arena.high_water_bytes,
 * sched.arena.capacity_bytes.
 */
void reportArenaMetrics(support::MetricsRegistry &metrics);

/**
 * @return the calling thread's scheduling-arena high-water mark in
 * bytes (0 if this thread never scheduled): the running maximum over
 * every job this thread scheduled, not the last job's.
 */
uint64_t schedArenaHighWaterBytes();

/**
 * Return the calling thread's scheduling arena (support::Arena::trim)
 * and its lowering rename-table storage to the allocator.
 * Memory-budgeted drivers call this after every job, before releasing
 * the job's gate reservation, so a worker's retained scratch cannot
 * accumulate outside the budget; the next job on this thread regrows
 * it from scratch.
 */
void schedArenaTrim();

} // namespace treegion::sched

#endif // TREEGION_SCHED_LIST_SCHEDULER_H
