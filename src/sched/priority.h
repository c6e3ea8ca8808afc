/**
 * @file
 * The four treegion scheduling heuristics (paper Section 3).
 *
 * Each heuristic is a sort of the DDG nodes that the list scheduler
 * consults in order:
 *
 *  - DependenceHeight (critical path): height, descending.
 *  - ExitCount (speculative hedge's helped count): number of region
 *    exits at or below the op's home block, then height.
 *  - GlobalWeight (speculative hedge's helped weight; in a tree the
 *    weight of all exits reached through an op equals its home
 *    block's profile weight): weight, then height.
 *  - WeightedCount: weight, then exit count, then height.
 *
 * All ties finally break on lowering order, keeping schedules
 * deterministic.
 */

#ifndef TREEGION_SCHED_PRIORITY_H
#define TREEGION_SCHED_PRIORITY_H

#include <string>
#include <vector>

#include "ir/function.h"
#include "sched/ddg.h"
#include "sched/lowering.h"

namespace treegion::sched {

/** Priority heuristics for treegion scheduling. */
enum class Heuristic {
    DependenceHeight,
    ExitCount,
    GlobalWeight,
    WeightedCount,
};

/** @return display name, e.g. "global-weight". */
std::string heuristicName(Heuristic heuristic);

/** All four heuristics, in the paper's presentation order. */
inline constexpr Heuristic kAllHeuristics[] = {
    Heuristic::DependenceHeight,
    Heuristic::ExitCount,
    Heuristic::GlobalWeight,
    Heuristic::WeightedCount,
};

/** Per-op priority keys. */
struct PriorityKeys
{
    int height = 0;
    size_t exit_count = 0;
    double weight = 0.0;
    /** Dense rank of weight among the region's blocks, 0 = heaviest;
     * equal weights (0.0 and -0.0 too) share a rank, NaN ranks last. */
    uint32_t weight_rank = 0;
};

/**
 * Compute priority keys for every lowered op, allocated in @p arena.
 * Exit counts follow the paper's definition — the number of region
 * exits that follow the op's home block in (region-internal) control
 * flow — generalized through the region's internal successor
 * structure so it also covers DAG regions.
 *
 * @return an array of lowered.ops.size() keys, arena lifetime
 */
const PriorityKeys *computePriorityKeys(ir::Function &fn,
                                        const LoweredRegion &lowered,
                                        const RegionIndex &index,
                                        const Ddg &ddg,
                                        support::Arena &arena);

/**
 * The paper's sortDDGNodesBy*** step: @return an arena array of @p n
 * lowered-op indices in decreasing priority under @p heuristic, ties
 * in lowering order. Stable counting passes over the keys, so heights
 * and exit counts must be small (a region's, from
 * computePriorityKeys) and weight_rank must rank weight densely.
 */
uint32_t *sortByPriority(const PriorityKeys *keys, size_t n,
                         Heuristic heuristic, support::Arena &arena);

} // namespace treegion::sched

#endif // TREEGION_SCHED_PRIORITY_H
