/**
 * @file
 * Region lowering: turn a tree region of sequential IR into the flat,
 * fully predicated, fully renamed op soup the list scheduler works
 * on.
 *
 * The transformation implements the paper's scheduling model:
 *
 *  - Path predicates. Every block in the region gets a path
 *    predicate; the root's is constant true. Each internal two-way
 *    branch's compare becomes a guarded two-destination CMPP
 *    producing the taken/fall-through path predicates (HPL-PD
 *    unconditional-type semantics: both destinations are written as
 *    guard AND cmp / guard AND NOT cmp, making predicates of distinct
 *    paths mutually exclusive). Internal multiway-branch edges get
 *    one guarded CMPP.EQ each.
 *
 *  - Exits become predicated branches (BRCT on the edge's path
 *    predicate; plain BRU from the root; a single guarded MWBR whose
 *    internal cases are marked fall-through). Several exit branches
 *    may legally share a cycle because at most one path predicate is
 *    true.
 *
 *  - Full compile-time register renaming. Every destination is
 *    renamed to a fresh virtual register and in-region consumers are
 *    rewritten, which removes all anti/output dependences and makes
 *    speculation of any computation op safe. Reconciliation copies
 *    restoring the original registers live into each exit target are
 *    attached to the exits (the paper executes these but excludes
 *    them from the speedup metric).
 *
 *  - Stores are never speculated: they are guarded by their block's
 *    path predicate and pinned to issue no later than any exit in
 *    their subtree.
 */

#ifndef TREEGION_SCHED_LOWERING_H
#define TREEGION_SCHED_LOWERING_H

#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "region/region.h"
#include "sched/schedule.h"

namespace treegion::sched {

/** Classification of a lowered op. */
enum class LoweredKind {
    Computation,  ///< ALU / memory / COPY-like op
    PredDef,      ///< synthesized path-predicate CMPP
    ExitBranch,   ///< predicated region exit (BRCT/BRU/MWBR/RET)
};

/** One op after lowering. */
struct LoweredOp
{
    ir::Op op;              ///< renamed, guarded op
    ir::BlockId home;       ///< region block it came from
    LoweredKind kind = LoweredKind::Computation;
    bool pinned = false;    ///< guarded store: must not move below
                            ///< subtree exits
};

/** Exit metadata prior to scheduling. */
struct LoweredExit
{
    size_t op_index = 0;    ///< index of the exit's branch op
    size_t target_slot = 0; ///< terminator target slot / MWBR case
    ir::BlockId from = 0;
    ir::BlockId target = 0; ///< kNoBlock for RET
    bool is_ret = false;
    double weight = 0.0;
    std::vector<ExitCopy> copies;
};

/** Lowering options. */
struct LowerOptions
{
    /**
     * Materialize a PBR (prepare-to-branch) op per block-targeting
     * exit branch, as real Play-Doh code would; the branch then
     * additionally depends on its PBR. Off by default, matching the
     * paper's performance experiments.
     */
    bool materialize_pbr = false;
};

/** A region lowered for scheduling. */
struct LoweredRegion
{
    ir::BlockId root = ir::kNoBlock;
    std::vector<LoweredOp> ops;
    std::vector<LoweredExit> exits;
    /** Extra (pred op index, succ op index) deps, e.g. PBR->branch. */
    std::vector<std::pair<size_t, size_t>> extra_deps;
    size_t renamed_defs = 0;

    /**
     * The region's internal control structure. The DDG derives memory
     * path order, store pinning, control heights and exit counts from
     * it, so the scheduler is agnostic to the region type that
     * produced the lowering.
     */
    RegionTree tree;
};

/**
 * Lower @p r for scheduling.
 *
 * @param fn the function (fresh registers are allocated from it)
 * @param r the region to lower
 * @param live liveness for @p fn (determines exit copies)
 * @param options lowering options
 */
LoweredRegion lowerRegion(ir::Function &fn, const region::Region &r,
                          const analysis::Liveness &live,
                          const LowerOptions &options = {});

} // namespace treegion::sched

#endif // TREEGION_SCHED_LOWERING_H
