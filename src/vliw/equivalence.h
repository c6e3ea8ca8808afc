/**
 * @file
 * End-to-end schedule validation.
 *
 * Runs three executions on the same input memory and cross-checks
 * them:
 *   1. the original sequential function (ground truth);
 *   2. the transformed sequential function (after tail duplication,
 *      when the region scheme mutates the CFG) — validates that the
 *      CFG transformation preserved semantics;
 *   3. the VLIW schedule — validates renaming, predication,
 *      speculation, exit copies and dominator parallelism.
 *
 * Checked: return value, final memory image, and the control trace
 * (the region roots the schedule visits must equal the transformed
 * sequential trace filtered to region roots).
 */

#ifndef TREEGION_VLIW_EQUIVALENCE_H
#define TREEGION_VLIW_EQUIVALENCE_H

#include <string>
#include <vector>

#include "sched/schedule.h"
#include "vliw/vliw_sim.h"

namespace treegion::vliw {

/** Result of an equivalence check. */
struct EquivalenceReport
{
    bool ok = false;
    bool incomplete = false;  ///< a limit was hit; nothing compared
    std::string detail;       ///< first mismatch, human-readable
    VliwResult vliw;          ///< the scheduled run, once one was made
};

/**
 * Check that @p schedule (produced from @p transformed) computes the
 * same results as @p original on @p memory.
 *
 * @param original the pre-transformation function
 * @param transformed the function the schedule was built from (may be
 *        the same object as @p original for non-mutating schemes)
 * @param schedule the scheduled code
 * @param memory input memory image
 */
EquivalenceReport checkEquivalence(ir::Function &original,
                                   ir::Function &transformed,
                                   const sched::FunctionSchedule &schedule,
                                   const std::vector<int64_t> &memory);

/**
 * Compare the out-of-order backend's architectural outcome @p ooo
 * (ooo::OooResult::arch) with the in-order run @p vliw of the same
 * schedule on the same input: completion, return value, memory
 * image, region-root trace and the architectural counters (regions,
 * copies, ops). The fuzzer's ooo-equivalence oracle and treegionc
 * --sim-backend ooo share this check.
 * @return the first difference, or "" when the two agree.
 */
std::string backendMismatch(const VliwResult &ooo,
                            const VliwResult &vliw);

} // namespace treegion::vliw

#endif // TREEGION_VLIW_EQUIVALENCE_H
