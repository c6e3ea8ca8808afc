/**
 * @file
 * Classic backward live-variable analysis over virtual registers.
 *
 * The region schedulers consult live-in sets at region exits to decide
 * which renamed values need reconciliation copies, exactly the
 * live-out information the paper's renaming step requires.
 *
 * Storage is dense: one flat word array per set kind, indexed by
 * BlockId and then by register word (GPRs first, then predicates;
 * BTRs are not tracked). The fixpoint sweeps blocks in postorder from
 * the entry (blocks the entry cannot reach follow, in id order), so
 * a block is usually visited after its successors; sweeps repeat
 * until nothing changes and reach the same least fixpoint as any
 * other visit order.
 */

#ifndef TREEGION_ANALYSIS_LIVENESS_H
#define TREEGION_ANALYSIS_LIVENESS_H

#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace treegion::analysis {

/** Live-in / live-out register sets per basic block. */
class Liveness
{
  public:
    /** Run the fixpoint for @p fn. */
    explicit Liveness(ir::Function &fn);

    /** @return true if register @p r is live on entry to @p id. */
    bool liveIn(ir::BlockId id, ir::Reg r) const;

    /** @return true if register @p r is live on exit from @p id. */
    bool liveOut(ir::BlockId id, ir::Reg r) const;

    /** Dense index of @p r in the bit vectors. */
    size_t regIndex(ir::Reg r) const;

    /** Total number of tracked registers. */
    size_t numRegs() const { return num_regs_; }

  private:
    /** @return bit @p r of the set at @p sets for block @p id. */
    bool test(const std::vector<uint64_t> &sets, ir::BlockId id,
              ir::Reg r) const;

    uint32_t num_gprs_;
    uint32_t num_preds_;
    size_t num_regs_;
    size_t words_;        ///< words per block set
    size_t num_blocks_;   ///< block id space covered
    std::vector<uint64_t> live_in_;   ///< [block][word]
    std::vector<uint64_t> live_out_;  ///< [block][word]
};

} // namespace treegion::analysis

#endif // TREEGION_ANALYSIS_LIVENESS_H
