/**
 * @file
 * A basic block: a straight-line op sequence ending in one branch.
 *
 * Every block ends in exactly one terminator (BRU, BRCT, MWBR or RET);
 * fall-through edges are always made explicit as BRU so that CFG
 * structure is fully determined by terminators. Profile data lives
 * directly on the block: an execution weight plus per-successor edge
 * weights aligned with the terminator's target list.
 */

#ifndef TREEGION_IR_BASIC_BLOCK_H
#define TREEGION_IR_BASIC_BLOCK_H

#include <vector>

#include "ir/op.h"

namespace treegion::ir {

/** One CFG node. */
class BasicBlock
{
  public:
    /** Construct block @p id. */
    explicit BasicBlock(BlockId id) : id_(id) {}

    /** @return this block's id. */
    BlockId id() const { return id_; }

    /** @return the ops, terminator last. */
    std::vector<Op> &ops() { return ops_; }
    const std::vector<Op> &ops() const { return ops_; }

    /** @return true once a terminator has been appended. */
    bool hasTerminator() const;

    /** @return the terminator op; asserts one exists. */
    const Op &terminator() const;
    Op &terminator();

    /** @return successor block ids (terminator targets, in order;
     * empty before a terminator is appended). */
    const Op::Targets &successors() const;

    /** @return predecessor ids (maintained by Function). */
    const std::vector<BlockId> &preds() const { return preds_; }

    /** @return profile execution count of this block. */
    double weight() const { return weight_; }

    /** Set the profile execution count. */
    void setWeight(double w) { weight_ = w; }

    /**
     * Per-successor edge weights, aligned with successors().
     * Empty until a profile is applied.
     */
    std::vector<double> &edgeWeights() { return edge_weights_; }
    const std::vector<double> &edgeWeights() const { return edge_weights_; }

    /**
     * The original block this one was (transitively) tail-duplicated
     * from; its own id when it is not a duplicate.
     */
    BlockId originalId() const { return original_id_; }

  private:
    friend class Function;

    BlockId id_;
    BlockId original_id_ = kNoBlock;
    std::vector<Op> ops_;
    std::vector<BlockId> preds_;
    double weight_ = 0.0;
    std::vector<double> edge_weights_;
};

} // namespace treegion::ir

#endif // TREEGION_IR_BASIC_BLOCK_H
