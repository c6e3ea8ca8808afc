/**
 * @file
 * A function: the CFG over basic blocks plus virtual register state.
 */

#ifndef TREEGION_IR_FUNCTION_H
#define TREEGION_IR_FUNCTION_H

#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"

namespace treegion::ir {

/**
 * A single-entry control flow graph of basic blocks.
 *
 * Block ids are stable and never reused. Predecessor lists are built
 * on the first query after they go stale. The edits tail duplication
 * makes (createBlock, cloneBlock, retargetSlot, retargetEdge,
 * removeBlock) then keep them current in place, in the ascending
 * order a rebuild produces, so a formation loop never rebuilds them.
 * appendTerminator, replaceTerminator and removeUnreachableBlocks
 * mark them stale, and so must any manual terminator edit
 * (invalidatePreds()).
 */
class Function
{
  public:
    /** Construct an empty function called @p name. */
    explicit Function(std::string name);

    Function(const Function &) = delete;
    Function &operator=(const Function &) = delete;
    Function(Function &&) = default;
    Function &operator=(Function &&) = default;

    /** @return the function name. */
    const std::string &name() const { return name_; }

    /** Create a new block and @return its id. */
    BlockId createBlock();

    /**
     * Clone @p src into a fresh block (ops copied with fresh op ids;
     * dupGroup links each clone to its original). Used by tail
     * duplication.
     *
     * @return the new block's id
     */
    BlockId cloneBlock(BlockId src);

    /** @return block @p id; asserts it exists. */
    BasicBlock &block(BlockId id);
    const BasicBlock &block(BlockId id) const;

    /** @return number of block ids allocated (including removed). */
    size_t numBlockIds() const { return blocks_.size(); }

    /** @return true if @p id names a live block. */
    bool hasBlock(BlockId id) const;

    /** Visit every live block in id order. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const auto &b : blocks_) {
            if (b)
                fn(*b);
        }
    }

    /** Visit every live block in id order (mutable). */
    template <typename Fn>
    void
    forEachBlockMut(Fn &&fn)
    {
        for (auto &b : blocks_) {
            if (b)
                fn(*b);
        }
    }

    /** @return ids of all live blocks, ascending. */
    std::vector<BlockId> blockIds() const;

    /** @return the entry block id. */
    BlockId entry() const { return entry_; }

    /** Set the entry block. */
    void setEntry(BlockId id);

    /** Append a non-terminator op to @p id (fills op id and home). */
    Op &appendOp(BlockId id, Op op);

    /** Append the terminator to @p id (fills op id and home). */
    Op &appendTerminator(BlockId id, Op op);

    /** Replace the terminator of @p id. */
    void replaceTerminator(BlockId id, Op op);

    /**
     * Retarget one edge: the first occurrence of @p old_to in
     * @p from's terminator targets becomes @p new_to.
     */
    void retargetEdge(BlockId from, BlockId old_to, BlockId new_to);

    /** Retarget target slot @p slot of @p from's terminator to
     * @p new_to. */
    void retargetSlot(BlockId from, size_t slot, BlockId new_to);

    /** Remove an unreachable block (asserts it has no preds). */
    void removeBlock(BlockId id);

    /**
     * Remove every block not reachable from the entry (e.g. originals
     * orphaned by tail duplication). @return ids removed.
     */
    std::vector<BlockId> removeUnreachableBlocks();

    /** Deep-copy this function (same block/op ids and registers). */
    Function clone() const;

    /** Mark predecessor lists stale after a manual terminator edit. */
    void invalidatePreds() { preds_valid_ = false; }

    /** @return predecessors of @p id (rebuilding if stale). */
    const std::vector<BlockId> &predsOf(BlockId id);

    /** @return true if @p id has more than one predecessor. */
    bool isMergePoint(BlockId id);

    /** Allocate a fresh virtual GPR. */
    Reg freshGpr() { return gpr(next_gpr_++); }

    /** Allocate a fresh virtual predicate register. */
    Reg freshPred() { return pred(next_pred_++); }

    /** Allocate a fresh virtual branch target register. */
    Reg freshBtr() { return btr(next_btr_++); }

    /** Allocate a fresh op id. */
    OpId freshOpId() { return next_op_id_++; }

    /** Allocate a fresh tail-duplication group id. */
    uint32_t freshDupGroup() { return next_dup_group_++; }

    /** @return one-past-the-max virtual GPR index. */
    uint32_t numGprs() const { return next_gpr_; }

    /** @return one-past-the-max virtual predicate index. */
    uint32_t numPreds() const { return next_pred_; }

    /** @return one-past-the-max branch-target register index. */
    uint32_t numBtrs() const { return next_btr_; }

    /** @return one past the last op id freshOpId() handed out. */
    OpId numOpIds() const { return next_op_id_; }

    /** Reserve register name space at least up to the given counts. */
    void reserveRegs(uint32_t gprs, uint32_t preds, uint32_t btrs);

    /** @return total op count over live blocks. */
    size_t totalOps() const;

  private:
    void rebuildPreds();

    std::string name_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    BlockId entry_ = kNoBlock;
    bool preds_valid_ = false;
    uint32_t next_gpr_ = 0;
    uint32_t next_pred_ = 0;
    uint32_t next_btr_ = 0;
    OpId next_op_id_ = 0;
    uint32_t next_dup_group_ = 1;
};

} // namespace treegion::ir

#endif // TREEGION_IR_FUNCTION_H
