#include "ir/function.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::ir {

Function::Function(std::string name)
    : name_(std::move(name))
{
}

BlockId
Function::createBlock()
{
    const BlockId id = static_cast<BlockId>(blocks_.size());
    blocks_.push_back(std::make_unique<BasicBlock>(id));
    blocks_.back()->original_id_ = id;
    // No block targets a new id, and it has no terminator yet: every
    // predecessor list stays as it was.
    return id;
}

BlockId
Function::cloneBlock(BlockId src)
{
    const BlockId id = createBlock();
    BasicBlock &dst_block = *blocks_[id];
    BasicBlock &src_block = block(src);
    dst_block.weight_ = 0.0;
    dst_block.ops_.reserve(src_block.ops_.size());
    for (Op &orig : src_block.ops_) {
        // Link clone and original through a shared duplication group
        // so the scheduler can detect dominator parallelism.
        if (orig.dupGroup == 0)
            orig.dupGroup = freshDupGroup();
        Op clone = orig;
        clone.id = freshOpId();
        clone.home = id;
        dst_block.ops_.push_back(std::move(clone));
    }
    dst_block.edge_weights_ = src_block.edge_weights_;
    dst_block.original_id_ = src_block.original_id_;
    // The clone is the highest id, so its entries go last.
    if (preds_valid_ && dst_block.hasTerminator()) {
        for (const BlockId succ : dst_block.terminator().targets) {
            if (succ != kNoBlock)
                block(succ).preds_.push_back(id);
        }
    }
    return id;
}

BasicBlock &
Function::block(BlockId id)
{
    TG_ASSERT(hasBlock(id));
    return *blocks_[id];
}

const BasicBlock &
Function::block(BlockId id) const
{
    TG_ASSERT(id < blocks_.size() && blocks_[id]);
    return *blocks_[id];
}

bool
Function::hasBlock(BlockId id) const
{
    return id < blocks_.size() && blocks_[id] != nullptr;
}

std::vector<BlockId>
Function::blockIds() const
{
    std::vector<BlockId> ids;
    ids.reserve(blocks_.size());
    for (const auto &b : blocks_) {
        if (b)
            ids.push_back(b->id());
    }
    return ids;
}

void
Function::setEntry(BlockId id)
{
    TG_ASSERT(hasBlock(id));
    entry_ = id;
}

Op &
Function::appendOp(BlockId id, Op op)
{
    BasicBlock &b = block(id);
    TG_ASSERT(!b.hasTerminator());
    TG_ASSERT(!op.isBranch());
    op.id = freshOpId();
    op.home = id;
    b.ops_.push_back(std::move(op));
    return b.ops_.back();
}

Op &
Function::appendTerminator(BlockId id, Op op)
{
    BasicBlock &b = block(id);
    TG_ASSERT(!b.hasTerminator());
    TG_ASSERT(op.isBranch());
    op.id = freshOpId();
    op.home = id;
    b.ops_.push_back(std::move(op));
    preds_valid_ = false;
    return b.ops_.back();
}

void
Function::replaceTerminator(BlockId id, Op op)
{
    BasicBlock &b = block(id);
    TG_ASSERT(b.hasTerminator());
    TG_ASSERT(op.isBranch());
    op.id = freshOpId();
    op.home = id;
    b.ops_.back() = std::move(op);
    b.edge_weights_.clear();
    preds_valid_ = false;
}

void
Function::retargetEdge(BlockId from, BlockId old_to, BlockId new_to)
{
    const auto &targets = block(from).terminator().targets;
    auto it = std::find(targets.begin(), targets.end(), old_to);
    TG_ASSERT(it != targets.end());
    retargetSlot(from, static_cast<size_t>(it - targets.begin()),
                 new_to);
}

void
Function::retargetSlot(BlockId from, size_t slot, BlockId new_to)
{
    auto &targets = block(from).terminator().targets;
    TG_ASSERT(slot < targets.size());
    const BlockId old_to = targets[slot];
    targets[slot] = new_to;
    if (!preds_valid_)
        return;
    // One entry of `from` moves from old_to's list to new_to's, at
    // its place in ascending order.
    if (old_to != kNoBlock) {
        auto &preds = block(old_to).preds_;
        const auto it = std::find(preds.begin(), preds.end(), from);
        TG_ASSERT(it != preds.end());
        preds.erase(it);
    }
    if (new_to != kNoBlock) {
        auto &preds = block(new_to).preds_;
        preds.insert(std::upper_bound(preds.begin(), preds.end(), from),
                     from);
    }
}

void
Function::removeBlock(BlockId id)
{
    TG_ASSERT(hasBlock(id));
    TG_ASSERT(predsOf(id).empty());
    TG_ASSERT(id != entry_);
    // The successors lose their entries for the block. (Stale lists
    // may be edited too: the next query rebuilds them.)
    for (const BlockId succ : blocks_[id]->successors()) {
        if (succ != kNoBlock) {
            auto &preds = block(succ).preds_;
            preds.erase(std::remove(preds.begin(), preds.end(), id),
                        preds.end());
        }
    }
    blocks_[id].reset();
}

std::vector<BlockId>
Function::removeUnreachableBlocks()
{
    std::vector<bool> reachable(blocks_.size(), false);
    std::vector<BlockId> stack = {entry_};
    while (!stack.empty()) {
        const BlockId id = stack.back();
        stack.pop_back();
        if (id >= blocks_.size() || !blocks_[id] || reachable[id])
            continue;
        reachable[id] = true;
        for (const BlockId succ : blocks_[id]->successors()) {
            if (succ != kNoBlock)
                stack.push_back(succ);
        }
    }
    std::vector<BlockId> removed;
    for (BlockId id = 0; id < blocks_.size(); ++id) {
        if (blocks_[id] && !reachable[id]) {
            blocks_[id].reset();
            removed.push_back(id);
        }
    }
    if (!removed.empty())
        preds_valid_ = false;
    return removed;
}

Function
Function::clone() const
{
    Function copy(name_);
    copy.blocks_.reserve(blocks_.size());
    for (const auto &b : blocks_) {
        if (!b) {
            copy.blocks_.push_back(nullptr);
            continue;
        }
        auto nb = std::make_unique<BasicBlock>(b->id());
        *nb = *b;
        copy.blocks_.push_back(std::move(nb));
    }
    copy.entry_ = entry_;
    copy.preds_valid_ = preds_valid_;  // the blocks carry their lists
    copy.next_gpr_ = next_gpr_;
    copy.next_pred_ = next_pred_;
    copy.next_btr_ = next_btr_;
    copy.next_op_id_ = next_op_id_;
    copy.next_dup_group_ = next_dup_group_;
    return copy;
}

const std::vector<BlockId> &
Function::predsOf(BlockId id)
{
    if (!preds_valid_)
        rebuildPreds();
    return block(id).preds_;
}

bool
Function::isMergePoint(BlockId id)
{
    return predsOf(id).size() > 1;
}

void
Function::reserveRegs(uint32_t gprs, uint32_t preds, uint32_t btrs)
{
    next_gpr_ = std::max(next_gpr_, gprs);
    next_pred_ = std::max(next_pred_, preds);
    next_btr_ = std::max(next_btr_, btrs);
}

size_t
Function::totalOps() const
{
    size_t n = 0;
    forEachBlock([&](const BasicBlock &b) { n += b.ops().size(); });
    return n;
}

void
Function::rebuildPreds()
{
    for (auto &b : blocks_) {
        if (b)
            b->preds_.clear();
    }
    for (auto &b : blocks_) {
        if (!b || !b->hasTerminator())
            continue;
        for (BlockId succ : b->successors()) {
            if (succ != kNoBlock)
                block(succ).preds_.push_back(b->id());
        }
    }
    preds_valid_ = true;
}

} // namespace treegion::ir
