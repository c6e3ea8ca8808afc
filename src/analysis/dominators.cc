#include "analysis/dominators.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::analysis {

using ir::BlockId;
using ir::kNoBlock;

std::vector<BlockId>
reversePostorder(const ir::Function &fn)
{
    std::vector<BlockId> postorder;
    std::vector<uint8_t> seen(fn.numBlockIds(), 0);  // marked when pushed
    // Iterative DFS with an explicit stack of (block, next-succ-index).
    std::vector<std::pair<BlockId, size_t>> stack;
    stack.emplace_back(fn.entry(), 0);
    seen[fn.entry()] = 1;
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        const auto &succs = fn.block(id).successors();
        bool descended = false;
        while (next < succs.size()) {
            const BlockId succ = succs[next++];
            if (succ == kNoBlock || seen[succ])
                continue;
            seen[succ] = 1;
            stack.emplace_back(succ, 0);
            descended = true;
            break;
        }
        if (!descended && next >= succs.size()) {
            postorder.push_back(id);
            stack.pop_back();
        }
    }
    std::reverse(postorder.begin(), postorder.end());
    return postorder;
}

DominatorTree::DominatorTree(ir::Function &fn)
{
    rpo_ = analysis::reversePostorder(fn);
    for (size_t i = 0; i < rpo_.size(); ++i)
        rpo_index_[rpo_[i]] = i;

    // Cooper-Harvey-Kennedy iteration.
    idom_[fn.entry()] = fn.entry();

    auto intersect = [&](BlockId a, BlockId b) {
        while (a != b) {
            while (rpo_index_.at(a) > rpo_index_.at(b))
                a = idom_.at(a);
            while (rpo_index_.at(b) > rpo_index_.at(a))
                b = idom_.at(b);
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const BlockId id : rpo_) {
            if (id == fn.entry())
                continue;
            BlockId new_idom = kNoBlock;
            for (const BlockId pred : fn.predsOf(id)) {
                if (!rpo_index_.count(pred) || !idom_.count(pred))
                    continue;
                new_idom = (new_idom == kNoBlock)
                               ? pred
                               : intersect(new_idom, pred);
            }
            if (new_idom == kNoBlock)
                continue;
            auto it = idom_.find(id);
            if (it == idom_.end() || it->second != new_idom) {
                idom_[id] = new_idom;
                changed = true;
            }
        }
    }
    // Store the entry's idom as "none".
    idom_[fn.entry()] = kNoBlock;
}

BlockId
DominatorTree::idom(BlockId id) const
{
    auto it = idom_.find(id);
    return it == idom_.end() ? kNoBlock : it->second;
}

bool
DominatorTree::dominates(BlockId a, BlockId b) const
{
    if (!reachable(a) || !reachable(b))
        return false;
    while (b != kNoBlock) {
        if (a == b)
            return true;
        b = idom(b);
    }
    return false;
}

std::vector<BlockId>
DominatorTree::children(BlockId id) const
{
    std::vector<BlockId> out;
    for (const auto &[child, parent] : idom_) {
        if (parent == id)
            out.push_back(child);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
DominatorTree::reachable(BlockId id) const
{
    return rpo_index_.count(id) != 0;
}

} // namespace treegion::analysis
