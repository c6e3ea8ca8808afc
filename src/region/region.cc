#include "region/region.h"

#include <algorithm>

#include "support/logging.h"
#include "support/string_utils.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

std::string
regionKindName(RegionKind kind)
{
    switch (kind) {
      case RegionKind::BasicBlock: return "bb";
      case RegionKind::Slr: return "slr";
      case RegionKind::Superblock: return "sb";
      case RegionKind::Treegion: return "tree";
      case RegionKind::Hyperblock: return "hyper";
    }
    TG_PANIC("bad RegionKind");
}

Region::Region(RegionKind kind, BlockId root)
    : kind_(kind), root_(root)
{
    addBlock(root, kNoBlock);
}

bool
Region::contains(BlockId id) const
{
    return parent_.count(id) != 0;
}

BlockId
Region::parentOf(BlockId id) const
{
    auto it = parent_.find(id);
    TG_ASSERT(it != parent_.end());
    return it->second;
}

const std::vector<BlockId> &
Region::childrenOf(BlockId id) const
{
    static const std::vector<BlockId> kEmpty;
    auto it = children_.find(id);
    return it == children_.end() ? kEmpty : it->second;
}

void
Region::addBlock(BlockId id, BlockId parent)
{
    TG_ASSERT(!contains(id));
    // The new block is a leaf; a parent that was one stops being one.
    if (parent == kNoBlock) {
        TG_ASSERT(blocks_.empty() && id == root_);
        ++leaves_;
    } else {
        TG_ASSERT(contains(parent));
        std::vector<BlockId> &kids = children_[parent];
        if (!kids.empty())
            ++leaves_;
        kids.push_back(id);
    }
    parent_[id] = parent;
    blocks_.push_back(id);
}

void
Region::addBlockDag(BlockId id, const std::vector<BlockId> &parents)
{
    TG_ASSERT(kind_ == RegionKind::Hyperblock);
    TG_ASSERT(!contains(id) && !parents.empty());
    for (const BlockId parent : parents) {
        TG_ASSERT(contains(parent));
        children_[parent].push_back(id);
    }
    parent_[id] = parents.front();
    blocks_.push_back(id);
}

size_t
Region::pathCount() const
{
    if (kind_ != RegionKind::Hyperblock)
        return leaves_;
    // DAG: count distinct root-to-leaf paths (memoized; the region is
    // acyclic by construction). Saturate to avoid overflow.
    std::unordered_map<BlockId, size_t> memo;
    auto count = [&](auto &&self, BlockId id) -> size_t {
        auto it = memo.find(id);
        if (it != memo.end())
            return it->second;
        const auto &kids = childrenOf(id);
        size_t total = 0;
        if (kids.empty()) {
            total = 1;
        } else {
            for (const BlockId child : kids) {
                total += self(self, child);
                if (total > (size_t{1} << 30))
                    total = size_t{1} << 30;
            }
        }
        memo[id] = total;
        return total;
    };
    return count(count, root_);
}

bool
Region::isInternalEdge(ir::Function &fn, BlockId from, size_t slot) const
{
    const auto &targets = fn.block(from).terminator().targets;
    TG_ASSERT(slot < targets.size());
    const BlockId target = targets[slot];
    if (target == kNoBlock || !contains(target) || target == root_)
        return false;
    if (kind_ == RegionKind::Hyperblock) {
        // Every edge to a non-root member is internal: formation only
        // absorbs blocks whose predecessors are all inside.
        return true;
    }
    return parentOf(target) == from;
}

std::vector<RegionExit>
Region::exits(ir::Function &fn) const
{
    std::vector<RegionExit> out;
    for (const BlockId id : blocks_) {
        const ir::Op &term = fn.block(id).terminator();
        const auto &weights = fn.block(id).edgeWeights();
        if (term.opcode == ir::Opcode::RET) {
            out.push_back({id, 0, kNoBlock, true,
                           fn.block(id).weight()});
            continue;
        }
        for (size_t slot = 0; slot < term.targets.size(); ++slot) {
            if (isInternalEdge(fn, id, slot))
                continue;
            const double w =
                slot < weights.size() ? weights[slot] : 0.0;
            out.push_back({id, slot, term.targets[slot], false, w});
        }
    }
    return out;
}

std::vector<BlockId>
Region::saplings(ir::Function &fn) const
{
    std::vector<BlockId> out;
    for (const RegionExit &exit : exits(fn)) {
        if (exit.is_ret || exit.target == kNoBlock)
            continue;
        if (std::find(out.begin(), out.end(), exit.target) == out.end())
            out.push_back(exit.target);
    }
    return out;
}

size_t
Region::totalOps(const ir::Function &fn) const
{
    size_t n = 0;
    for (const BlockId id : blocks_)
        n += fn.block(id).ops().size();
    return n;
}

void
RegionSet::add(Region r)
{
    const size_t idx = regions_.size();
    for (const BlockId id : r.blocks()) {
        TG_ASSERT(!covered(id));
        block_to_region_[id] = idx;
    }
    regions_.push_back(std::move(r));
}

size_t
RegionSet::regionIndexOf(BlockId id) const
{
    auto it = block_to_region_.find(id);
    return it == block_to_region_.end() ? npos : it->second;
}

bool
RegionSet::covered(BlockId id) const
{
    return block_to_region_.count(id) != 0;
}

std::vector<std::string>
RegionSet::validate(ir::Function &fn) const
{
    using support::strprintf;
    std::vector<std::string> problems;

    // Every live block is covered exactly once (uniqueness is
    // enforced structurally by add()).
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        if (!covered(b.id()))
            problems.push_back(
                strprintf("bb%u not covered by any region", b.id()));
    });

    for (size_t i = 0; i < regions_.size(); ++i) {
        const Region &r = regions_[i];
        for (const BlockId id : r.blocks()) {
            if (!fn.hasBlock(id)) {
                problems.push_back(strprintf(
                    "region %zu contains dead block bb%u", i, id));
                continue;
            }
            const BlockId parent = r.parentOf(id);
            if (id == r.root()) {
                if (parent != kNoBlock)
                    problems.push_back(strprintf(
                        "region %zu root bb%u has a parent", i, id));
                continue;
            }
            if (r.kind() == RegionKind::Hyperblock) {
                // Non-root members may merge, but every predecessor
                // must be inside the region (single entry).
                for (const BlockId pred : fn.predsOf(id)) {
                    if (!r.contains(pred)) {
                        problems.push_back(strprintf(
                            "region %zu hyperblock member bb%u has an "
                            "outside predecessor bb%u", i, id, pred));
                    }
                }
                continue;
            }
            // Non-root members must have the tree parent as their
            // sole CFG predecessor (no internal merge points).
            const auto &preds = fn.predsOf(id);
            if (preds.size() != 1 || preds[0] != parent) {
                problems.push_back(strprintf(
                    "region %zu member bb%u is a merge point or has "
                    "wrong parent", i, id));
            }
        }
    }
    return problems;
}

} // namespace treegion::region
