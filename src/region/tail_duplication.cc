#include "region/tail_duplication.h"

#include <algorithm>
#include <deque>

#include "region/region.h"
#include "support/logging.h"

namespace treegion::region {

using ir::BasicBlock;
using ir::BlockId;

void
transferProfileFlow(ir::Function &fn, BlockId from, BlockId to,
                    double flow)
{
    BasicBlock &src = fn.block(from);
    BasicBlock &dst = fn.block(to);

    const double old_weight = src.weight();
    const double ratio =
        old_weight > 0.0 ? std::min(1.0, flow / old_weight) : 0.0;

    // The clone inherits the redirected flow, distributed over its
    // outgoing edges in the original's proportions.
    dst.setWeight(dst.weight() + flow);
    auto &dst_edges = dst.edgeWeights();
    dst_edges.assign(src.edgeWeights().size(), 0.0);
    for (size_t i = 0; i < dst_edges.size(); ++i)
        dst_edges[i] = src.edgeWeights()[i] * ratio;
    // With a zero-weight original, the redirected flow still has to
    // land somewhere; split it uniformly.
    if (old_weight <= 0.0 && !dst_edges.empty() && flow > 0.0) {
        for (double &w : dst_edges)
            w = flow / static_cast<double>(dst_edges.size());
    }

    // The original loses that flow.
    src.setWeight(std::max(0.0, old_weight - flow));
    for (double &w : src.edgeWeights())
        w *= (1.0 - ratio);
}

ir::BlockId
tailDuplicateEdge(ir::Function &fn, BlockId pred, size_t slot)
{
    BasicBlock &pb = fn.block(pred);
    const auto &targets = pb.terminator().targets;
    TG_ASSERT(slot < targets.size());
    const BlockId sapling = targets[slot];
    TG_ASSERT(sapling != ir::kNoBlock);

    const double edge_weight =
        slot < pb.edgeWeights().size() ? pb.edgeWeights()[slot] : 0.0;

    const BlockId clone = fn.cloneBlock(sapling);
    transferProfileFlow(fn, sapling, clone, edge_weight);

    // Redirect exactly this target slot.
    fn.retargetSlot(pred, slot, clone);
    return clone;
}

void
orphanSweep(ir::Function &fn, const RegionSet &set, BlockId start)
{
    std::deque<BlockId> work = {start};
    while (!work.empty()) {
        const BlockId id = work.front();
        work.pop_front();
        if (!fn.hasBlock(id) || set.covered(id) || id == fn.entry())
            continue;
        if (!fn.predsOf(id).empty())
            continue;
        const auto succs = fn.block(id).successors();
        fn.removeBlock(id);
        for (const BlockId succ : succs) {
            if (succ != ir::kNoBlock)
                work.push_back(succ);
        }
    }
}

} // namespace treegion::region
