#include "region/formation.h"

#include <algorithm>

#include "region/growth.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

RegionSet
formSuperblocks(ir::Function &fn, const SuperblockOptions &options)
{
    RegionSet set;

    // Seed selection: the hottest not-yet-covered block. Tail
    // duplication creates clones during formation; they join the
    // candidate pool automatically.
    auto next_seed = [&]() {
        BlockId best = kNoBlock;
        double best_w = -1.0;
        fn.forEachBlock([&](const ir::BasicBlock &b) {
            if (set.covered(b.id()))
                return;
            if (b.weight() > best_w) {
                best_w = b.weight();
                best = b.id();
            }
        });
        return best;
    };

    for (;;) {
        const BlockId seed = next_seed();
        if (seed == kNoBlock)
            break;

        Region sb(RegionKind::Superblock, seed);
        BlockId cur = seed;
        while (sb.size() < options.max_blocks) {
            const auto best = bestSuccessorSlot(fn.block(cur));
            if (!best)
                break;
            const auto [slot, edge_w] = *best;
            const BlockId next = fn.block(cur).terminator().targets[slot];
            // A trace is linear, so the path up from its last block
            // covers the whole superblock.
            if (next == kNoBlock || next == fn.entry() ||
                set.covered(next) || sb.contains(next) ||
                repeatsAlongPath(fn, sb, cur, next)) {
                break;
            }
            if (fn.isMergePoint(next)) {
                // Duplicating code that never runs is pure waste;
                // cold traces grow like SLRs instead (stop at the
                // merge point). Lukewarm edges below the trace-
                // selection threshold also stop growth.
                if (edge_w <= options.cold_edge_weight)
                    break;
                const double block_w = fn.block(cur).weight();
                if (block_w > 0.0 &&
                    edge_w < options.min_edge_prob * block_w) {
                    break;
                }
                // Hwu/Chang mutual-most-likely: the merge point joins
                // the trace only when this edge is its strongest
                // incoming edge (otherwise the trace through the
                // dominant predecessor gets it).
                if (options.mutual_most_likely) {
                    double in_flow = 0.0;
                    for (const BlockId pred : fn.predsOf(next)) {
                        const auto &pt = fn.block(pred).terminator();
                        const auto &pw = fn.block(pred).edgeWeights();
                        for (size_t s = 0; s < pt.targets.size(); ++s) {
                            if (pt.targets[s] == next &&
                                s < pw.size() &&
                                !(pred == cur && s == slot)) {
                                in_flow = std::max(in_flow, pw[s]);
                            }
                        }
                    }
                    if (edge_w < in_flow)
                        break;
                }
                const BlockId clone = tailDuplicateEdge(fn, cur, slot);
                sb.addBlock(clone, cur);
                if (fn.predsOf(next).empty())
                    orphanSweep(fn, set, next);
                cur = clone;
            } else {
                sb.addBlock(next, cur);
                cur = next;
            }
        }
        set.add(std::move(sb));
    }
    return set;
}

} // namespace treegion::region
