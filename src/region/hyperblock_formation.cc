#include "region/formation.h"

#include <algorithm>

#include "region/growth.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

namespace {

/**
 * Pick the next block to absorb into @p hyper: an uncovered
 * non-member whose CFG predecessors are all members (keeping the
 * region single-entry and acyclic), whose profile weight clears the
 * selection threshold, and whose absorption respects the block and
 * path limits.
 */
BlockId
selectCandidate(ir::Function &fn, const RegionSet &set,
                const Region &hyper, const HyperblockOptions &options)
{
    const double root_weight = fn.block(hyper.root()).weight();
    for (const RegionExit &exit : hyper.exits(fn)) {
        if (exit.is_ret || exit.target == kNoBlock)
            continue;
        const BlockId cand = exit.target;
        if (hyper.contains(cand) || set.covered(cand))
            continue;
        bool all_preds_inside = true;
        for (const BlockId pred : fn.predsOf(cand)) {
            if (!hyper.contains(pred)) {
                all_preds_inside = false;
                break;
            }
        }
        if (!all_preds_inside)
            continue;
        // Mahlke-style block selection: only include blocks whose
        // execution frequency is comparable to the region's.
        if (fn.block(cand).weight() <
            options.min_weight_ratio * root_weight) {
            continue;
        }
        return cand;
    }
    return kNoBlock;
}

} // namespace

RegionSet
formHyperblocks(ir::Function &fn, const HyperblockOptions &options)
{
    return growRegions(fn, [&](const RegionSet &set, BlockId root) {
        Region hyper(RegionKind::Hyperblock, root);
        while (hyper.size() < options.max_blocks &&
               hyper.pathCount() <= options.path_limit) {
            const BlockId cand =
                selectCandidate(fn, set, hyper, options);
            if (cand == kNoBlock)
                break;
            std::vector<BlockId> parents = fn.predsOf(cand);
            std::sort(parents.begin(), parents.end());
            parents.erase(std::unique(parents.begin(), parents.end()),
                          parents.end());
            hyper.addBlockDag(cand, parents);
        }
        return hyper;
    });
}

} // namespace treegion::region
