/**
 * @file
 * What the region-growing formation schemes share, internal to
 * src/region: the root worklist that drives them, the hottest
 * successor pick, and DESIGN §5's "sibling duplication, never
 * unrolling" check.
 */

#ifndef TREEGION_REGION_GROWTH_H
#define TREEGION_REGION_GROWTH_H

#include <deque>
#include <optional>
#include <utility>

#include "region/region.h"

namespace treegion::region {

/**
 * The root worklist of treeform (paper Fig. 2), which SLR and
 * hyperblock formation share: grow a region from the entry, queue its
 * uncovered saplings first in, first out, and grow one from each in
 * turn. Then do the same from every block the entry walk missed
 * (unreachable code in hand-written IR), in id order.
 *
 * @param grow the scheme's growth rule, called as
 *        `Region grow(const RegionSet &formed, ir::BlockId root)` for
 *        a live root that no region formed so far covers
 */
template <typename Grow>
RegionSet
growRegions(ir::Function &fn, Grow &&grow)
{
    RegionSet set;
    std::deque<ir::BlockId> roots = {fn.entry()};
    auto drain = [&] {
        while (!roots.empty()) {
            const ir::BlockId root = roots.front();
            roots.pop_front();
            if (!fn.hasBlock(root) || set.covered(root))
                continue;
            Region region = grow(std::as_const(set), root);
            for (const ir::BlockId sapling : region.saplings(fn)) {
                if (!set.covered(sapling))
                    roots.push_back(sapling);
            }
            set.add(std::move(region));
        }
    };
    drain();
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        if (!set.covered(b.id()))
            roots.push_back(b.id());
    });
    drain();
    return set;
}

/**
 * The target slot of @p b with the largest profile edge weight (ties:
 * the first slot) and that weight, or nullopt when @p b has no
 * targets.
 */
inline std::optional<std::pair<size_t, double>>
bestSuccessorSlot(const ir::BasicBlock &b)
{
    const auto &targets = b.terminator().targets;
    if (targets.empty())
        return std::nullopt;
    const auto &weights = b.edgeWeights();
    std::pair<size_t, double> best{0, -1.0};
    for (size_t i = 0; i < targets.size(); ++i) {
        const double w = i < weights.size() ? weights[i] : 0.0;
        if (w > best.second)
            best = {i, w};
    }
    return best;
}

/**
 * Would a copy of @p id placed below member @p from repeat @p id's
 * original block on the path from @p from up to @p region's root?
 * Duplicating a block into *sibling* subtrees is ordinary tail
 * duplication (the paper's Fig. 12 turns every CFG path into a unique
 * tree path); repeating it along one path would be loop unrolling,
 * which the paper does not perform (DESIGN §5).
 */
inline bool
repeatsAlongPath(ir::Function &fn, const Region &region,
                 ir::BlockId from, ir::BlockId id)
{
    const ir::BlockId orig = fn.block(id).originalId();
    for (ir::BlockId walk = from; walk != ir::kNoBlock;
         walk = region.parentOf(walk)) {
        if (fn.block(walk).originalId() == orig)
            return true;
    }
    return false;
}

} // namespace treegion::region

#endif // TREEGION_REGION_GROWTH_H
