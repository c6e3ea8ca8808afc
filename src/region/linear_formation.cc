#include "region/formation.h"

#include "region/growth.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

RegionSet
formBasicBlockRegions(ir::Function &fn)
{
    RegionSet set;
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        set.add(Region(RegionKind::BasicBlock, b.id()));
    });
    return set;
}

RegionSet
formSlrs(ir::Function &fn)
{
    return growRegions(fn, [&](const RegionSet &set, BlockId root) {
        Region slr(RegionKind::Slr, root);
        for (BlockId cur = root;;) {
            const auto best = bestSuccessorSlot(fn.block(cur));
            if (!best)
                break;
            const BlockId next =
                fn.block(cur).terminator().targets[best->first];
            if (next == kNoBlock || slr.contains(next) ||
                set.covered(next) || fn.isMergePoint(next)) {
                break;
            }
            slr.addBlock(next, cur);
            cur = next;
        }
        return slr;
    });
}

} // namespace treegion::region
