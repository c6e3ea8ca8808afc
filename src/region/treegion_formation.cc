#include "region/formation.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "region/growth.h"
#include "support/remarks.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

namespace {

/**
 * absorb-into-tree (paper Fig. 2): flood from @p start, absorbing
 * every successor that is not a merge point and not claimed by
 * another region. Successors go on top of a candidate stack, first
 * successor on top, matching the paper's depth-first growth.
 */
void
absorbIntoTree(ir::Function &fn, const RegionSet &set, Region &tree,
               BlockId start, BlockId start_parent)
{
    std::vector<std::pair<BlockId, BlockId>> candidates;  // (node, parent)
    candidates.emplace_back(start, start_parent);
    while (!candidates.empty()) {
        const auto [node, parent] = candidates.back();
        candidates.pop_back();
        if (tree.contains(node))
            continue;
        const bool merge = fn.isMergePoint(node);
        if (merge || set.covered(node)) {
            support::remark(support::RemarkKind::GrowthStopped)
                .block(node)
                .arg("root", tree.root())
                .arg("from", parent)
                .arg("reason", merge ? "merge-point" : "claimed");
            continue;
        }

        tree.addBlock(node, parent);
        support::remark(support::RemarkKind::BlockAccepted)
            .block(node)
            .arg("root", tree.root())
            .arg("parent", parent);
        const auto &succs = fn.block(node).successors();
        for (auto it = succs.rbegin(); it != succs.rend(); ++it) {
            if (*it != kNoBlock && !tree.contains(*it))
                candidates.emplace_back(*it, node);
        }
    }
}

/**
 * Ops over the non-duplicated members of @p tree: the "original code
 * size per treegion" the paper's expansion limit is measured against.
 * Tail-duplicated clones add to the region's total op count but not
 * to this base, so the ratio grows with every duplication.
 */
size_t
originalMemberOps(ir::Function &fn, const Region &tree)
{
    size_t ops = 0;
    for (const BlockId id : tree.blocks()) {
        const ir::BasicBlock &b = fn.block(id);
        if (b.originalId() == id)
            ops += b.ops().size();
    }
    return ops;
}

/**
 * Fig. 11's inner loop: repeatedly select a qualifying sapling, tail
 * duplicate it (or absorb it directly once it has a single
 * predecessor), until no sapling qualifies or a limit trips.
 */
void
expandWithTailDuplication(ir::Function &fn, const RegionSet &set,
                          Region &tree, const TailDupLimits &limits)
{
    // The selection loop re-scans every exit edge after each
    // duplication, so a refused edge would re-refuse once per round;
    // dedupe on (from, sapling, reason) to report each refusal once.
    std::set<std::tuple<BlockId, BlockId, const char *>> refused;
    auto freshRefusal = [&](BlockId from, BlockId sapling,
                            const char *why) {
        return support::remarksEnabled() &&
               refused.emplace(from, sapling, why).second;
    };

    for (;;) {
        if (tree.pathCount() > limits.path_limit) {
            support::remark(support::RemarkKind::TailDupStopped)
                .block(tree.root())
                .arg("reason", "path-limit")
                .arg("paths", tree.pathCount())
                .arg("cap", limits.path_limit);
            break;
        }
        if (tree.size() >= limits.max_region_blocks) {
            support::remark(support::RemarkKind::TailDupStopped)
                .block(tree.root())
                .arg("reason", "max-blocks")
                .arg("blocks", tree.size())
                .arg("cap", limits.max_region_blocks);
            break;
        }

        // Select the first qualifying exit edge (Fig. 11's "for each
        // sapling ... use this sapling", generalized to edges because
        // a sapling may qualify below one leaf but repeat an original
        // below another). Edges are visited hottest first so the
        // expansion budget extends the frequently executed paths
        // before cold ones, mirroring how trace-based superblock
        // formation spends its duplication.
        auto exits = tree.exits(fn);
        std::stable_sort(exits.begin(), exits.end(),
                         [](const RegionExit &a, const RegionExit &b) {
                             return a.weight > b.weight;
                         });
        BlockId selected = kNoBlock;
        BlockId from = kNoBlock;
        size_t slot = 0;
        for (const RegionExit &exit : exits) {
            if (exit.is_ret || exit.target == kNoBlock)
                continue;
            const BlockId sapling = exit.target;
            if (set.covered(sapling) || tree.contains(sapling))
                continue;
            if (repeatsAlongPath(fn, tree, exit.from, sapling)) {
                if (freshRefusal(exit.from, sapling,
                                 "repeats-along-path")) {
                    support::remark(
                        support::RemarkKind::TailDupRefused)
                        .block(sapling)
                        .arg("root", tree.root())
                        .arg("from", exit.from)
                        .arg("reason", "repeats-along-path");
                }
                continue;
            }
            const size_t merge_count = fn.predsOf(sapling).size();
            const bool is_function_exit =
                fn.block(sapling).successors().empty();
            if (merge_count > limits.merge_limit &&
                !is_function_exit) {
                if (freshRefusal(exit.from, sapling, "merge-limit")) {
                    support::remark(
                        support::RemarkKind::TailDupRefused)
                        .block(sapling)
                        .arg("root", tree.root())
                        .arg("from", exit.from)
                        .arg("reason", "merge-limit")
                        .arg("preds", merge_count)
                        .arg("cap", limits.merge_limit);
                }
                continue;
            }
            // Conservative code-expansion pre-check ("might be
            // exceeded"): absorbing one copy of the sapling must keep
            // the region's op count within the limit relative to its
            // non-duplicated code. A direct absorb of a sapling that
            // is not itself a clone enlarges the base as well.
            const bool will_clone = fn.isMergePoint(sapling);
            const ir::BasicBlock &sap = fn.block(sapling);
            const size_t sapling_ops = sap.ops().size();
            const size_t base_gain =
                (!will_clone && sap.originalId() == sapling)
                    ? sapling_ops
                    : 0;
            const double cur_ops =
                static_cast<double>(tree.totalOps(fn) + sapling_ops);
            const double orig_ops = static_cast<double>(
                originalMemberOps(fn, tree) + base_gain);
            if (orig_ops <= 0.0 ||
                cur_ops > limits.expansion_limit * orig_ops) {
                if (freshRefusal(exit.from, sapling,
                                 "expansion-limit")) {
                    support::remark(
                        support::RemarkKind::TailDupRefused)
                        .block(sapling)
                        .arg("root", tree.root())
                        .arg("from", exit.from)
                        .arg("reason", "expansion-limit")
                        .arg("ops", cur_ops)
                        .arg("base", orig_ops)
                        .arg("cap", limits.expansion_limit);
                }
                continue;
            }
            selected = sapling;
            from = exit.from;
            slot = exit.target_slot;
            break;
        }
        if (selected == kNoBlock) {
            support::remark(support::RemarkKind::TailDupStopped)
                .block(tree.root())
                .arg("reason", "no-candidate");
            break;
        }

        if (fn.isMergePoint(selected)) {
            const BlockId clone = tailDuplicateEdge(fn, from, slot);
            support::remark(support::RemarkKind::TailDuplicated)
                .block(selected)
                .arg("root", tree.root())
                .arg("from", from)
                .arg("clone", clone);
            absorbIntoTree(fn, set, tree, clone, from);
            // The original may have lost its last predecessor.
            if (fn.predsOf(selected).empty())
                orphanSweep(fn, set, selected);
        } else {
            absorbIntoTree(fn, set, tree, selected, from);
        }
    }
}

/** treeform's growth rule (Fig. 2), with Fig. 11's expansion when
 * @p limits is given. */
RegionSet
treeformImpl(ir::Function &fn, const TailDupLimits *limits)
{
    return growRegions(fn, [&](const RegionSet &set, BlockId root) {
        Region tree(RegionKind::Treegion, root);
        for (const BlockId succ : fn.block(root).successors()) {
            if (succ != kNoBlock)
                absorbIntoTree(fn, set, tree, succ, root);
        }
        if (limits)
            expandWithTailDuplication(fn, set, tree, *limits);
        if (auto r = support::remark(support::RemarkKind::RegionFormed);
            r.live()) {
            r.block(root)
                .arg("blocks", tree.size())
                .arg("paths", tree.pathCount())
                .arg("ops", tree.totalOps(fn));
        }
        return tree;
    });
}

} // namespace

RegionSet
formTreegions(ir::Function &fn)
{
    return treeformImpl(fn, nullptr);
}

RegionSet
formTreegionsTailDup(ir::Function &fn, const TailDupLimits &limits)
{
    return treeformImpl(fn, &limits);
}

} // namespace treegion::region
