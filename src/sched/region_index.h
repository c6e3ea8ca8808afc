/**
 * @file
 * Dense index over a lowered region for the scheduling hot path.
 *
 * The member blocks are numbered by their position in the lowering's
 * flat RegionTree, which also answers the BlockId lookups and the
 * in-region successors. RegionIndex adds the per-block facts the DDG
 * and priority passes walk — homed ops and exits — as CSR arrays in a
 * per-job arena, so every lookup in their inner loops is an array
 * index (DESIGN.md §11).
 */

#ifndef TREEGION_SCHED_REGION_INDEX_H
#define TREEGION_SCHED_REGION_INDEX_H

#include <cstdint>

#include "sched/lowering.h"
#include "support/arena.h"

namespace treegion::sched {

/** Dense block renumbering + CSR side tables for one lowered region. */
class RegionIndex
{
  public:
    /** Index @p lowered, whose tree must outlive this object. */
    RegionIndex(const LoweredRegion &lowered, support::Arena &arena);

    /** @return member block count. */
    size_t numBlocks() const { return tree_->size(); }

    /** @return dense index of @p id, or RegionTree::kNone. */
    uint32_t indexOf(ir::BlockId id) const { return tree_->position(id); }

    /** @return the BlockId of dense index @p bi. */
    ir::BlockId blockOf(uint32_t bi) const { return tree_->block(bi); }

    /** In-region successors of @p bi (dense indices, lowering order). */
    support::Span<uint32_t>
    succs(uint32_t bi) const
    {
        return tree_->succs(bi);
    }

    /** Lowered-op indices homed in @p bi, in emission order. */
    support::Span<uint32_t>
    opsIn(uint32_t bi) const
    {
        return {op_list_ + op_off_[bi], op_off_[bi + 1] - op_off_[bi]};
    }

    /** LoweredRegion::exits indices homed in @p bi, in exit order. */
    support::Span<uint32_t>
    exitsIn(uint32_t bi) const
    {
        return {exit_list_ + exit_off_[bi],
                exit_off_[bi + 1] - exit_off_[bi]};
    }

    /**
     * Append every block reachable from @p bi through in-region
     * successors — including @p bi — to @p out, each once. Scratch
     * comes from the index's arena.
     */
    void reachableFrom(uint32_t bi,
                       support::ArenaVector<uint32_t> &out) const;

  private:
    support::Arena *arena_;
    const RegionTree *tree_;
    uint32_t *op_off_ = nullptr;
    uint32_t *op_list_ = nullptr;
    uint32_t *exit_off_ = nullptr;
    uint32_t *exit_list_ = nullptr;
};

} // namespace treegion::sched

#endif // TREEGION_SCHED_REGION_INDEX_H
