/**
 * @file
 * Dense index over a lowered region for the scheduling hot path.
 *
 * LoweredRegion keeps its control structure as hash maps keyed by
 * BlockId, which is the right shape for construction but too slow for
 * the DDG/priority inner loops. RegionIndex renumbers the region's
 * member blocks as contiguous small integers and rebuilds the
 * per-block facts (in-region successors, homed ops, exits) as CSR
 * arrays in a per-job arena — every lookup the DDG walks and the
 * priority pass perform becomes an array index (DESIGN.md §11). The
 * BlockId map spans only the region's own [lowest, highest] member
 * ids, not the function's block count.
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
    static constexpr uint32_t kInvalid = UINT32_MAX;

    RegionIndex(const LoweredRegion &lowered, support::Arena &arena);

    /** @return member block count. */
    size_t numBlocks() const { return num_blocks_; }

    /** @return dense index of @p id, or kInvalid for non-members. */
    uint32_t
    indexOf(ir::BlockId id) const
    {
        const uint32_t off = id - map_lo_;  // wraps below map_lo_
        return off < map_size_ ? block_index_[off] : kInvalid;
    }

    /** @return the BlockId of dense index @p bi. */
    ir::BlockId blockOf(uint32_t bi) const { return blocks_[bi]; }

    /** In-region successors of @p bi (dense indices, lowering order). */
    support::Span<uint32_t>
    succs(uint32_t bi) const
    {
        return {succ_list_ + succ_off_[bi],
                succ_off_[bi + 1] - succ_off_[bi]};
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
    size_t num_blocks_ = 0;
    ir::BlockId map_lo_ = 0;      ///< smallest member BlockId
    size_t map_size_ = 0;         ///< block_index_ length
    uint32_t *block_index_ = nullptr;  ///< by BlockId - map_lo_
    ir::BlockId *blocks_ = nullptr;
    uint32_t *succ_off_ = nullptr;
    uint32_t *succ_list_ = nullptr;
    uint32_t *op_off_ = nullptr;
    uint32_t *op_list_ = nullptr;
    uint32_t *exit_off_ = nullptr;
    uint32_t *exit_list_ = nullptr;
};

} // namespace treegion::sched

#endif // TREEGION_SCHED_REGION_INDEX_H
