/**
 * @file
 * Scheduled-code representation: the output of the region scheduler.
 *
 * A RegionSchedule is a rectangular grid of cycles x issue slots of
 * ops, plus exit metadata. Exits carry reconciliation copies: the
 * register renaming the scheduler performed is undone at each exit
 * for the values live into the exit's target, following the paper's
 * model in which rename copies are executed but "not used in
 * computing speedup".
 */

#ifndef TREEGION_SCHED_SCHEDULE_H
#define TREEGION_SCHED_SCHEDULE_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/op.h"
#include "support/arena.h"
#include "support/logging.h"

namespace treegion::sched {

/**
 * A region's internal control structure, flat: the member blocks in
 * region order (the root at position 0) and each member's distinct
 * in-region successors, as a CSR over those positions. A tree for
 * treegions and linear regions, a DAG for hyperblocks. Built once per
 * region by the lowering, in one allocation (DESIGN.md §11).
 */
class RegionTree
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;  ///< not a member

    RegionTree() = default;

    /**
     * Build over @p blocks. @p succs_of(id) yields the in-region
     * successors of member @p id, all members; repeats are dropped.
     */
    template <typename SuccsOf>
    RegionTree(const std::vector<ir::BlockId> &blocks, SuccsOf &&succs_of)
        : n_(static_cast<uint32_t>(blocks.size()))
    {
        if (blocks.empty())
            return;
        const auto [lo, hi] =
            std::minmax_element(blocks.begin(), blocks.end());
        lo_ = *lo;
        span_ = *hi - *lo + 1;
        data_.reserve(3 * size_t{n_} + span_ + 1);
        data_.assign(blocks.begin(), blocks.end());
        data_.resize(size_t{n_} + span_ + n_ + 1, kNone);
        for (uint32_t pos = 0; pos < n_; ++pos)
            data_[n_ + blocks[pos] - lo_] = pos;
        const size_t first = size_t{n_} + span_;
        for (uint32_t pos = 0; pos < n_; ++pos) {
            const size_t row = data_.size();
            data_[first + pos] = static_cast<uint32_t>(row);
            for (const ir::BlockId succ : succs_of(blocks[pos])) {
                const uint32_t to = position(succ);
                TG_ASSERT(to != kNone);
                if (std::find(data_.begin() + row, data_.end(), to) ==
                    data_.end())
                    data_.push_back(to);
            }
        }
        data_[first + n_] = static_cast<uint32_t>(data_.size());
    }

    size_t size() const { return n_; }
    ir::BlockId block(uint32_t pos) const { return data_[pos]; }

    /** @return the position of @p id, or kNone. */
    uint32_t
    position(ir::BlockId id) const
    {
        const uint32_t off = id - lo_;  // wraps below lo_
        return off < span_ ? data_[n_ + off] : kNone;
    }

    /** @return the successor positions of @p pos, in order. */
    support::Span<uint32_t>
    succs(uint32_t pos) const
    {
        const uint32_t *first = data_.data() + n_ + span_;
        return {data_.data() + first[pos], first[pos + 1] - first[pos]};
    }

  private:
    uint32_t n_ = 0;     ///< members
    uint32_t lo_ = 0;    ///< smallest member id
    uint32_t span_ = 0;  ///< largest member id - lo_ + 1
    /** Member ids [0, n); position by id - lo_ [n, n + span); row
     * starts into data_ [n + span, 2n + span + 1); successors. */
    std::vector<uint32_t> data_;
};

/** One op placed in the schedule. */
struct ScheduledOp
{
    ir::Op op;          ///< renamed, possibly guarded op
    int cycle = 0;      ///< 0-based MultiOp row
    int slot = 0;       ///< issue slot within the row
    bool speculative = false;  ///< issued above a branch it followed

    /** Original region block the op came from; the verifier derives
     * path-relative memory program order from it. kNoBlock means
     * "unknown home" (hand-built schedules), which the verifier
     * treats as a single shared block. */
    ir::BlockId home = ir::kNoBlock;
};

/** A renaming reconciliation copy applied when an exit is taken. */
struct ExitCopy
{
    ir::Reg dst;  ///< original architectural register
    ir::Reg src;  ///< renamed register holding the value
};

/** One way control can leave a region schedule. */
struct ScheduledExit
{
    /**
     * Sentinel op_index for a fall-through exit: control leaves the
     * region at the end of the schedule without a branch op firing.
     * The list scheduler never produces these (every exit is an
     * explicit retire-ASAP branch), but the representation admits
     * them and the performance model must cost them as the full
     * schedule length (DESIGN.md §6).
     */
    static constexpr size_t kFallthrough = static_cast<size_t>(-1);

    size_t op_index = 0;   ///< index into RegionSchedule::ops of the
                           ///< branch op that takes this exit, or
                           ///< kFallthrough
    size_t target_slot = 0;  ///< terminator target slot (MWBR case idx)
    ir::BlockId from = 0;    ///< original block the exit came from
    ir::BlockId target = 0;  ///< destination block (kNoBlock for RET)
    bool is_ret = false;   ///< function exit
    double weight = 0.0;   ///< profile weight of the exit edge
    int cycle = 0;         ///< cycle the exit branch issues in
    std::vector<ExitCopy> copies;  ///< applied when the exit fires
};

/** Scheduler statistics for one region. */
struct RegionSchedStats
{
    size_t renamed_defs = 0;    ///< destinations given fresh names
    size_t exit_copies = 0;     ///< reconciliation copies emitted
    size_t speculated_ops = 0;  ///< ops issued above a branch
    size_t elided_ops = 0;      ///< removed via dominator parallelism
};

/** The schedule of one region. */
struct RegionSchedule
{
    ir::BlockId root = ir::kNoBlock;  ///< region root block
    int length = 0;                   ///< schedule height in cycles
    std::vector<ScheduledOp> ops;     ///< sorted by (cycle, slot)
    std::vector<ScheduledExit> exits;
    RegionSchedStats stats;

    /**
     * The region's internal control structure (moved from the
     * lowering). Two op homes lie on a common root-to-exit path
     * exactly when one reaches the other through it; the verifier
     * uses that to check memory program order. Empty for hand-built
     * schedules, in which only ops of one home share a path.
     */
    RegionTree tree;

    /** Render the schedule as a cycle x slot text grid. */
    std::string str(int issue_width) const;
};

/** All region schedules of one function, keyed by region root. */
struct FunctionSchedule
{
    ir::BlockId entry = ir::kNoBlock;
    std::unordered_map<ir::BlockId, RegionSchedule> regions;
};

} // namespace treegion::sched

#endif // TREEGION_SCHED_SCHEDULE_H
