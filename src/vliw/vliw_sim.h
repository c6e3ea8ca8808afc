/**
 * @file
 * VLIW schedule simulator.
 *
 * Executes a FunctionSchedule with Play-Doh MultiOp semantics:
 *
 *  - All ops of a row read architectural state as of the start of
 *    the cycle; register writes commit "latency" cycles later
 *    (visible to rows issued at cycle + latency).
 *  - Memory ops within a row execute in slot order, so a store and a
 *    dependent memory op may legally share a cycle (the scheduler
 *    emits them slot-ordered).
 *  - Guarded ops take effect only when their predicate is true;
 *    CMPP writes guard AND cmp / guard AND NOT cmp unconditionally.
 *  - At most one exit branch of a row may fire (path predicates are
 *    mutually exclusive; the simulator asserts this). When an exit
 *    fires, writes becoming visible in the next cycle are committed,
 *    the exit's reconciliation copies restore the original registers,
 *    and control moves to the target region's schedule. A region must
 *    exit through a branch; running off the end is a scheduler bug.
 *
 * The cycle count this simulator reports equals the paper's
 * estimate: each region execution costs exit-cycle + 1.
 */

#ifndef TREEGION_VLIW_VLIW_SIM_H
#define TREEGION_VLIW_VLIW_SIM_H

#include "sched/schedule.h"
#include "vliw/interpreter.h"
#include "vliw/op_semantics.h"

namespace treegion::vliw {

/** Outcome of one scheduled execution. */
struct VliwResult
{
    bool completed = false;
    int64_t ret_value = 0;
    std::vector<int64_t> memory;
    std::vector<ir::BlockId> trace;  ///< region roots entered, in order
    uint64_t cycles = 0;
    uint64_t regions_executed = 0;
    uint64_t copies_applied = 0;
    uint64_t ops_executed = 0;
};

/**
 * Simulation limits. Shared with the out-of-order backend (one
 * SimLimits drives both) so fuzz campaigns can bound either engine
 * with the same knob.
 */
using VliwOptions = SimLimits;

/**
 * A FunctionSchedule flattened for simulation, shared by this engine
 * and the out-of-order backend: a dense root -> region index, each
 * region's op indices in (cycle, slot) order with the position that
 * ends each row, and each op's first exit record. A run builds one in
 * a few allocations, without hashing (DESIGN.md §15).
 */
class ScheduleTable
{
  public:
    /** One region: its schedule and where its ops and rows start. */
    struct Region
    {
        const sched::RegionSchedule *rs;
        uint32_t first_op;   ///< into order_ and first_exit_
        uint32_t first_row;  ///< into row_end_
    };

    explicit ScheduleTable(const sched::FunctionSchedule &sched);

    /** @return the region rooted at @p root; panics when none is. */
    const Region &region(ir::BlockId root) const;

    /** @return the index in r.rs->ops of the op at position @p pos
     * of the (cycle, slot) order. */
    uint32_t
    opAt(const Region &r, uint32_t pos) const
    {
        return order_[r.first_op + pos];
    }

    /** @return the position one past row @p cycle's last op. */
    uint32_t
    rowEnd(const Region &r, size_t cycle) const
    {
        return row_end_[r.first_row + cycle];
    }

    /**
     * Map a fired branch, op @p op_index of @p r, to its exit record,
     * or nullptr for an MWBR case edge that falls through internally
     * (target == kNoBlock).
     */
    const sched::ScheduledExit *resolveExit(const Region &r,
                                            uint32_t op_index,
                                            const ir::Op &op,
                                            size_t slot) const;

  private:
    std::vector<uint32_t> by_root_;     ///< root -> region, or kNone
    std::vector<Region> regions_;
    std::vector<uint32_t> order_;       ///< op indices per region
    std::vector<uint32_t> row_end_;     ///< per region row
    std::vector<uint32_t> first_exit_;  ///< per op: into rs->exits
};

/**
 * Execute @p sched on @p memory.
 *
 * @param fn the function the schedule was produced from (register
 *        file sizes)
 * @param sched the scheduled code
 * @param memory initial data memory
 * @param options limits
 */
VliwResult runScheduled(ir::Function &fn,
                        const sched::FunctionSchedule &sched,
                        std::vector<int64_t> memory,
                        const VliwOptions &options = {});

} // namespace treegion::vliw

#endif // TREEGION_VLIW_VLIW_SIM_H
