#include "vliw/vliw_sim.h"

#include <algorithm>
#include <utility>

#include "support/logging.h"
#include "vliw/machine_state.h"
#include "vliw/op_semantics.h"

namespace treegion::vliw {

using ir::BlockId;
using ir::Op;
using ir::Opcode;
using sched::RegionSchedule;
using sched::ScheduledExit;
using sched::ScheduledOp;

namespace {

constexpr uint32_t kNone = UINT32_MAX;

/** A register write in flight. */
struct PendingWrite
{
    uint64_t ready;  ///< first cycle (within the region) it is visible
    ir::Reg reg;
    int64_t value;
};

} // namespace

ScheduleTable::ScheduleTable(const sched::FunctionSchedule &sched)
{
    size_t ops = 0, rows = 0;
    ir::BlockId max_root = 0;
    for (const auto &[root, rs] : sched.regions) {
        ops += rs.ops.size();
        rows += static_cast<size_t>(rs.length);
        max_root = std::max(max_root, root);
    }
    by_root_.assign(sched.regions.empty() ? 0 : max_root + size_t{1},
                    kNone);
    regions_.reserve(sched.regions.size());
    order_.resize(ops);
    row_end_.assign(rows, 0);
    first_exit_.assign(ops, kNone);
    ops = rows = 0;
    for (const auto &[root, rs] : sched.regions) {
        by_root_[root] = static_cast<uint32_t>(regions_.size());
        regions_.push_back({&rs, static_cast<uint32_t>(ops),
                            static_cast<uint32_t>(rows)});
        uint32_t *order = order_.data() + ops;
        uint32_t *ends = row_end_.data() + rows;
        // Counting sort by cycle: ends[c] counts row c, then holds
        // its start, then its end. Rows then go into slot order.
        for (const ScheduledOp &sop : rs.ops) {
            TG_ASSERT(sop.cycle >= 0 && sop.cycle < rs.length);
            ++ends[sop.cycle];
        }
        uint32_t start = 0;
        for (int c = 0; c < rs.length; ++c)
            start += std::exchange(ends[c], start);
        for (uint32_t i = 0; i < rs.ops.size(); ++i)
            order[ends[rs.ops[i].cycle]++] = i;
        for (int c = 0; c < rs.length; ++c) {
            std::sort(order + (c ? ends[c - 1] : 0), order + ends[c],
                      [&](uint32_t a, uint32_t b) {
                          return std::pair(rs.ops[a].slot, a) <
                                 std::pair(rs.ops[b].slot, b);
                      });
        }
        // Back to front, so each op keeps its first exit.
        for (size_t k = rs.exits.size(); k-- > 0;) {
            const size_t op_index = rs.exits[k].op_index;
            if (op_index == ScheduledExit::kFallthrough)
                continue;  // no branch fires it
            TG_ASSERT(op_index < rs.ops.size());
            first_exit_[ops + op_index] = static_cast<uint32_t>(k);
        }
        ops += rs.ops.size();
        rows += static_cast<size_t>(rs.length);
    }
}

const ScheduleTable::Region &
ScheduleTable::region(BlockId root) const
{
    if (root >= by_root_.size() || by_root_[root] == kNone)
        TG_PANIC("no region schedule rooted at bb%u", root);
    return regions_[by_root_[root]];
}

const ScheduledExit *
ScheduleTable::resolveExit(const Region &r, uint32_t op_index,
                           const Op &op, size_t slot) const
{
    const bool mwbr = op.opcode == Opcode::MWBR;
    if (mwbr && op.targets[slot] == ir::kNoBlock)
        return nullptr;  // internal fall-through case edge
    const uint32_t first = first_exit_[r.first_op + op_index];
    TG_ASSERT(first != kNone);
    const std::vector<ScheduledExit> &exits = r.rs->exits;
    if (!mwbr)
        return &exits[first];
    for (size_t k = first; k < exits.size(); ++k) {
        if (exits[k].op_index == op_index && exits[k].target_slot == slot)
            return &exits[k];
    }
    TG_PANIC("MWBR slot %zu has no exit record", slot);
}

VliwResult
runScheduled(ir::Function &fn, const sched::FunctionSchedule &sched,
             std::vector<int64_t> memory, const VliwOptions &options)
{
    MachineState state(fn.numGprs(), fn.numPreds(), std::move(memory));
    VliwResult result;
    const ScheduleTable table(sched);

    BlockId cur = sched.entry;
    std::vector<PendingWrite> pending;
    sem::CopyScratch copy_scratch;

    auto readReg = [&](ir::Reg r) { return state.readReg(r); };

    auto commit = [&](uint64_t upto) {
        size_t kept = 0;
        for (PendingWrite &w : pending) {
            if (w.ready <= upto)
                state.writeReg(w.reg, w.value);
            else
                pending[kept++] = w;
        }
        pending.resize(kept);
    };

    while (result.cycles < options.max_cycles) {
        const ScheduleTable::Region &region = table.region(cur);
        const RegionSchedule &rs = *region.rs;
        result.trace.push_back(cur);
        ++result.regions_executed;
        pending.clear();

        const ScheduledExit *fired = nullptr;
        uint32_t pos = 0;  // into the region's (cycle, slot) order
        for (uint64_t cyc = 0;
             cyc < static_cast<uint64_t>(rs.length) && !fired; ++cyc) {
            commit(cyc);
            ++result.cycles;
            if (result.cycles >= options.max_cycles)
                break;

            int64_t ret_value = 0;
            for (const uint32_t end = table.rowEnd(region, cyc);
                 pos < end; ++pos) {
                const uint32_t idx = table.opAt(region, pos);
                const Op &op = rs.ops[idx].op;
                ++result.ops_executed;
                if (!op.isBranch()) {
                    sem::execDataOp(
                        op, readReg, state,
                        [&](ir::Reg dst, int64_t value, int delay) {
                            pending.push_back(
                                {cyc + static_cast<uint64_t>(delay),
                                 dst, value});
                        });
                    continue;
                }
                const sem::BranchOutcome out =
                    sem::evalBranch(op, readReg);
                if (out.kind ==
                    sem::BranchOutcome::Kind::kMalformedMwbr) {
                    TG_PANIC("MWBR selector matches no case");
                }
                if (out.kind != sem::BranchOutcome::Kind::kFire)
                    continue;
                const ScheduledExit *exit =
                    table.resolveExit(region, idx, op, out.slot);
                if (!exit)
                    continue;  // internal MWBR fall-through
                if (out.is_ret)
                    ret_value = out.ret_value;
                TG_ASSERT(!fired && "two exits fired in one cycle");
                fired = exit;
            }

            if (fired) {
                // Writes reaching visibility next cycle are
                // architectural at the exit boundary.
                commit(cyc + 1);
                // Reconciliation copies: parallel read, then write.
                result.copies_applied += sem::applyExitCopies(
                    fired->copies, readReg,
                    [&](ir::Reg dst, int64_t value) {
                        state.writeReg(dst, value);
                    },
                    copy_scratch);

                if (fired->is_ret) {
                    result.completed = true;
                    result.ret_value = ret_value;
                    result.memory = state.takeMemory();
                    return result;
                }
                cur = fired->target;
            }
        }
        if (!fired && result.cycles < options.max_cycles)
            TG_PANIC("region bb%u fell through without an exit",
                     rs.root);
    }

    result.memory = state.takeMemory();
    return result;  // cycle limit hit; completed stays false
}

} // namespace treegion::vliw
