#include "ooo/ooo_sim.h"

#include <algorithm>
#include <bit>

#include "support/inline_vector.h"
#include "support/logging.h"
#include "vliw/machine_state.h"
#include "vliw/op_semantics.h"

namespace treegion::ooo {

using ir::BlockId;
using ir::Op;
using ir::Opcode;
using ir::RegClass;
using sched::RegionSchedule;
using sched::ScheduledExit;
using sched::ScheduledOp;
using vliw::sem::BranchOutcome;

OooConfig
oooSmall()
{
    OooConfig config;
    config.name = "ooo-small";
    config.fetch_width = 2;
    config.issue_width = 2;
    config.retire_width = 2;
    config.window_size = 16;
    config.rob_size = 32;
    config.phys_gpr_headroom = 24;
    config.phys_pred_headroom = 12;
    return config;
}

OooConfig
oooWide()
{
    OooConfig config;
    config.name = "ooo-wide";
    config.fetch_width = 8;
    config.issue_width = 8;
    config.retire_width = 8;
    config.window_size = 64;
    config.rob_size = 128;
    config.phys_gpr_headroom = 96;
    config.phys_pred_headroom = 48;
    return config;
}

const std::vector<OooConfig> &
oooConfigs()
{
    static const std::vector<OooConfig> configs = {oooSmall(),
                                                   oooWide()};
    return configs;
}

bool
parseOooConfig(const std::string &name, OooConfig &out)
{
    for (const OooConfig &config : oooConfigs()) {
        if (config.name == name) {
            out = config;
            return true;
        }
    }
    return false;
}

namespace {

using PhysId = uint32_t;

/** One physical register: a value plus a Tomasulo ready bit. */
struct PhysReg
{
    int64_t value = 0;
    bool ready = true;
};

/**
 * One physical register file (GPR or predicate class) with its
 * architectural rename map and free list. The architectural file is
 * virtual-register sized; the physical file adds config headroom.
 */
struct PhysFile
{
    std::vector<PhysReg> regs;
    std::vector<PhysId> map;   ///< architectural index -> physical
    std::vector<PhysId> free;  ///< free-list stack

    void
    init(uint32_t arch_count, int headroom)
    {
        regs.assign(arch_count + static_cast<uint32_t>(headroom), {});
        free.reserve(regs.size());
        map.resize(arch_count);
        for (uint32_t i = 0; i < arch_count; ++i)
            map[i] = i;
        for (uint32_t i = arch_count; i < regs.size(); ++i)
            free.push_back(i);
    }
};

/** A destination rename performed at dispatch. */
struct Rename
{
    ir::Reg arch;
    PhysId phys;  ///< freshly allocated physical register
    PhysId prev;  ///< previous mapping (freed at retire, restored on
                  ///< squash, and the copy-through source when a
                  ///< conditional write is suppressed)
};

/** A source operand resolved at dispatch. */
struct SrcMap
{
    ir::Reg arch;
    PhysId phys;
};

/** One reorder-buffer entry, reused in place as the ring wraps. */
struct RobEntry
{
    const ScheduledOp *sop = nullptr;
    uint32_t op_index = 0;  ///< index into RegionSchedule::ops
    uint32_t row = 0;       ///< schedule row (cycle) within the region

    support::InlineVector<Rename, ir::kMaxDsts> renames;
    support::InlineVector<SrcMap, ir::kMaxSrcs + 1> src_map;  ///< + guard

    bool completed = false;
    bool mem_done = false;  ///< memory effect performed (LD/ST)
    uint64_t complete_cycle = 0;

    bool resolved = false;  ///< branch outcome known
    BranchOutcome outcome;
    const ScheduledExit *exit = nullptr;  ///< non-null when the branch
                                          ///< fires a region exit
};

/**
 * Whether @p op's destination writes are conditional, making the
 * rename a read-modify-write: the previous mapping must be readable
 * so a suppressed write copies the old value through. CMPP, PSET,
 * PCLR and LD write unconditionally; CMPPA/CMPPO are keyed on their
 * comparison; every other guarded writer is keyed on its guard.
 */
bool
conditionalWriter(const Op &op)
{
    if (op.opcode == Opcode::CMPPA || op.opcode == Opcode::CMPPO)
        return true;
    if (!op.guard)
        return false;
    switch (op.opcode) {
      case Opcode::CMPP:
      case Opcode::PSET:
      case Opcode::PCLR:
      case Opcode::LD:
        return false;
      default:
        return !op.dsts.empty();
    }
}

} // namespace

OooResult
runOutOfOrder(ir::Function &fn, const sched::FunctionSchedule &sched,
              std::vector<int64_t> memory, const OooConfig &config)
{
    OooResult result;
    vliw::VliwResult &arch = result.arch;
    OooStats &stats = result.stats;

    // Memory lives in a MachineState (register files unused) so the
    // dismissible wrap semantics are byte-identical to the other
    // engines.
    vliw::MachineState mem_state(0, 0, std::move(memory));

    PhysFile gprs;
    PhysFile preds;
    gprs.init(fn.numGprs(), config.phys_gpr_headroom);
    preds.init(fn.numPreds(), config.phys_pred_headroom);

    auto file = [&](RegClass cls) -> PhysFile & {
        return cls == RegClass::Pred ? preds : gprs;
    };
    auto clamp = [](ir::Reg r, int64_t value) {
        return r.cls == RegClass::Pred ? (value ? 1 : 0) : value;
    };

    // Fetch streams: each region's ops in (cycle, slot) order.
    const vliw::ScheduleTable table(sched);
    BlockId cur = sched.entry;
    const vliw::ScheduleTable::Region *region = nullptr;
    uint32_t fetch_pos = 0;
    uint32_t fetch_end = 0;  ///< the exit row's end while one drains

    auto enterRegion = [&](BlockId root) {
        region = &table.region(root);
        cur = root;
        fetch_pos = 0;
        fetch_end = static_cast<uint32_t>(region->rs->ops.size());
        arch.trace.push_back(root);
        ++arch.regions_executed;
    };
    enterRegion(cur);

    // The ROB is a ring reused in place, its size rounded up to a
    // power of two: [head_seq, tail_seq) are in flight, at most
    // rob_size of them.
    std::vector<RobEntry> rob(
        std::bit_ceil(static_cast<size_t>(config.rob_size)));
    uint64_t head_seq = 0, tail_seq = 0;
    auto entryAt = [&](uint64_t seq) -> RobEntry & {
        return rob[seq & (rob.size() - 1)];
    };
    std::vector<uint64_t> iq;  ///< dispatched, unissued (age order)
    iq.reserve(static_cast<size_t>(config.window_size));
    std::vector<uint64_t> executing;  ///< issued, not completed
    executing.reserve(rob.size());
    vliw::sem::CopyScratch copy_scratch;

    struct Exiting
    {
        bool active = false;
        const ScheduledExit *exit = nullptr;
        int64_t ret_value = 0;
    } exiting;

    // Squash every ROB entry younger than sequence @p keep_end:
    // restore the rename map youngest-first, refill the free lists,
    // drop the entries from the window.
    auto squashYoungerThan = [&](uint64_t keep_end) {
        while (tail_seq > keep_end) {
            const RobEntry &e = entryAt(--tail_seq);
            TG_ASSERT(!(e.sop->op.isStore() && e.mem_done) &&
                      "squashed a store that wrote memory");
            for (auto it = e.renames.rbegin(); it != e.renames.rend();
                 ++it) {
                PhysFile &f = file(it->arch.cls);
                f.map[it->arch.idx] = it->prev;
                f.free.push_back(it->phys);
            }
            ++stats.squashed;
        }
        auto squashed = [&](uint64_t seq) { return seq >= keep_end; };
        std::erase_if(iq, squashed);
        std::erase_if(executing, squashed);
    };

    for (;;) {
        if (arch.cycles >= config.limits.max_cycles) {
            // Budget exhausted: halt with completed = false (never
            // abort) so campaigns can't hang on either backend.
            arch.memory = mem_state.takeMemory();
            return result;
        }
        ++arch.cycles;

        // ---- Completion: results finishing now become readable
        // (tag broadcast; wakeup is the ready-bit check at select).
        std::erase_if(executing, [&](uint64_t seq) {
            RobEntry &e = entryAt(seq);
            if (e.complete_cycle > arch.cycles)
                return false;
            e.completed = true;
            for (const Rename &r : e.renames)
                file(r.arch.cls).regs[r.phys].ready = true;
            return true;
        });

        // ---- Retire: in order, up to retire_width.
        int retired_now = 0;
        while (retired_now < config.retire_width && head_seq < tail_seq &&
               entryAt(head_seq).completed) {
            const RobEntry &e = entryAt(head_seq);
            if (e.exit != nullptr) {
                TG_ASSERT(!exiting.active &&
                          "two exits fired in one cycle");
                exiting.active = true;
                exiting.exit = e.exit;
                exiting.ret_value = e.outcome.ret_value;
                // Ops beyond the exit row were fetched down a dead
                // path; the exit row itself retires in full (MultiOp
                // rows execute whole), so fetch stops at its end.
                uint64_t keep_end = head_seq + 1;
                while (keep_end < tail_seq &&
                       entryAt(keep_end).row <= e.row)
                    ++keep_end;
                squashYoungerThan(keep_end);
                fetch_end = table.rowEnd(*region, e.row);
            }
            for (const Rename &r : e.renames)
                file(r.arch.cls).free.push_back(r.prev);
            ++stats.retired;
            ++arch.ops_executed;
            ++head_seq;
            ++retired_now;
        }

        // The exit row executes in full (MultiOp rows are atomic in
        // the architectural model): any of its ops the front-end had
        // not fetched when the branch retired must still be fetched,
        // executed and retired before the region boundary.
        bool redirected = false;
        if (exiting.active && head_seq == tail_seq &&
            fetch_pos >= fetch_end) {
            // Region boundary: reconciliation copies are one parallel
            // MultiOp (read all, then write all).
            arch.copies_applied += vliw::sem::applyExitCopies(
                exiting.exit->copies,
                [&](ir::Reg r) {
                    return r.cls == RegClass::Btr
                               ? 0
                               : file(r.cls)
                                     .regs[file(r.cls).map[r.idx]]
                                     .value;
                },
                [&](ir::Reg r, int64_t value) {
                    if (r.cls == RegClass::Btr)
                        return;
                    file(r.cls).regs[file(r.cls).map[r.idx]].value =
                        clamp(r, value);
                },
                copy_scratch);
            if (exiting.exit->is_ret) {
                arch.completed = true;
                arch.ret_value = exiting.ret_value;
                arch.memory = mem_state.takeMemory();
                return result;
            }
            const BlockId target = exiting.exit->target;
            exiting = {};
            enterRegion(target);
            redirected = true;  // one-cycle fetch redirect bubble
        }

        // A drained machine with nothing left to fetch and no exit in
        // flight means the region ran off its end — a scheduler bug,
        // same panic as the in-order engine.
        if (head_seq == tail_seq && !exiting.active && !redirected &&
            fetch_pos >= fetch_end)
            TG_PANIC("region bb%u fell through without an exit", cur);

        // ---- Select/execute: issue ready ops oldest-first.
        int issued_now = 0;
        for (auto it = iq.begin();
             it != iq.end() && issued_now < config.issue_width;) {
            RobEntry &e = entryAt(*it);
            const Op &op = e.sop->op;

            bool ready = true;
            for (const SrcMap &s : e.src_map) {
                if (!file(s.arch.cls).regs[s.phys].ready)
                    ready = false;
            }
            if (conditionalWriter(op)) {
                // Read-modify-write: the previous mapping is an
                // implicit source (copy-through on suppression).
                for (const Rename &r : e.renames) {
                    if (!file(r.arch.cls).regs[r.prev].ready)
                        ready = false;
                }
            }
            if (!ready) {
                ++it;
                continue;
            }

            // Conservative memory discipline: total memory order in
            // fetch order, and stores only once squash-proof.
            if (op.isMemory()) {
                bool allowed = true;
                for (uint64_t seq = head_seq; seq < *it && allowed;
                     ++seq) {
                    const RobEntry &older = entryAt(seq);
                    const Op &oop = older.sop->op;
                    if (op.isLoad()) {
                        if (oop.isStore() && !older.mem_done)
                            allowed = false;
                    } else {
                        if (oop.isMemory() && !older.mem_done)
                            allowed = false;
                        if (oop.isBranch() && older.row < e.row &&
                            (!older.resolved || older.exit != nullptr))
                            allowed = false;
                    }
                }
                if (!allowed) {
                    ++it;
                    continue;
                }
            }

            // Execute: shared op semantics against the renamed
            // physical sources.
            auto read = [&](ir::Reg r) -> int64_t {
                if (r.cls == RegClass::Btr)
                    return 0;
                for (const SrcMap &s : e.src_map) {
                    if (s.arch == r)
                        return file(r.cls).regs[s.phys].value;
                }
                TG_PANIC("op reads unrenamed register %s",
                         r.str().c_str());
            };
            int max_delay = 1;
            if (op.isBranch()) {
                e.outcome = vliw::sem::evalBranch(op, read);
                if (e.outcome.kind ==
                    BranchOutcome::Kind::kMalformedMwbr)
                    TG_PANIC("MWBR selector matches no case");
                e.resolved = true;
                if (e.outcome.kind == BranchOutcome::Kind::kFire) {
                    e.exit = table.resolveExit(*region, e.op_index, op,
                                               e.outcome.slot);
                }
            } else {
                bool wrote[ir::kMaxDsts] = {};
                vliw::sem::execDataOp(
                    op, read, mem_state,
                    [&](ir::Reg dst, int64_t value, int delay) {
                        for (size_t k = 0; k < e.renames.size(); ++k) {
                            if (e.renames[k].arch == dst) {
                                file(dst.cls)
                                    .regs[e.renames[k].phys]
                                    .value = clamp(dst, value);
                                wrote[k] = true;
                                max_delay = std::max(max_delay, delay);
                                return;
                            }
                        }
                        TG_PANIC("op writes unrenamed register %s",
                                 dst.str().c_str());
                    });
                // Suppressed conditional writes copy the previous
                // mapping through, so the new physical register
                // always holds the architectural value.
                for (size_t k = 0; k < e.renames.size(); ++k) {
                    if (!wrote[k]) {
                        PhysFile &f = file(e.renames[k].arch.cls);
                        f.regs[e.renames[k].phys].value =
                            f.regs[e.renames[k].prev].value;
                    }
                }
                if (op.isMemory())
                    e.mem_done = true;
            }
            e.complete_cycle =
                arch.cycles + static_cast<uint64_t>(max_delay);
            executing.push_back(*it);
            ++issued_now;
            it = iq.erase(it);
        }

        // ---- Fetch/rename/dispatch: in (row, slot) order. While an
        // exit drains, only the remainder of its row may be fetched.
        int fetched = 0;
        while (!redirected && fetched < config.fetch_width &&
               fetch_pos < fetch_end) {
            const uint32_t op_index = table.opAt(*region, fetch_pos);
            const ScheduledOp &sop = region->rs->ops[op_index];
            const Op &op = sop.op;

            size_t need_gprs = 0;
            size_t need_preds = 0;
            for (ir::Reg dst : op.dsts) {
                if (dst.cls == RegClass::Gpr)
                    ++need_gprs;
                else if (dst.cls == RegClass::Pred)
                    ++need_preds;
            }
            if (tail_seq - head_seq >=
                    static_cast<uint64_t>(config.rob_size) ||
                iq.size() >= static_cast<size_t>(config.window_size) ||
                gprs.free.size() < need_gprs ||
                preds.free.size() < need_preds) {
                ++stats.rename_stalls;
                break;
            }

            RobEntry &e = entryAt(tail_seq);
            e = RobEntry{};
            e.sop = &sop;
            e.op_index = op_index;
            e.row = static_cast<uint32_t>(sop.cycle);
            op.forEachUsedReg([&](ir::Reg r) {
                if (r.cls == RegClass::Btr)
                    return;
                e.src_map.push_back({r, file(r.cls).map[r.idx]});
            });
            for (ir::Reg dst : op.dsts) {
                if (dst.cls == RegClass::Btr)
                    continue;  // BTRs carry no semantics
                PhysFile &f = file(dst.cls);
                const PhysId phys = f.free.back();
                f.free.pop_back();
                f.regs[phys] = {0, false};
                e.renames.push_back({dst, phys, f.map[dst.idx]});
                f.map[dst.idx] = phys;
            }
            iq.push_back(tail_seq++);
            ++fetch_pos;
            ++fetched;
        }

        stats.window_cycle_sum += tail_seq - head_seq;
    }
}

} // namespace treegion::ooo
