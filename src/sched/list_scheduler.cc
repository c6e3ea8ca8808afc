#include "sched/list_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "sched/ddg.h"
#include "sched/hyperblock_lowering.h"
#include "sched/rename_table.h"
#include "support/arena.h"
#include "support/logging.h"
#include "support/remarks.h"
#include "support/spans.h"

namespace treegion::sched {

namespace {

using support::Arena;

/** Aggregated per-thread scheduler-arena statistics. */
std::atomic<uint64_t> g_arena_jobs{0};
std::atomic<uint64_t> g_arena_high_water{0};
std::atomic<uint64_t> g_arena_capacity{0};

void
raiseMax(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

/**
 * The per-thread scheduling arena. Reset (blocks retained) at the
 * start of every compile job, so a warmed-up thread schedules with
 * zero heap allocations in the DDG + placement path — the property
 * tests/alloc_regression_test.cc pins.
 */
Arena &
schedArena()
{
    static thread_local Arena arena(1u << 20);
    return arena;
}

/**
 * The scheduling hot path over structure-of-arrays state (DESIGN.md
 * §11): every per-op attribute is a dense arena array indexed by the
 * lowered op id, the ready list is a bitset over priority ranks, and
 * dependence bookkeeping is incremental (pending-predecessor counts),
 * so each cycle touches only pred-complete candidates instead of
 * rescanning every unscheduled op.
 */
class Scheduler
{
  public:
    Scheduler(ir::Function &fn, LoweredRegion lowered,
              const MachineModel &model, const SchedOptions &options,
              Arena &arena)
        : fn_(fn),
          lowered_(std::move(lowered)),
          arena_(arena),
          index_(lowered_, arena),
          ddg_(lowered_, index_, arena),
          model_(model),
          options_(options)
    {
    }

    /** Priority sort + cycle-driven placement; no result assembly. */
    void place();

    /** Build the RegionSchedule from a completed place(). */
    RegionSchedule assemble();

    /** Schedule length of a completed place(), in cycles. */
    int
    placedLength() const
    {
        int length = 0;
        for (size_t i = 0; i < n_; ++i) {
            if (!elided_[i])
                length = std::max(length, cycle_[i] + 1);
        }
        return length;
    }

  private:
    static constexpr uint32_t npos = UINT32_MAX;

    /** Effective position of a (possibly elided) scheduled node. */
    std::pair<int, int>
    position(uint32_t i) const
    {
        while (elided_[i])
            i = rep_[i];
        return {cycle_[i], slot_[i]};
    }

    /**
     * Can node @p i issue at (@p cycle, @p slot)? All DDG
     * predecessors must be scheduled with their latencies satisfied.
     * Only called for pred-complete candidates; the slow scan handles
     * slot-ordered edges, everything else is answered by the cached
     * earliest-cycle bound.
     */
    bool
    ready(uint32_t i, int cycle, int slot) const
    {
        if (cycle < min_cycle_[i])
            return false;
        if (!has_slot_pred_[i])
            return true;
        for (const DdgEdge &e : ddg_.preds(i)) {
            const auto [pc, ps] = position(e.other);
            if (e.latency > 0) {
                if (cycle < pc + e.latency)
                    return false;
            } else if (e.slot_ordered) {
                if (pc > cycle || (pc == cycle && ps >= slot))
                    return false;
            } else {
                if (cycle < pc)
                    return false;
            }
        }
        return true;
    }

    /**
     * Find a scheduled twin for dominator-parallelism elision: same
     * duplication group, same opcode/compare, identical (renamed)
     * sources, unguarded computation, and a position that also
     * satisfies @p i's memory-ordering edges. Only the op's own
     * duplication group is scanned (in lowering order, matching the
     * historical full scan, which skipped every other op anyway).
     *
     * @return twin index, or npos
     */
    uint32_t
    findTwin(uint32_t i) const
    {
        const LoweredOp &lop = lowered_.ops[i];
        for (uint32_t m = group_lo_[i]; m < group_hi_[i]; ++m) {
            const uint32_t j = group_members_[m];
            // Elided nodes are skipped: their destination register is
            // never actually written, so aliasing to it would read
            // garbage. The surviving representative qualifies on its
            // own (same duplication group and sources).
            if (j == i || !scheduled_[j] || elided_[j])
                continue;
            const LoweredOp &twin = lowered_.ops[j];
            if (!twin_ok_[j] || twin.op.opcode != lop.op.opcode ||
                twin.op.cmp != lop.op.cmp ||
                twin.op.srcs != lop.op.srcs) {
                continue;
            }
            // The twin's position must satisfy this op's memory
            // ordering edges (the value edges are identical by source
            // equality).
            const auto [tc, ts] = position(j);
            bool order_ok = true;
            for (const DdgEdge &e : ddg_.preds(i)) {
                if (e.latency == 0 && e.slot_ordered) {
                    const auto [pc, ps] = position(e.other);
                    if (!scheduled_[e.other] || pc > tc ||
                        (pc == tc && ps >= ts)) {
                        order_ok = false;
                        break;
                    }
                }
            }
            if (order_ok)
                return j;
        }
        return npos;
    }

    /** Alias @p i's destination to its twin's in all pending readers. */
    void
    elide(uint32_t i, uint32_t twin)
    {
        const ir::Reg from = lowered_.ops[i].op.dsts[0];
        const ir::Reg to = lowered_.ops[twin].op.dsts[0];
        for (size_t k = 0; k < n_; ++k) {
            if (!scheduled_[k])
                lowered_.ops[k].op.renameUses(from, to);
        }
        for (LoweredExit &exit : lowered_.exits) {
            for (ExitCopy &copy : exit.copies) {
                if (copy.src == from)
                    copy.src = to;
            }
        }
        scheduled_[i] = 1;
        elided_[i] = 1;
        rep_[i] = twin;
        support::remark(support::RemarkKind::Elided)
            .block(lowered_.ops[i].home)
            .op(lowered_.ops[i].op.id)
            .arg("twin", lowered_.ops[twin].op.id)
            .arg("root", lowered_.root);
    }

    /**
     * Node @p i just became pred-complete: cache its earliest legal
     * cycle (slot-ordered edges still need the per-slot scan) and
     * enter it into the candidate pool.
     */
    void
    onPredComplete(uint32_t i)
    {
        int mc = 0;
        bool has_slot = false;
        for (const DdgEdge &e : ddg_.preds(i)) {
            const auto [pc, ps] = position(e.other);
            (void)ps;
            mc = std::max(mc, e.latency > 0 ? pc + e.latency : pc);
            has_slot = has_slot || e.slot_ordered;
        }
        min_cycle_[i] = mc;
        has_slot_pred_[i] = has_slot;
        const uint32_t r = rank_of_[i];
        cand_[r >> 6] |= 1ull << (r & 63);
    }

    /** Mark @p i placed and release its successors. */
    void
    retire(uint32_t i)
    {
        const uint32_t r = rank_of_[i];
        cand_[r >> 6] &= ~(1ull << (r & 63));
        for (const DdgEdge &e : ddg_.succs(i)) {
            if (--pending_[e.other] == 0)
                onPredComplete(e.other);
        }
    }

    /**
     * Report priority ties: adjacent pairs of the sorted order whose
     * keys are equal under @p heuristic, i.e. decided only by the
     * deterministic lowering-order fallback.
     */
    void
    reportTieBreaks(const uint32_t *order, const PriorityKeys *keys,
                    Heuristic heuristic) const
    {
        auto tied = [&](const PriorityKeys &a, const PriorityKeys &b) {
            switch (heuristic) {
              case Heuristic::DependenceHeight:
                return a.height == b.height;
              case Heuristic::ExitCount:
                return a.exit_count == b.exit_count &&
                       a.height == b.height;
              case Heuristic::GlobalWeight:
                return a.weight == b.weight && a.height == b.height;
              case Heuristic::WeightedCount:
                return a.weight == b.weight &&
                       a.exit_count == b.exit_count &&
                       a.height == b.height;
            }
            return false;
        };
        for (size_t k = 0; k + 1 < n_; ++k) {
            const uint32_t w = order[k], l = order[k + 1];
            if (!tied(keys[w], keys[l]))
                continue;
            support::remark(support::RemarkKind::TieBreak)
                .block(lowered_.ops[w].home)
                .op(lowered_.ops[w].op.id)
                .arg("loser", lowered_.ops[l].op.id)
                .arg("height", keys[w].height)
                .arg("exits", keys[w].exit_count)
                .arg("weight", keys[w].weight)
                .arg("loser_height", keys[l].height)
                .arg("loser_exits", keys[l].exit_count)
                .arg("loser_weight", keys[l].weight);
        }
    }

    /**
     * Report distinct exit branch ops sharing a cycle, in cycle
     * order: the predicated branches the paper merges into one
     * MultiOp.
     */
    void
    reportExitMerges() const
    {
        std::vector<std::pair<int, size_t>> branches;
        branches.reserve(lowered_.exits.size());
        for (const LoweredExit &exit : lowered_.exits)
            branches.emplace_back(cycle_[exit.op_index], exit.op_index);
        std::sort(branches.begin(), branches.end());
        branches.erase(std::unique(branches.begin(), branches.end()),
                       branches.end());
        for (size_t lo = 0, hi = 0; lo < branches.size(); lo = hi) {
            while (hi < branches.size() &&
                   branches[hi].first == branches[lo].first)
                ++hi;
            if (hi - lo > 1) {
                support::remark(support::RemarkKind::ExitMerged)
                    .block(lowered_.root)
                    .arg("cycle", branches[lo].first)
                    .arg("branches", hi - lo);
            }
        }
    }

    ir::Function &fn_;
    LoweredRegion lowered_;
    Arena &arena_;
    RegionIndex index_;
    Ddg ddg_;
    MachineModel model_;
    SchedOptions options_;

    // Structure-of-arrays scheduling state, all arena-backed and
    // indexed by lowered op id.
    size_t n_ = 0;
    uint8_t *scheduled_ = nullptr;
    uint8_t *elided_ = nullptr;
    int32_t *cycle_ = nullptr;
    int32_t *slot_ = nullptr;
    uint32_t *rep_ = nullptr;
    int32_t *pending_ = nullptr;     ///< unscheduled real preds
    int32_t *min_cycle_ = nullptr;   ///< earliest cycle once complete
    uint8_t *has_slot_pred_ = nullptr;
    uint8_t *twin_ok_ = nullptr;     ///< may serve as an elision twin
    uint8_t *elig_ = nullptr;        ///< may be elided itself
    uint32_t *order_ = nullptr;      ///< rank -> op (exits first)
    uint32_t *rank_of_ = nullptr;    ///< op -> rank
    uint64_t *cand_ = nullptr;       ///< candidate bitset over ranks
    size_t cand_words_ = 0;
    uint32_t *group_members_ = nullptr;  ///< dupGroup buckets
    uint32_t *group_lo_ = nullptr;   ///< op -> its bucket range
    uint32_t *group_hi_ = nullptr;
    size_t elided_count_ = 0;
};

void
Scheduler::place()
{
    const size_t n = lowered_.ops.size();
    n_ = n;
    const PriorityKeys *keys =
        computePriorityKeys(fn_, lowered_, index_, ddg_, arena_);
    uint32_t *order =
        sortByPriority(keys, n, options_.heuristic, arena_);
    if (support::remarksEnabled())
        reportTieBreaks(order, keys, options_.heuristic);

    // Retire-as-soon-as-possible rule: a ready exit branch fires at
    // its earliest legal cycle (its dependences - predicate, pinned
    // stores, live-out producers - already encode when the exit may
    // be taken), so exits precede computation in the pick order. The
    // heuristic still decides everything that matters: the order of
    // computation determines when each path's producers are done and
    // hence when its exit becomes ready. (Stable partition, done by
    // hand to stay inside the arena.)
    order_ = arena_.allocArray<uint32_t>(n);
    {
        size_t at = 0;
        for (size_t k = 0; k < n; ++k) {
            if (lowered_.ops[order[k]].kind == LoweredKind::ExitBranch)
                order_[at++] = order[k];
        }
        for (size_t k = 0; k < n; ++k) {
            if (lowered_.ops[order[k]].kind != LoweredKind::ExitBranch)
                order_[at++] = order[k];
        }
    }
    rank_of_ = arena_.allocArray<uint32_t>(n);
    for (size_t r = 0; r < n; ++r)
        rank_of_[order_[r]] = static_cast<uint32_t>(r);

    scheduled_ = arena_.allocZeroed<uint8_t>(n);
    elided_ = arena_.allocZeroed<uint8_t>(n);
    cycle_ = arena_.allocFilled<int32_t>(n, -1);
    slot_ = arena_.allocFilled<int32_t>(n, -1);
    rep_ = arena_.allocZeroed<uint32_t>(n);
    pending_ = arena_.allocZeroed<int32_t>(n);
    min_cycle_ = arena_.allocZeroed<int32_t>(n);
    has_slot_pred_ = arena_.allocZeroed<uint8_t>(n);
    cand_words_ = (n + 63) / 64;
    cand_ = arena_.allocZeroed<uint64_t>(cand_words_);

    // Dominator-parallelism support tables: per-dupGroup member
    // buckets (ascending op index) and static eligibility flags.
    elig_ = arena_.allocZeroed<uint8_t>(n);
    twin_ok_ = arena_.allocZeroed<uint8_t>(n);
    group_lo_ = arena_.allocZeroed<uint32_t>(n);
    group_hi_ = arena_.allocZeroed<uint32_t>(n);
    {
        size_t grouped = 0;
        for (size_t i = 0; i < n; ++i) {
            if (lowered_.ops[i].op.dupGroup != 0)
                ++grouped;
        }
        uint64_t *pairs = arena_.allocArray<uint64_t>(grouped);
        size_t at = 0;
        for (size_t i = 0; i < n; ++i) {
            const LoweredOp &lop = lowered_.ops[i];
            if (lop.op.dupGroup == 0)
                continue;
            pairs[at++] = (static_cast<uint64_t>(lop.op.dupGroup)
                           << 32) |
                          i;
            elig_[i] = lop.kind == LoweredKind::Computation &&
                       !lop.pinned && !lop.op.guard &&
                       lop.op.dsts.size() == 1;
            twin_ok_[i] =
                !lop.op.guard && lop.op.dsts.size() == 1;
        }
        std::sort(pairs, pairs + grouped);
        group_members_ = arena_.allocArray<uint32_t>(grouped);
        for (size_t m = 0; m < grouped; ++m)
            group_members_[m] = static_cast<uint32_t>(pairs[m]);
        size_t lo = 0;
        while (lo < grouped) {
            size_t hi = lo + 1;
            while (hi < grouped &&
                   (pairs[hi] >> 32) == (pairs[lo] >> 32))
                ++hi;
            for (size_t m = lo; m < hi; ++m) {
                group_lo_[group_members_[m]] =
                    static_cast<uint32_t>(lo);
                group_hi_[group_members_[m]] =
                    static_cast<uint32_t>(hi);
            }
            lo = hi;
        }
    }

    // Pending-predecessor counts; the pred lists mirror the succ
    // lists exactly, so retire()'s decrements match.
    for (size_t i = 0; i < n; ++i)
        pending_[i] = static_cast<int32_t>(ddg_.preds(i).size());
    for (size_t i = 0; i < n; ++i) {
        if (pending_[i] == 0)
            onPredComplete(static_cast<uint32_t>(i));
    }

    size_t scheduled_count = 0;
    int cycle = 0;
    const int max_cycles =
        static_cast<int>(n) * 16 + 1024;  // runaway guard

    while (scheduled_count < n) {
        TG_ASSERT(cycle < max_cycles);
        int slots_used = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            // Candidates in priority-rank order. A node released at a
            // HIGHER rank mid-scan is picked up later in this same
            // pass (the word is re-read after every action); one
            // released at a lower rank waits for the next pass —
            // exactly the classic whole-order rescan semantics.
            for (size_t w = 0; w < cand_words_; ++w) {
                uint64_t bits = cand_[w];
                while (bits) {
                    const int b = __builtin_ctzll(bits);
                    const uint32_t i =
                        order_[(w << 6) + static_cast<size_t>(b)];
                    bool acted = false;
                    if (ready(i, cycle, slots_used)) {
                        // Elision consumes no slot, so try it even
                        // with all slots filled.
                        if (options_.dominator_parallelism &&
                            elig_[i]) {
                            const uint32_t twin = findTwin(i);
                            if (twin != npos) {
                                elide(i, twin);
                                ++elided_count_;
                                acted = true;
                            }
                        }
                        if (!acted && slots_used < model_.issue_width) {
                            scheduled_[i] = 1;
                            cycle_[i] = cycle;
                            slot_[i] = slots_used;
                            ++slots_used;
                            acted = true;
                        }
                    }
                    if (acted) {
                        retire(i);
                        ++scheduled_count;
                        progress = true;
                    }
                    bits = cand_[w] &
                           (b == 63 ? 0 : (~0ull << (b + 1)));
                }
            }
        }
        ++cycle;
    }
}

RegionSchedule
Scheduler::assemble()
{
    const size_t n = n_;
    RegionSchedule sched;
    sched.root = lowered_.root;
    sched.stats.renamed_defs = lowered_.renamed_defs;
    sched.stats.elided_ops = elided_count_;

    // Surviving ops sorted by (cycle, slot).
    uint32_t *emit_order = arena_.allocArray<uint32_t>(n);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!elided_[i])
            emit_order[kept++] = static_cast<uint32_t>(i);
    }
    std::sort(emit_order, emit_order + kept, [&](uint32_t a, uint32_t b) {
        return std::make_pair(cycle_[a], slot_[a]) <
               std::make_pair(cycle_[b], slot_[b]);
    });

    // Each op is moved once, into its place in sched.ops.
    uint32_t *lowered_to_out = arena_.allocFilled<uint32_t>(n, npos);
    sched.ops.reserve(kept);
    for (size_t k = 0; k < kept; ++k) {
        const uint32_t i = emit_order[k];
        LoweredOp &lop = lowered_.ops[i];
        const bool speculative = lop.kind == LoweredKind::Computation &&
                                 !lop.op.guard &&
                                 lop.home != lowered_.root;
        lowered_to_out[i] = static_cast<uint32_t>(sched.ops.size());
        const ScheduledOp &sop = sched.ops.emplace_back(
            std::move(lop.op), cycle_[i], slot_[i], speculative,
            lop.home);
        if (sop.speculative) {
            ++sched.stats.speculated_ops;
            support::remark(support::RemarkKind::Speculated)
                .block(sop.home)
                .op(sop.op.id)
                .arg("root", lowered_.root)
                .arg("cycle", sop.cycle)
                .arg("slot", sop.slot);
        }
        sched.length = std::max(sched.length, cycle_[i] + 1);
    }

    sched.exits.reserve(lowered_.exits.size());
    for (LoweredExit &exit : lowered_.exits) {
        TG_ASSERT(lowered_to_out[exit.op_index] != npos);
        sched.stats.exit_copies += exit.copies.size();
        sched.exits.push_back({lowered_to_out[exit.op_index],
                               exit.target_slot, exit.from, exit.target,
                               exit.is_ret, exit.weight,
                               cycle_[exit.op_index],
                               std::move(exit.copies)});
    }
    sched.tree = std::move(lowered_.tree);
    if (support::remarksEnabled())
        reportExitMerges();
    return sched;
}

} // namespace

RegionSchedule
scheduleLoweredRegion(ir::Function &fn, LoweredRegion lowered,
                      const MachineModel &model,
                      const SchedOptions &options)
{
    Arena &arena = schedArena();
    arena.reset();
    // Timing DDG construction and the placement separately gives the
    // per-stage split the spans report (ddg_build vs list_sched). The
    // Scheduler itself is arena-backed but the object is tiny;
    // placement-new it into the arena too so the job performs no heap
    // traffic at all.
    Scheduler *scheduler;
    {
        support::SpanScope span("ddg_build");
        void *raw = arena.allocate(sizeof(Scheduler),
                                   alignof(Scheduler));
        scheduler = new (raw)
            Scheduler(fn, std::move(lowered), model, options, arena);
    }
    RegionSchedule sched = [&] {
        support::SpanScope span("list_sched");
        scheduler->place();
        return scheduler->assemble();
    }();
    scheduler->~Scheduler();
    g_arena_jobs.fetch_add(1, std::memory_order_relaxed);
    raiseMax(g_arena_high_water, arena.highWater());
    raiseMax(g_arena_capacity, arena.capacity());
    return sched;
}

int
runPlacementProbe(ir::Function &fn, LoweredRegion lowered,
                  const MachineModel &model, const SchedOptions &options)
{
    Arena &arena = schedArena();
    arena.reset();
    void *raw = arena.allocate(sizeof(Scheduler), alignof(Scheduler));
    Scheduler *scheduler = new (raw)
        Scheduler(fn, std::move(lowered), model, options, arena);
    scheduler->place();
    const int length = scheduler->placedLength();
    scheduler->~Scheduler();
    g_arena_jobs.fetch_add(1, std::memory_order_relaxed);
    raiseMax(g_arena_high_water, arena.highWater());
    raiseMax(g_arena_capacity, arena.capacity());
    return length;
}

void
reportArenaMetrics(support::MetricsRegistry &metrics)
{
    metrics.set("sched.arena.jobs",
                g_arena_jobs.load(std::memory_order_relaxed));
    metrics.set("sched.arena.high_water_bytes",
                g_arena_high_water.load(std::memory_order_relaxed));
    metrics.set("sched.arena.capacity_bytes",
                g_arena_capacity.load(std::memory_order_relaxed));
}

uint64_t
schedArenaHighWaterBytes()
{
    return schedArena().highWater();
}

void
schedArenaTrim()
{
    schedArena().trim();
    RenameTable::trimThreadStorage();
}

RegionSchedule
scheduleRegion(ir::Function &fn, const region::Region &r,
               const analysis::Liveness &live, const MachineModel &model,
               const SchedOptions &options)
{
    if (r.kind() == region::RegionKind::Hyperblock) {
        LoweredRegion lowered = [&] {
            support::SpanScope span("lower");
            return lowerHyperblock(fn, r, live);
        }();
        return scheduleLoweredRegion(fn, std::move(lowered), model,
                                     options);
    }
    LowerOptions lower_options;
    lower_options.materialize_pbr = options.materialize_pbr;
    LoweredRegion lowered = [&] {
        support::SpanScope span("lower");
        return lowerRegion(fn, r, live, lower_options);
    }();
    return scheduleLoweredRegion(fn, std::move(lowered), model, options);
}

} // namespace treegion::sched
