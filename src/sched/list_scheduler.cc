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
 * lowered op id, and dependence bookkeeping is incremental: retiring
 * an op walks its successors, counting down their pending
 * predecessors and raising their earliest cycles. A pred-complete op
 * waits on a list until its earliest cycle, then enters the candidate
 * bitset over priority ranks, so every candidate can issue and each
 * cycle touches only those.
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
        return placed_count_ ? cycle_[placed_[placed_count_ - 1]] + 1
                             : 0;
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

    /** @p i's effective (cycle, slot) as one ordered key. */
    int64_t
    positionKey(uint32_t i) const
    {
        const auto [cycle, slot] = position(i);
        return int64_t{cycle} << 32 | slot;
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
            // The twin must follow this op's slot-ordered predecessors,
            // all placed by now (the value edges are identical by
            // source equality).
            if (slot_pred_[i] < positionKey(j))
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
     * Node @p i is pred-complete: a candidate from its earliest cycle
     * on. Every predecessor sits at an earlier cycle or at a lower
     * slot of this one, so no slot-ordered edge can hold it back.
     */
    void
    onPredComplete(uint32_t i)
    {
        if (earliest_[i] > now_) {
            waiting_[waiting_count_++] = i;
            return;
        }
        const uint32_t r = rank_of_[i];
        cand_[r >> 6] |= 1ull << (r & 63);
        ++cand_count_;
    }

    /** Mark @p i placed and release its successors. */
    void
    retire(uint32_t i)
    {
        const uint32_t r = rank_of_[i];
        cand_[r >> 6] &= ~(1ull << (r & 63));
        --cand_count_;
        const int64_t key = positionKey(i);
        const int cycle = static_cast<int>(key >> 32);
        for (const DdgEdge &e : ddg_.succs(i)) {
            const uint32_t j = e.other;
            earliest_[j] = std::max(
                earliest_[j], e.latency > 0 ? cycle + e.latency : cycle);
            if (e.latency == 0 && e.slot_ordered)
                slot_pred_[j] = std::max(slot_pred_[j], key);
            if (--pending_[j] == 0)
                onPredComplete(j);
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
    int32_t *earliest_ = nullptr;    ///< earliest cycle over placed preds
    int64_t *slot_pred_ = nullptr;   ///< latest slot-ordered pred key
    uint8_t *twin_ok_ = nullptr;     ///< may serve as an elision twin
    uint8_t *elig_ = nullptr;        ///< may be elided itself
    uint32_t *order_ = nullptr;      ///< rank -> op (exits first)
    uint32_t *rank_of_ = nullptr;    ///< op -> rank
    uint64_t *cand_ = nullptr;       ///< candidate bitset over ranks
    uint64_t *elig_ranks_ = nullptr; ///< ranks of elidable ops
    size_t cand_words_ = 0;
    size_t cand_count_ = 0;
    uint32_t *waiting_ = nullptr;    ///< pred-complete, before earliest
    size_t waiting_count_ = 0;
    uint32_t *placed_ = nullptr;     ///< placed ops in (cycle, slot) order
    size_t placed_count_ = 0;
    int now_ = 0;                    ///< the cycle being filled
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
    earliest_ = arena_.allocZeroed<int32_t>(n);
    slot_pred_ = arena_.allocFilled<int64_t>(n, -1);
    cand_words_ = (n + 63) / 64;
    cand_ = arena_.allocZeroed<uint64_t>(cand_words_);
    elig_ranks_ = arena_.allocZeroed<uint64_t>(cand_words_);
    waiting_ = arena_.allocArray<uint32_t>(n);
    placed_ = arena_.allocArray<uint32_t>(n);

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

    const bool elide_on = options_.dominator_parallelism;
    for (size_t i = 0; i < n; ++i) {
        if (elide_on && elig_[i])
            elig_ranks_[rank_of_[i] >> 6] |= 1ull << (rank_of_[i] & 63);
        for (const DdgEdge &e : ddg_.succs(i))
            ++pending_[e.other];
    }
    for (size_t i = 0; i < n; ++i) {
        if (pending_[i] == 0)
            onPredComplete(static_cast<uint32_t>(i));
    }

    size_t scheduled_count = 0;
    const int width = model_.issue_width;
    const int max_cycles =
        static_cast<int>(n) * 16 + 1024;  // runaway guard

    while (scheduled_count < n) {
        // Release the waiting ops whose earliest cycle has come; with
        // no candidate left, skip to the first cycle that has one.
        if (cand_count_ == 0) {
            now_ = max_cycles;
            for (size_t k = 0; k < waiting_count_; ++k)
                now_ = std::min(now_, earliest_[waiting_[k]]);
        }
        TG_ASSERT(now_ < max_cycles);
        const size_t waited = waiting_count_;
        waiting_count_ = 0;
        for (size_t k = 0; k < waited; ++k)
            onPredComplete(waiting_[k]);

        int slots_used = 0;
        bool progress = true;
        while (progress) {
            progress = false;
            // Candidates in priority-rank order. A node released at a
            // HIGHER rank mid-scan is picked up later in this same
            // pass (the word is re-read after every action); one
            // released at a lower rank waits for the next pass —
            // exactly the classic whole-order rescan semantics. With
            // every slot taken only an elision can act.
            for (size_t w = 0; w < cand_words_; ++w) {
                auto live = [&] {
                    return cand_[w] &
                           (slots_used < width ? ~0ull : elig_ranks_[w]);
                };
                uint64_t bits = live();
                while (bits) {
                    const int b = __builtin_ctzll(bits);
                    const uint32_t i =
                        order_[(w << 6) + static_cast<size_t>(b)];
                    bool acted = false;
                    // Elision consumes no slot, so try it even with
                    // all slots filled.
                    if (elide_on && elig_[i]) {
                        const uint32_t twin = findTwin(i);
                        if (twin != npos) {
                            elide(i, twin);
                            ++elided_count_;
                            acted = true;
                        }
                    }
                    if (!acted && slots_used < width) {
                        scheduled_[i] = 1;
                        cycle_[i] = now_;
                        slot_[i] = slots_used++;
                        placed_[placed_count_++] = i;
                        acted = true;
                    }
                    if (acted) {
                        retire(i);
                        ++scheduled_count;
                        progress = true;
                    }
                    bits = live() & (b == 63 ? 0 : (~0ull << (b + 1)));
                }
            }
        }
        ++now_;
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

    // Each surviving op is moved once, into its place in sched.ops:
    // placement ran in (cycle, slot) order.
    uint32_t *lowered_to_out = arena_.allocFilled<uint32_t>(n, npos);
    sched.ops.reserve(placed_count_);
    for (size_t k = 0; k < placed_count_; ++k) {
        const uint32_t i = placed_[k];
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
    }
    sched.length = placedLength();

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
