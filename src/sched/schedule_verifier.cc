#include "sched/schedule_verifier.h"

#include <algorithm>
#include <cstdint>

#include "support/string_utils.h"
#include "support/spans.h"

namespace treegion::sched {

using support::strprintf;

namespace {

/**
 * Checks region schedules with one set of scratch tables, sized once
 * for the largest region it will see, so checking a function's
 * regions allocates a fixed number of times however large they are.
 */
class Checker
{
  public:
    /** Scratch for @p sched alone. */
    Checker(const RegionSchedule &sched, int issue_width)
    {
        fit(sched, issue_width);
        reserve();
    }

    /** Scratch for every region of @p sched. */
    Checker(const FunctionSchedule &sched, int issue_width)
    {
        for (const auto &[root, rs] : sched.regions)
            fit(rs, issue_width);
        reserve();
    }

    /** Check @p sched, passing each problem to @p err in order. */
    template <typename Err>
    void check(const RegionSchedule &sched, int issue_width, Err &&err);

  private:
    /** @return the words of one bit per (cycle, slot) of @p sched. */
    static size_t
    cellWords(const RegionSchedule &sched, int issue_width)
    {
        return (static_cast<size_t>(std::max(sched.length, 0)) *
                    static_cast<size_t>(std::max(issue_width, 0)) +
                63) /
               64;
    }

    /**
     * Number the registers @p sched writes: class c's destinations
     * span [lo[c], lo[c] + base[c + 1] - base[c]), numbered from
     * base[c]. @return the destination count.
     */
    static size_t
    destinationSpan(const RegionSchedule &sched, uint32_t lo[3],
                    size_t base[4])
    {
        uint32_t hi[3] = {0, 0, 0};
        lo[0] = lo[1] = lo[2] = UINT32_MAX;
        size_t writes = 0;
        for (const ScheduledOp &sop : sched.ops) {
            for (const ir::Reg &d : sop.op.dsts) {
                const size_t c = static_cast<size_t>(d.cls);
                lo[c] = std::min(lo[c], d.idx);
                hi[c] = std::max(hi[c], d.idx);
                ++writes;
            }
        }
        base[0] = 0;
        for (size_t c = 0; c < 3; ++c) {
            base[c + 1] =
                base[c] + (lo[c] <= hi[c] ? hi[c] - lo[c] + 1 : 0);
        }
        return writes;
    }

    /** Grow the scratch sizes to fit @p sched. */
    void
    fit(const RegionSchedule &sched, int issue_width)
    {
        uint32_t lo[3];
        size_t base[4];
        cells_ = std::max(cells_, cellWords(sched, issue_width));
        writes_ = std::max(writes_, destinationSpan(sched, lo, base));
        span_ = std::max(span_, base[3] + 2);
        ops_ = std::max(ops_, sched.ops.size());
        tree_ = std::max(tree_, sched.tree.size());
    }

    void
    reserve()
    {
        used_.reserve(cells_);
        first_.reserve(span_);
        writer_.reserve(writes_);
        ready_.reserve(ops_);
        reach_.reserve(tree_ * ((tree_ + 63) / 64 + 1));
        stack_.reserve(tree_);
        mem_.reserve(ops_);
        stores_.reserve(ops_);
    }

    /** What the memory-order scan reads of one memory op, together. */
    struct MemRef
    {
        const ScheduledOp *sop;
        ir::BlockId home;
        uint32_t pos;  ///< the home's position in the region tree
        ir::OpId id;
        int cycle;
        int slot;
        bool store;
    };

    size_t cells_ = 0, span_ = 0, writes_ = 0, ops_ = 0, tree_ = 0;
    std::vector<uint64_t> used_;    ///< placement bits
    std::vector<int64_t> stray_;    ///< out-of-range placements
    std::vector<uint32_t> first_;   ///< writer ranges by register
    std::vector<uint32_t> writer_;  ///< writers, by register
    std::vector<int> ready_;        ///< per op: cycle + latency
    std::vector<uint64_t> reach_;   ///< reachability rows
    std::vector<uint32_t> stack_;
    std::vector<MemRef> mem_;       ///< the memory ops, in op order
    std::vector<uint32_t> stores_;  ///< mem_ indices of the stores
};

template <typename Err>
void
Checker::check(const RegionSchedule &sched, int issue_width, Err &&err)
{
    // Placement: bounds and slot uniqueness, over one bit per in-range
    // (cycle, slot). Out-of-range positions are already reported;
    // their repeats are found by the (cycle << 16 | slot) key.
    const size_t width = static_cast<size_t>(std::max(issue_width, 0));
    used_.assign(cellWords(sched, issue_width), 0);
    stray_.clear();
    for (const ScheduledOp &sop : sched.ops) {
        const bool cycle_ok = sop.cycle >= 0 && sop.cycle < sched.length;
        const bool slot_ok = sop.slot >= 0 && sop.slot < issue_width;
        if (!cycle_ok) {
            err(strprintf("op '%s' at cycle %d outside schedule "
                          "length %d", sop.op.str().c_str(), sop.cycle,
                          sched.length));
        }
        if (!slot_ok) {
            err(strprintf("op '%s' in slot %d on a %d-wide machine",
                          sop.op.str().c_str(), sop.slot, issue_width));
        }
        bool taken;
        if (cycle_ok && slot_ok) {
            const size_t cell = static_cast<size_t>(sop.cycle) * width +
                                static_cast<size_t>(sop.slot);
            taken = used_[cell / 64] >> (cell % 64) & 1;
            used_[cell / 64] |= uint64_t{1} << (cell % 64);
        } else {
            const int64_t key =
                (static_cast<int64_t>(sop.cycle) << 16) | sop.slot;
            taken = std::find(stray_.begin(), stray_.end(), key) !=
                    stray_.end();
            stray_.push_back(key);
        }
        if (taken) {
            err(strprintf("two ops share cycle %d slot %d", sop.cycle,
                          sop.slot));
        }
    }

    // Dataflow: readers wait out every writer's latency. Predicates
    // may have several writers (PSET plus and-type compares); readers
    // must follow all of them. The writers of slot s (a register of
    // class c, numbered over c's [lo, hi] range of destinations) are
    // writer[first[s], first[s + 1]), in op order; ready holds when
    // each op's results complete.
    const std::vector<ScheduledOp> &ops = sched.ops;
    uint32_t lo[3];
    size_t base[4];
    const size_t writes = destinationSpan(sched, lo, base);
    auto slotOf = [&](const ir::Reg &r) {
        const size_t c = static_cast<size_t>(r.cls);
        const size_t off = r.idx - lo[c];
        return r.idx < lo[c] || off >= base[c + 1] - base[c]
                   ? SIZE_MAX
                   : base[c] + off;
    };
    std::vector<uint32_t> &first = first_;
    std::vector<uint32_t> &writer = writer_;
    first.assign(base[3] + 2, 0);
    ready_.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
        ready_[i] = ops[i].cycle + ops[i].op.latency();
        for (const ir::Reg &d : ops[i].op.dsts)
            ++first[slotOf(d) + 2];
    }
    for (size_t k = 2; k < first.size(); ++k)
        first[k] += first[k - 1];
    writer.resize(writes);
    for (size_t i = 0; i < ops.size(); ++i) {
        for (const ir::Reg &d : ops[i].op.dsts)
            writer[first[slotOf(d) + 1]++] = static_cast<uint32_t>(i);
    }
    for (size_t j = 0; j < ops.size(); ++j) {
        const ScheduledOp &sop = ops[j];
        sop.op.forEachUsedReg([&](const ir::Reg &use) {
            const size_t s = slotOf(use);
            if (s == SIZE_MAX || first[s] == first[s + 1]) {
                // GPRs and BTRs may be live into the region, but
                // every predicate is synthesized inside it (path
                // predicates, guards, branch conditions); a predicate
                // read with no in-schedule writer is undefined.
                if (use.cls == ir::RegClass::Pred) {
                    const bool is_guard =
                        sop.op.guard && *sop.op.guard == use;
                    err(strprintf(
                        "'%s' reads %s %s which no scheduled op "
                        "defines",
                        sop.op.str().c_str(),
                        is_guard ? "guard predicate" : "predicate",
                        use.str().c_str()));
                }
                return;  // live-in register
            }
            for (uint32_t k = first[s]; k < first[s + 1]; ++k) {
                if (writer[k] == j || sop.cycle >= ready_[writer[k]])
                    continue;
                const ScheduledOp &w = ops[writer[k]];
                err(strprintf("'%s' (cycle %d) reads %s before '%s' "
                              "(cycle %d, latency %d) completes",
                              sop.op.str().c_str(), sop.cycle,
                              use.str().c_str(), w.op.str().c_str(),
                              w.cycle, w.op.latency()));
            }
        });
    }

    // Memory program order along a path. Two memory ops whose home
    // blocks lie on one root-to-exit path both execute in a single
    // region traversal, so when either is a store they must issue in
    // program order (the DDG's 0-latency slot-ordered edges); a store
    // reordered past a dependent load would silently read or clobber
    // the wrong value. Reachability through the region tree decides
    // "same path" (a bit row per source block, then a done word,
    // filled on first use); within one home block, op ids ascend in
    // program order (lowering emits blocks front to back with fresh
    // ids).
    const RegionTree &tree = sched.tree;
    const size_t words = (tree.size() + 63) / 64;
    bool reach_ready = false;
    auto reaches = [&](uint32_t f, uint32_t t) {
        if (f == RegionTree::kNone || t == RegionTree::kNone)
            return false;
        if (!reach_ready) {
            reach_.assign(tree.size() * (words + 1), 0);
            reach_ready = true;
        }
        uint64_t *row = &reach_[f * (words + 1)];
        if (!row[words]) {
            // Marked when pushed: at most one entry per member.
            row[words] = 1;
            row[f / 64] |= uint64_t{1} << (f % 64);
            stack_.assign(1, f);
            while (!stack_.empty()) {
                const uint32_t cur = stack_.back();
                stack_.pop_back();
                for (const uint32_t succ : tree.succs(cur)) {
                    if (!(row[succ / 64] >> (succ % 64) & 1)) {
                        row[succ / 64] |= uint64_t{1} << (succ % 64);
                        stack_.push_back(succ);
                    }
                }
            }
        }
        return (row[t / 64] >> (t % 64) & 1) != 0;
    };
    // Pairs in (i, j) order of the memory ops, skipping load-load
    // pairs: a load meets only the stores after it.
    mem_.clear();
    stores_.clear();
    for (const ScheduledOp &sop : sched.ops) {
        if (!sop.op.isMemory())
            continue;
        if (sop.op.isStore())
            stores_.push_back(static_cast<uint32_t>(mem_.size()));
        mem_.push_back({&sop, sop.home, tree.position(sop.home), sop.op.id,
                        sop.cycle, sop.slot, sop.op.isStore()});
    }
    auto checkPair = [&](const MemRef &a, const MemRef &b) {
        const MemRef *first = nullptr;
        const MemRef *second = nullptr;
        if (a.home == b.home) {
            first = a.id < b.id ? &a : &b;
            second = first == &a ? &b : &a;
        } else if (reaches(a.pos, b.pos)) {
            first = &a;
            second = &b;
        } else if (reaches(b.pos, a.pos)) {
            first = &b;
            second = &a;
        } else {
            return;  // disjoint paths: never both executed
        }
        if (first->cycle > second->cycle ||
            (first->cycle == second->cycle && first->slot >= second->slot)) {
            err(strprintf(
                "memory order violated on a path: '%s' "
                "(cycle %d slot %d) must issue before '%s' "
                "(cycle %d slot %d)",
                first->sop->op.str().c_str(), first->cycle, first->slot,
                second->sop->op.str().c_str(), second->cycle,
                second->slot));
        }
    };
    size_t next_store = 0;  // first entry of stores_ past i
    for (size_t i = 0; i < mem_.size(); ++i) {
        while (next_store < stores_.size() && stores_[next_store] <= i)
            ++next_store;
        if (mem_[i].store) {
            for (size_t j = i + 1; j < mem_.size(); ++j)
                checkPair(mem_[i], mem_[j]);
        } else {
            for (size_t k = next_store; k < stores_.size(); ++k)
                checkPair(mem_[i], mem_[stores_[k]]);
        }
    }

    // Exit records point at branches and carry matching cycles.
    for (const ScheduledExit &exit : sched.exits) {
        if (exit.op_index == ScheduledExit::kFallthrough)
            continue;  // no branch op to cross-check
        if (exit.op_index >= sched.ops.size()) {
            err("exit op_index out of range");
            continue;
        }
        const ScheduledOp &branch = sched.ops[exit.op_index];
        if (!branch.op.isBranch())
            err(strprintf("exit points at non-branch '%s'",
                          branch.op.str().c_str()));
        if (exit.cycle != branch.cycle)
            err(strprintf("exit cycle %d != branch cycle %d",
                          exit.cycle, branch.cycle));
    }
}

} // namespace

std::vector<std::string>
verifySchedule(const RegionSchedule &sched, int issue_width)
{
    std::vector<std::string> problems;
    Checker(sched, issue_width)
        .check(sched, issue_width,
               [&](std::string msg) { problems.push_back(std::move(msg)); });
    return problems;
}

std::vector<std::string>
verifyFunctionSchedule(const FunctionSchedule &sched, int issue_width)
{
    support::SpanScope span("verify");
    std::vector<std::string> problems;
    Checker checker(sched, issue_width);
    for (const auto &[root, rs] : sched.regions) {
        checker.check(rs, issue_width, [&](const std::string &p) {
            problems.push_back(
                strprintf("region bb%u: %s", root, p.c_str()));
        });
    }
    return problems;
}

} // namespace treegion::sched
