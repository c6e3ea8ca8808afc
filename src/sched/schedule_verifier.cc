#include "sched/schedule_verifier.h"

#include <algorithm>
#include <cstdint>

#include "support/string_utils.h"
#include "support/spans.h"

namespace treegion::sched {

using support::strprintf;

std::vector<std::string>
verifySchedule(const RegionSchedule &sched, int issue_width)
{
    std::vector<std::string> problems;
    auto err = [&](std::string msg) {
        problems.push_back(std::move(msg));
    };

    // Placement: bounds and slot uniqueness, over one bit per in-range
    // (cycle, slot). Out-of-range positions are already reported;
    // their repeats are found by the (cycle << 16 | slot) key.
    const size_t width = static_cast<size_t>(std::max(issue_width, 0));
    std::vector<uint64_t> used(
        (static_cast<size_t>(std::max(sched.length, 0)) * width + 63) /
        64);
    std::vector<int64_t> stray;
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
            taken = used[cell / 64] >> (cell % 64) & 1;
            used[cell / 64] |= uint64_t{1} << (cell % 64);
        } else {
            const int64_t key =
                (static_cast<int64_t>(sop.cycle) << 16) | sop.slot;
            taken = std::find(stray.begin(), stray.end(), key) !=
                    stray.end();
            stray.push_back(key);
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
    // writer[first[s], first[s + 1]), in op order.
    const std::vector<ScheduledOp> &ops = sched.ops;
    uint32_t lo[3] = {UINT32_MAX, UINT32_MAX, UINT32_MAX};
    uint32_t hi[3] = {0, 0, 0};
    for (const ScheduledOp &sop : ops) {
        for (const ir::Reg &d : sop.op.dsts) {
            const size_t c = static_cast<size_t>(d.cls);
            lo[c] = std::min(lo[c], d.idx);
            hi[c] = std::max(hi[c], d.idx);
        }
    }
    size_t base[4] = {0, 0, 0, 0};
    for (size_t c = 0; c < 3; ++c)
        base[c + 1] = base[c] + (lo[c] <= hi[c] ? hi[c] - lo[c] + 1 : 0);
    auto slotOf = [&](const ir::Reg &r) {
        const size_t c = static_cast<size_t>(r.cls);
        return r.idx < lo[c] || r.idx > hi[c] ? SIZE_MAX
                                              : base[c] + (r.idx - lo[c]);
    };
    std::vector<uint32_t> first(base[3] + 2, 0);
    for (const ScheduledOp &sop : ops) {
        for (const ir::Reg &d : sop.op.dsts)
            ++first[slotOf(d) + 2];
    }
    for (size_t k = 2; k < first.size(); ++k)
        first[k] += first[k - 1];
    std::vector<uint32_t> writer(first.back());
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
                if (writer[k] == j)
                    continue;
                const ScheduledOp *w = &ops[writer[k]];
                if (sop.cycle < w->cycle + w->op.latency()) {
                    err(strprintf(
                        "'%s' (cycle %d) reads %s before '%s' "
                        "(cycle %d, latency %d) completes",
                        sop.op.str().c_str(), sop.cycle,
                        use.str().c_str(), w->op.str().c_str(),
                        w->cycle, w->op.latency()));
                }
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
    std::vector<uint64_t> reach;
    std::vector<uint32_t> stack;
    auto reaches = [&](ir::BlockId from, ir::BlockId to) {
        const uint32_t f = tree.position(from);
        const uint32_t t = tree.position(to);
        if (f == RegionTree::kNone || t == RegionTree::kNone)
            return false;
        if (reach.empty())
            reach.assign(tree.size() * (words + 1), 0);
        uint64_t *row = &reach[f * (words + 1)];
        if (!row[words]) {
            row[words] = 1;
            stack.assign(1, f);
            while (!stack.empty()) {
                const uint32_t cur = stack.back();
                stack.pop_back();
                if (row[cur / 64] >> (cur % 64) & 1)
                    continue;
                row[cur / 64] |= uint64_t{1} << (cur % 64);
                for (const uint32_t succ : tree.succs(cur))
                    stack.push_back(succ);
            }
        }
        return (row[t / 64] >> (t % 64) & 1) != 0;
    };
    auto slotBefore = [](const ScheduledOp *a, const ScheduledOp *b) {
        return a->cycle < b->cycle ||
               (a->cycle == b->cycle && a->slot < b->slot);
    };
    std::vector<const ScheduledOp *> mem_ops;
    for (const ScheduledOp &sop : sched.ops) {
        if (sop.op.isMemory())
            mem_ops.push_back(&sop);
    }
    for (size_t i = 0; i < mem_ops.size(); ++i) {
        for (size_t j = i + 1; j < mem_ops.size(); ++j) {
            const ScheduledOp *a = mem_ops[i];
            const ScheduledOp *b = mem_ops[j];
            if (!a->op.isStore() && !b->op.isStore())
                continue;
            const ScheduledOp *first = nullptr;
            const ScheduledOp *second = nullptr;
            if (a->home == b->home) {
                first = a->op.id < b->op.id ? a : b;
                second = first == a ? b : a;
            } else if (reaches(a->home, b->home)) {
                first = a;
                second = b;
            } else if (reaches(b->home, a->home)) {
                first = b;
                second = a;
            } else {
                continue;  // disjoint paths: never both executed
            }
            if (!slotBefore(first, second)) {
                err(strprintf(
                    "memory order violated on a path: '%s' "
                    "(cycle %d slot %d) must issue before '%s' "
                    "(cycle %d slot %d)",
                    first->op.str().c_str(), first->cycle,
                    first->slot, second->op.str().c_str(),
                    second->cycle, second->slot));
            }
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
    return problems;
}

std::vector<std::string>
verifyFunctionSchedule(const FunctionSchedule &sched, int issue_width)
{
    support::SpanScope span("verify");
    std::vector<std::string> problems;
    for (const auto &[root, rs] : sched.regions) {
        for (std::string &p : verifySchedule(rs, issue_width)) {
            problems.push_back(
                strprintf("region bb%u: %s", root, p.c_str()));
        }
    }
    return problems;
}

} // namespace treegion::sched
