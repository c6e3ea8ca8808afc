#include "sched/ddg.h"

#include <algorithm>
#include <cstring>

#include "support/logging.h"

namespace treegion::sched {

using ir::BlockId;
using ir::Reg;
using support::Arena;
using support::ArenaVector;

namespace {

/** Visit cap for per-path DAG walks; beyond it we fall back to a
 * fully conservative total order. */
constexpr size_t kWalkBudget = 1u << 17;

/** One destination of a lowered op. */
struct Def
{
    Reg reg;
    uint32_t op;
};

/**
 * Dense numbering of the registers a region defines: per class, the
 * [lo, lo + span) range of its destinations. Lowering allocates a
 * region's fresh registers consecutively, so the table follows the
 * region's size, not the function's register count.
 */
struct RegSpace
{
    explicit RegSpace(const ArenaVector<Def> &defs)
    {
        uint32_t hi[3] = {};  // one past the largest index
        for (const Def &def : defs) {
            const size_t c = static_cast<size_t>(def.reg.cls);
            lo[c] = std::min(lo[c], def.reg.idx);
            hi[c] = std::max(hi[c], def.reg.idx + 1);
        }
        for (size_t c = 0; c < 3; ++c) {
            span[c] = hi[c] > lo[c] ? hi[c] - lo[c] : 0;
            base[c] = size;
            size += span[c];
        }
    }

    /** @return dense key of @p r, or SIZE_MAX when out of range. */
    size_t
    key(const Reg &r) const
    {
        const size_t c = static_cast<size_t>(r.cls);
        const uint32_t off = r.idx - lo[c];  // wraps below lo
        return off < span[c] ? base[c] + off : SIZE_MAX;
    }

    uint32_t lo[3] = {UINT32_MAX, UINT32_MAX, UINT32_MAX};
    uint32_t span[3] = {};
    size_t base[3] = {};
    size_t size = 0;
};

} // namespace

Ddg::Ddg(const LoweredRegion &lowered, const RegionIndex &index,
         Arena &arena)
{
    build(lowered, index, arena);
}

Ddg::Ddg(const LoweredRegion &lowered)
    : owned_arena_(std::make_unique<Arena>())
{
    const RegionIndex index(lowered, *owned_arena_);
    build(lowered, index, *owned_arena_);
}

void
Ddg::build(const LoweredRegion &lowered, const RegionIndex &index,
           Arena &arena)
{
    const size_t n = lowered.ops.size();
    n_ = n;
    succs_ = arena.allocZeroed<EdgeList>(n);
    heights_ = arena.allocZeroed<int32_t>(n);

    // Per-op latency cache (repeated opcodeInfo lookups add up).
    int32_t *lat = arena.allocArray<int32_t>(n);
    for (size_t i = 0; i < n; ++i)
        lat[i] = lowered.ops[i].op.latency();

    // Definition CSR keyed by RegSpace. Full renaming gives GPRs/BTRs
    // a single def; wired-AND predicates have one initializer plus one
    // compare per condition, and hyperblock merge copies give one
    // guarded MOV per incoming edge (the guards are mutually
    // exclusive, so the writes commute and carry no mutual ordering).
    ArenaVector<Def> defs(arena);
    defs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        for (const Reg &d : lowered.ops[i].op.dsts)
            defs.push_back({d, static_cast<uint32_t>(i)});
    }
    const RegSpace regs(defs);
    uint32_t *def_off = arena.allocZeroed<uint32_t>(regs.size + 1);
    for (const Def &def : defs)
        ++def_off[regs.key(def.reg) + 1];
    for (size_t r = 0; r < regs.size; ++r)
        def_off[r + 1] += def_off[r];
    uint32_t *def_list = arena.allocArray<uint32_t>(defs.size());
    {
        uint32_t *fill = arena.allocArray<uint32_t>(regs.size);
        std::memcpy(fill, def_off, regs.size * sizeof(uint32_t));
        for (const Def &def : defs) {
            const size_t r = regs.key(def.reg);
            TG_ASSERT(fill[r] == def_off[r] ||
                      def.reg.cls == ir::RegClass::Pred ||
                      lowered.ops[def.op].op.guard.has_value());
            def_list[fill[r]++] = def.op;
        }
    }
    auto defs_of = [&](const Reg &r) -> support::Span<uint32_t> {
        const size_t key = regs.key(r);
        if (key == SIZE_MAX)
            return {};
        return {def_list + def_off[key], def_off[key + 1] - def_off[key]};
    };

    // Value edges: sources and guards read after every producer.
    for (size_t i = 0; i < n; ++i) {
        const ir::Op &op = lowered.ops[i].op;
        op.forEachUsedReg([&](const Reg &use) {
            for (const uint32_t j : defs_of(use)) {
                if (j != i)
                    addEdge(arena, j, i, lat[j], false);
            }
        });
        // Accumulating predicate defines read-modify-write their
        // destination: they must follow the initializer (but not
        // their commuting siblings).
        if (op.opcode == ir::Opcode::CMPPA ||
            op.opcode == ir::Opcode::CMPPO) {
            const auto list = defs_of(op.dsts[0]);
            TG_ASSERT(!list.empty());
            TG_ASSERT(lowered.ops[list[0]].op.opcode ==
                          ir::Opcode::PSET ||
                      lowered.ops[list[0]].op.opcode ==
                          ir::Opcode::PCLR);
            addEdge(arena, list[0], i, 1, false);
        }
    }

    const uint32_t root_bi = index.indexOf(lowered.root);

    // Memory order edges along each internal path (DFS; a DAG may
    // visit merge blocks once per incoming path). The path state is a
    // single shared (last store, loads-since window) snapshot rolled
    // back on block exit — equivalent to the by-value state the walk
    // used to copy per path, minus the copies.
    size_t walk_budget = kWalkBudget;
    bool budget_hit = false;
    {
        ssize_t last_store = -1;
        ArenaVector<uint32_t> loads(arena);
        size_t window_start = 0;  // loads_since == loads[window..end)
        auto mem_walk = [&](auto &&self, uint32_t bi) -> void {
            if (walk_budget == 0) {
                budget_hit = true;
                return;
            }
            --walk_budget;
            const ssize_t saved_last = last_store;
            const size_t saved_window = window_start;
            const size_t saved_size = loads.size();
            for (const uint32_t i : index.opsIn(bi)) {
                const ir::Op &op = lowered.ops[i].op;
                if (op.isStore()) {
                    if (last_store >= 0)
                        addEdge(arena,
                                static_cast<size_t>(last_store), i, 0,
                                true);
                    for (size_t k = window_start; k < loads.size(); ++k)
                        addEdge(arena, loads[k], i, 0, true);
                    last_store = static_cast<ssize_t>(i);
                    window_start = loads.size();
                } else if (op.isLoad()) {
                    if (last_store >= 0)
                        addEdge(arena,
                                static_cast<size_t>(last_store), i, 0,
                                true);
                    loads.push_back(i);
                }
            }
            for (const uint32_t child : index.succs(bi))
                self(self, child);
            last_store = saved_last;
            window_start = saved_window;
            loads.resize(saved_size);
        };
        mem_walk(mem_walk, root_bi);
    }

    // Pinning edges: each guarded store precedes every exit branch
    // reachable at or below its block. Same rollback discipline; the
    // store set only ever grows along a path, so a size mark suffices.
    {
        ArenaVector<uint32_t> stores(arena);
        auto pin_walk = [&](auto &&self, uint32_t bi) -> void {
            if (walk_budget == 0) {
                budget_hit = true;
                return;
            }
            --walk_budget;
            const size_t saved_size = stores.size();
            for (const uint32_t i : index.opsIn(bi)) {
                if (lowered.ops[i].pinned)
                    stores.push_back(i);
            }
            for (const uint32_t e : index.exitsIn(bi)) {
                const size_t exit_op = lowered.exits[e].op_index;
                for (const uint32_t s : stores) {
                    if (s != exit_op)
                        addEdge(arena, s, exit_op, 0, false);
                }
            }
            for (const uint32_t child : index.succs(bi))
                self(self, child);
            stores.resize(saved_size);
        };
        pin_walk(pin_walk, root_bi);
    }

    if (budget_hit) {
        // Pathologically path-dense region: fall back to a total
        // order over all memory ops and exits in emission order.
        // Strictly more conservative, always correct.
        ssize_t last_mem = -1;
        for (size_t i = 0; i < n; ++i) {
            const ir::Op &op = lowered.ops[i].op;
            if (op.isMemory()) {
                if (last_mem >= 0)
                    addEdge(arena, static_cast<size_t>(last_mem), i, 0,
                            true);
                last_mem = static_cast<ssize_t>(i);
            }
        }
        for (const LoweredExit &exit : lowered.exits) {
            for (size_t i = 0; i < exit.op_index; ++i) {
                if (lowered.ops[i].pinned)
                    addEdge(arena, i, exit.op_index, 0, false);
            }
        }
    }

    // Exit data edges for reconciliation copies.
    for (const LoweredExit &exit : lowered.exits) {
        for (const ExitCopy &copy : exit.copies) {
            for (const uint32_t j : defs_of(copy.src)) {
                if (j != exit.op_index)
                    addEdge(arena, j, exit.op_index, lat[j] - 1, false);
            }
        }
    }

    // Extra deps (PBR -> branch).
    for (const auto &[from, to] : lowered.extra_deps)
        addEdge(arena, from, to, lat[from], false);

    // Merge parallel edges, keeping the strongest constraint: one
    // edge per (other end, slot_ordered), at the largest latency. A
    // stamp table keyed by that pair makes each list linear; nothing
    // reads list order (every consumer takes a max or an all-of).
    {
        uint32_t *stamp = arena.allocZeroed<uint32_t>(2 * n);
        uint32_t *slot = arena.allocArray<uint32_t>(2 * n);
        for (size_t i = 0; i < n; ++i) {
            EdgeList &edges = succs_[i];
            const uint32_t epoch = static_cast<uint32_t>(i) + 1;
            uint32_t kept = 0;
            for (uint32_t k = 0; k < edges.size; ++k) {
                const DdgEdge e = edges.data[k];
                const size_t key = 2 * size_t{e.other} + e.slot_ordered;
                if (stamp[key] == epoch) {
                    int32_t &lat_kept = edges.data[slot[key]].latency;
                    lat_kept = std::max(lat_kept, e.latency);
                    continue;
                }
                stamp[key] = epoch;
                slot[key] = kept;
                edges.data[kept++] = e;
            }
            edges.size = kept;
        }
    }

    // Heights: longest path over the stored edges, plus the control
    // rule for exit branches (1 + the tallest op homed strictly below
    // the branch's block). sub[bi] memoizes the tallest op at or
    // below block bi, so every exit reads its children's entries
    // instead of walking its subtree. Height floors let a second pass
    // raise specific nodes without introducing cycles.
    int32_t *floors = arena.allocZeroed<int32_t>(n);
    int8_t *mark = arena.allocArray<int8_t>(n);
    const size_t num_blocks = index.numBlocks();
    int32_t *sub = arena.allocArray<int32_t>(num_blocks);
    int8_t *sub_mark = arena.allocArray<int8_t>(num_blocks);
    auto compute_heights = [&]() {
        std::memset(mark, 0, n);  // 0 new, 1 open, 2 done
        std::memset(sub_mark, 0, num_blocks);
        auto height_of = [&](auto &&self, size_t i) -> int {
            if (mark[i] == 2)
                return heights_[i];
            TG_ASSERT(mark[i] != 1 && "cycle in DDG");
            mark[i] = 1;
            int h = std::max(lat[i], floors[i]);
            for (const DdgEdge &e : succs(i))
                h = std::max(h, e.latency + self(self, e.other));
            if (lowered.ops[i].kind == LoweredKind::ExitBranch) {
                // Tallest op at or below block bi (-1: none).
                auto tallest_from = [&](auto &&below,
                                        uint32_t bi) -> int {
                    if (sub_mark[bi] == 2)
                        return sub[bi];
                    TG_ASSERT(sub_mark[bi] != 1 && "cycle in region");
                    sub_mark[bi] = 1;
                    int t = -1;
                    for (const uint32_t j : index.opsIn(bi))
                        t = std::max(t, self(self, j));
                    for (const uint32_t child : index.succs(bi))
                        t = std::max(t, below(below, child));
                    sub_mark[bi] = 2;
                    sub[bi] = t;
                    return t;
                };
                const uint32_t home = index.indexOf(lowered.ops[i].home);
                for (const uint32_t child : index.succs(home)) {
                    const int t = tallest_from(tallest_from, child);
                    if (t >= 0)
                        h = std::max(h, 1 + t);
                }
            }
            mark[i] = 2;
            heights_[i] = h;
            return h;
        };
        for (size_t i = 0; i < n; ++i)
            height_of(height_of, i);
    };
    compute_heights();

    // Loop recurrence criticality: a back-edge exit (an exit whose
    // target is the region's own root) gates the entire next
    // iteration, so its dependence height is floored at one more than
    // the tallest op in the region. The floor propagates through the
    // real data edges into whatever feeds the exit - typically the
    // induction update - which would otherwise look like dead-end
    // code to the dependence-height heuristic. (The paper performs no
    // software pipelining, but region schedulers still must not
    // stretch the recurrence.)
    bool any_backedge = false;
    int tallest = 0;
    for (size_t i = 0; i < n; ++i)
        tallest = std::max(tallest, static_cast<int>(heights_[i]));
    for (const LoweredExit &exit : lowered.exits) {
        if (!exit.is_ret && exit.target == lowered.root) {
            floors[exit.op_index] = tallest + 1;
            any_backedge = true;
        }
    }
    if (any_backedge)
        compute_heights();
}

} // namespace treegion::sched
