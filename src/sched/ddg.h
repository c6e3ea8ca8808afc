/**
 * @file
 * Data dependence graph over a lowered region.
 *
 * Edge kinds and latencies:
 *  - Value edges (def -> use, including guards and branch condition
 *    reads): latency = producer latency; the consumer reads in its
 *    issue cycle's read phase.
 *  - Memory order edges along each root-to-leaf path (loads cannot
 *    bypass stores; stores stay ordered; store->dependent memory op
 *    may share a cycle in slot order, the Play-Doh rule): latency 0,
 *    slot-ordered.
 *  - Pinning edges from each guarded store to every exit branch
 *    reachable below it (taking an exit must not skip a store the
 *    sequential program would have executed): latency 0.
 *  - Exit data edges from the producer of each exit reconciliation
 *    copy's source to the exit branch: latency = producer latency - 1
 *    (the value must be architecturally visible when the next region
 *    starts one cycle after the exit).
 *
 * Control dependence is a height rule, not stored edges: an exit
 * branch's dependence height also covers 1 + the tallest op homed
 * strictly below its block, exactly as if the classic control+data
 * DAG had an edge from the branch to every op it controls (so exits
 * near the root rank high under the dependence-height heuristic).
 * Those edges never constrain the scheduler (speculation breaks
 * control dependences), so storing them would only cost the
 * placement loops a skip per edge.
 *
 * The region's internal control structure comes from
 * LoweredRegion::tree — a tree for treegions and linear
 * regions, a DAG for hyperblocks — so this graph (and hence the list
 * scheduler) is agnostic to the region type.
 *
 * Cost follows the region, not the function: the definition table is
 * keyed by each register class's [lo, hi] range of the region's own
 * destinations (lowering allocates them consecutively), never by the
 * function's register count, and parallel edges are merged with a
 * stamp table in linear time.
 *
 * Storage: everything lives in a caller-provided per-job arena (see
 * DESIGN.md §11) — per-node successor lists of POD edges, no
 * predecessor lists (the list scheduler reads successors only), no
 * per-node heap traffic. The one-argument constructor owns a private
 * arena for convenience in tests and one-off tools.
 */

#ifndef TREEGION_SCHED_DDG_H
#define TREEGION_SCHED_DDG_H

#include <memory>

#include "sched/lowering.h"
#include "sched/region_index.h"
#include "support/arena.h"
#include "support/logging.h"

namespace treegion::sched {

/** One dependence edge. */
struct DdgEdge
{
    uint32_t other;      ///< the node on the other end
    int32_t latency;     ///< minimum cycle distance (0 = same cycle ok)
    bool slot_ordered;   ///< 0-latency edges that additionally require
                         ///< earlier-slot placement when sharing a cycle
};

/** Dependence graph for one lowered region. */
class Ddg
{
  public:
    /** Build the graph in @p arena using a prebuilt block index. */
    Ddg(const LoweredRegion &lowered, const RegionIndex &index,
        support::Arena &arena);

    /** Convenience: build with a private arena (tests, tools). */
    explicit Ddg(const LoweredRegion &lowered);

    /** @return node count (== lowered op count). */
    size_t size() const { return n_; }

    /** @return outgoing edges of node @p i. */
    support::Span<DdgEdge>
    succs(size_t i) const
    {
        return {succs_[i].data, succs_[i].size};
    }

    /**
     * Dependence height of node @p i: the critical-path length (in
     * cycles) from the node to any sink, inclusive of its own
     * latency, with exit branches covering the ops they control (see
     * the file header).
     */
    int height(size_t i) const { return heights_[i]; }

  private:
    /** Arena-backed growable edge list. */
    struct EdgeList
    {
        DdgEdge *data = nullptr;
        uint32_t size = 0;
        uint32_t cap = 0;

        void
        push(support::Arena &arena, const DdgEdge &e)
        {
            if (size == cap) {
                const uint32_t grown = cap ? cap * 2 : 4;
                DdgEdge *moved = arena.allocArray<DdgEdge>(grown);
                for (uint32_t k = 0; k < size; ++k)
                    moved[k] = data[k];
                data = moved;
                cap = grown;
            }
            data[size++] = e;
        }
    };

    void build(const LoweredRegion &lowered, const RegionIndex &index,
               support::Arena &arena);

    /** Add the edge @p from -> @p to to @p from's successors. */
    void
    addEdge(support::Arena &arena, size_t from, size_t to, int latency,
            bool slot_ordered)
    {
        TG_ASSERT(from != to);
        succs_[from].push(arena, {static_cast<uint32_t>(to), latency,
                                  slot_ordered});
    }

    size_t n_ = 0;
    EdgeList *succs_ = nullptr;
    int32_t *heights_ = nullptr;

    /** Backing storage for the convenience constructor only. */
    std::unique_ptr<support::Arena> owned_arena_;
};

} // namespace treegion::sched

#endif // TREEGION_SCHED_DDG_H
