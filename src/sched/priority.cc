#include "sched/priority.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace treegion::sched {

std::string
heuristicName(Heuristic heuristic)
{
    switch (heuristic) {
      case Heuristic::DependenceHeight: return "dep-height";
      case Heuristic::ExitCount: return "exit-count";
      case Heuristic::GlobalWeight: return "global-weight";
      case Heuristic::WeightedCount: return "weighted-count";
    }
    TG_PANIC("bad Heuristic");
}

const PriorityKeys *
computePriorityKeys(ir::Function &fn, const LoweredRegion &lowered,
                    const RegionIndex &index, const Ddg &ddg,
                    support::Arena &arena)
{
    const size_t num_blocks = index.numBlocks();

    // Exits at-or-below each block, via region-internal reachability.
    size_t *exits_below = arena.allocZeroed<size_t>(num_blocks);
    double *weight_of = arena.allocArray<double>(num_blocks);
    {
        support::ArenaVector<uint32_t> reach(arena);
        for (uint32_t bi = 0; bi < num_blocks; ++bi) {
            reach.clear();
            index.reachableFrom(bi, reach);
            size_t count = 0;
            for (const uint32_t reached : reach)
                count += index.exitsIn(reached).size();
            exits_below[bi] = count;
            weight_of[bi] = fn.block(index.blockOf(bi)).weight();
        }
    }

    // Dense weight ranks over the blocks, so sortByPriority's weight
    // pass counts instead of comparing. An unprofiled input's weights
    // may be NaN: those rank last, level with each other.
    auto heavier = [&](uint32_t a, uint32_t b) {
        return weight_of[a] > weight_of[b] ||
               (std::isnan(weight_of[b]) && !std::isnan(weight_of[a]));
    };
    uint32_t *by_weight = arena.allocArray<uint32_t>(num_blocks);
    for (uint32_t bi = 0; bi < num_blocks; ++bi)
        by_weight[bi] = bi;
    std::sort(by_weight, by_weight + num_blocks, heavier);
    uint32_t *rank_of = arena.allocArray<uint32_t>(num_blocks);
    for (uint32_t k = 0, rank = 0; k < num_blocks; ++k) {
        if (k > 0 && heavier(by_weight[k - 1], by_weight[k]))
            ++rank;
        rank_of[by_weight[k]] = rank;
    }

    PriorityKeys *keys = arena.allocArray<PriorityKeys>(
        lowered.ops.size());
    for (size_t i = 0; i < lowered.ops.size(); ++i) {
        const uint32_t bi = index.indexOf(lowered.ops[i].home);
        keys[i].height = ddg.height(i);
        keys[i].exit_count = exits_below[bi];
        keys[i].weight = weight_of[bi];
        keys[i].weight_rank = rank_of[bi];
    }
    return keys;
}

uint32_t *
sortByPriority(const PriorityKeys *keys, size_t n, Heuristic heuristic,
               support::Arena &arena)
{
    uint32_t *order = arena.allocArray<uint32_t>(n);
    if (n == 0)
        return order;
    uint32_t *next = arena.allocArray<uint32_t>(n);
    int low = keys[0].height, high = keys[0].height;
    size_t most_exits = 0;
    uint32_t last_rank = 0;
    for (size_t i = 0; i < n; ++i) {
        order[i] = static_cast<uint32_t>(i);
        low = std::min(low, keys[i].height);
        high = std::max(high, keys[i].height);
        most_exits = std::max(most_exits, keys[i].exit_count);
        last_rank = std::max(last_rank, keys[i].weight_rank);
    }

    // Stable counting passes, least significant key first, from
    // lowering order: each pass keeps the previous order among equal
    // keys, so the result is (keys descending, then lowering order)
    // without a comparison. bucket(i) is in [0, buckets), 0 first.
    auto pass = [&](size_t buckets, auto bucket) {
        uint32_t *start = arena.allocZeroed<uint32_t>(buckets + 1);
        for (size_t k = 0; k < n; ++k)
            ++start[bucket(order[k]) + 1];
        for (size_t b = 1; b <= buckets; ++b)
            start[b] += start[b - 1];
        for (size_t k = 0; k < n; ++k)
            next[start[bucket(order[k])]++] = order[k];
        std::swap(order, next);
    };
    pass(static_cast<size_t>(high - low) + 1, [&](uint32_t i) {
        return static_cast<size_t>(high - keys[i].height);
    });
    if (heuristic == Heuristic::ExitCount ||
        heuristic == Heuristic::WeightedCount) {
        pass(most_exits + 1,
             [&](uint32_t i) { return most_exits - keys[i].exit_count; });
    }
    if (heuristic == Heuristic::GlobalWeight ||
        heuristic == Heuristic::WeightedCount) {
        pass(size_t{last_rank} + 1,
             [&](uint32_t i) { return size_t{keys[i].weight_rank}; });
    }
    return order;
}

} // namespace treegion::sched
