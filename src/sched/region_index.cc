#include "sched/region_index.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::sched {

using ir::BlockId;

RegionIndex::RegionIndex(const LoweredRegion &lowered,
                         support::Arena &arena)
    : arena_(&arena)
{
    // Member blocks: succs_in_region keys and values, op homes, exit
    // sources. (Both lowerings key every member block, but belt and
    // braces costs nothing here.)
    BlockId min_id = lowered.root;
    BlockId max_id = lowered.root;
    auto raise = [&](BlockId id) {
        if (id == ir::kNoBlock)
            return;
        min_id = std::min(min_id, id);
        max_id = std::max(max_id, id);
    };
    for (const auto &[block, succs] : lowered.succs_in_region) {
        raise(block);
        for (const BlockId succ : succs)
            raise(succ);
    }
    for (const LoweredOp &op : lowered.ops)
        raise(op.home);
    for (const LoweredExit &exit : lowered.exits)
        raise(exit.from);

    map_lo_ = min_id;
    map_size_ = static_cast<size_t>(max_id - min_id) + 1;
    block_index_ = arena.allocFilled<uint32_t>(map_size_, kInvalid);

    uint8_t *member = arena.allocZeroed<uint8_t>(map_size_);
    member[lowered.root - min_id] = 1;
    for (const auto &[block, succs] : lowered.succs_in_region) {
        member[block - min_id] = 1;
        for (const BlockId succ : succs)
            member[succ - min_id] = 1;
    }
    for (const LoweredOp &op : lowered.ops)
        member[op.home - min_id] = 1;
    for (const LoweredExit &exit : lowered.exits)
        member[exit.from - min_id] = 1;

    // Dense indices in ascending BlockId order: deterministic and
    // independent of hash-map iteration order.
    for (size_t off = 0; off < map_size_; ++off) {
        if (member[off])
            block_index_[off] = static_cast<uint32_t>(num_blocks_++);
    }
    blocks_ = arena.allocArray<BlockId>(num_blocks_);
    for (size_t off = 0; off < map_size_; ++off) {
        if (member[off])
            blocks_[block_index_[off]] = static_cast<BlockId>(min_id + off);
    }

    // Successor CSR (each list keeps its lowering order).
    succ_off_ = arena.allocZeroed<uint32_t>(num_blocks_ + 1);
    for (const auto &[block, succs] : lowered.succs_in_region)
        succ_off_[indexOf(block) + 1] +=
            static_cast<uint32_t>(succs.size());
    for (size_t bi = 0; bi < num_blocks_; ++bi)
        succ_off_[bi + 1] += succ_off_[bi];
    succ_list_ = arena.allocArray<uint32_t>(succ_off_[num_blocks_]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(num_blocks_);
        for (size_t bi = 0; bi < num_blocks_; ++bi)
            fill[bi] = succ_off_[bi];
        for (const auto &[block, succs] : lowered.succs_in_region) {
            const uint32_t bi = indexOf(block);
            for (const BlockId succ : succs)
                succ_list_[fill[bi]++] = indexOf(succ);
        }
    }

    // Homed-op CSR, ascending op index per block.
    op_off_ = arena.allocZeroed<uint32_t>(num_blocks_ + 1);
    for (const LoweredOp &op : lowered.ops)
        ++op_off_[indexOf(op.home) + 1];
    for (size_t bi = 0; bi < num_blocks_; ++bi)
        op_off_[bi + 1] += op_off_[bi];
    op_list_ = arena.allocArray<uint32_t>(op_off_[num_blocks_]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(num_blocks_);
        for (size_t bi = 0; bi < num_blocks_; ++bi)
            fill[bi] = op_off_[bi];
        for (size_t i = 0; i < lowered.ops.size(); ++i)
            op_list_[fill[indexOf(lowered.ops[i].home)]++] =
                static_cast<uint32_t>(i);
    }

    // Exit CSR, ascending exit index per block.
    exit_off_ = arena.allocZeroed<uint32_t>(num_blocks_ + 1);
    for (const LoweredExit &exit : lowered.exits)
        ++exit_off_[indexOf(exit.from) + 1];
    for (size_t bi = 0; bi < num_blocks_; ++bi)
        exit_off_[bi + 1] += exit_off_[bi];
    exit_list_ = arena.allocArray<uint32_t>(exit_off_[num_blocks_]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(num_blocks_);
        for (size_t bi = 0; bi < num_blocks_; ++bi)
            fill[bi] = exit_off_[bi];
        for (size_t e = 0; e < lowered.exits.size(); ++e)
            exit_list_[fill[indexOf(lowered.exits[e].from)]++] =
                static_cast<uint32_t>(e);
    }
}

void
RegionIndex::reachableFrom(uint32_t bi,
                           support::ArenaVector<uint32_t> &out) const
{
    // Explicit stack, visited check at pop (a DAG region reaches a
    // merge block along several paths).
    uint8_t *seen = arena_->allocZeroed<uint8_t>(num_blocks_);
    support::ArenaVector<uint32_t> stack(*arena_);
    stack.push_back(bi);
    while (!stack.empty()) {
        const uint32_t cur = stack.back();
        stack.pop_back();
        if (seen[cur])
            continue;
        seen[cur] = 1;
        out.push_back(cur);
        for (const uint32_t succ : succs(cur))
            stack.push_back(succ);
    }
}

} // namespace treegion::sched
