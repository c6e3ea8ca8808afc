#include "sched/region_index.h"

#include "support/logging.h"

namespace treegion::sched {

RegionIndex::RegionIndex(const LoweredRegion &lowered,
                         support::Arena &arena)
    : arena_(&arena), tree_(&lowered.tree)
{
    const size_t num_blocks = numBlocks();

    // Homed-op CSR, ascending op index per block.
    op_off_ = arena.allocZeroed<uint32_t>(num_blocks + 1);
    for (const LoweredOp &op : lowered.ops)
        ++op_off_[indexOf(op.home) + 1];
    for (size_t bi = 0; bi < num_blocks; ++bi)
        op_off_[bi + 1] += op_off_[bi];
    op_list_ = arena.allocArray<uint32_t>(op_off_[num_blocks]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(num_blocks);
        for (size_t bi = 0; bi < num_blocks; ++bi)
            fill[bi] = op_off_[bi];
        for (size_t i = 0; i < lowered.ops.size(); ++i)
            op_list_[fill[indexOf(lowered.ops[i].home)]++] =
                static_cast<uint32_t>(i);
    }

    // Exit CSR, ascending exit index per block.
    exit_off_ = arena.allocZeroed<uint32_t>(num_blocks + 1);
    for (const LoweredExit &exit : lowered.exits)
        ++exit_off_[indexOf(exit.from) + 1];
    for (size_t bi = 0; bi < num_blocks; ++bi)
        exit_off_[bi + 1] += exit_off_[bi];
    exit_list_ = arena.allocArray<uint32_t>(exit_off_[num_blocks]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(num_blocks);
        for (size_t bi = 0; bi < num_blocks; ++bi)
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
    uint8_t *seen = arena_->allocZeroed<uint8_t>(numBlocks());
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
