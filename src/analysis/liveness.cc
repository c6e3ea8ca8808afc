#include "analysis/liveness.h"

#include "support/logging.h"

namespace treegion::analysis {

using ir::BlockId;

namespace {

/** The blocks reachable from the entry of @p fn, in DFS postorder. */
std::vector<BlockId>
postorder(const ir::Function &fn)
{
    std::vector<BlockId> order;
    std::vector<uint8_t> seen(fn.numBlockIds(), 0);  // marked when pushed
    // Iterative DFS with an explicit stack of (block, next-succ-index).
    std::vector<std::pair<BlockId, size_t>> stack{{fn.entry(), 0}};
    seen[fn.entry()] = 1;
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        const auto &succs = fn.block(id).successors();
        if (next == succs.size()) {
            order.push_back(id);
            stack.pop_back();
            continue;
        }
        const BlockId succ = succs[next++];
        if (succ != ir::kNoBlock && !seen[succ]) {
            seen[succ] = 1;
            stack.emplace_back(succ, 0);
        }
    }
    return order;
}

} // namespace

Liveness::Liveness(ir::Function &fn)
    : num_gprs_(fn.numGprs()),
      num_preds_(fn.numPreds()),
      num_regs_(static_cast<size_t>(num_gprs_) + num_preds_),
      words_((num_regs_ + 63) / 64),
      num_blocks_(fn.numBlockIds()),
      live_in_(num_blocks_ * words_),
      live_out_(num_blocks_ * words_)
{
    // use[b]: read before any write in b; def[b]: written in b.
    std::vector<uint64_t> use(num_blocks_ * words_);
    std::vector<uint64_t> def(num_blocks_ * words_);
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        uint64_t *u = &use[b.id() * words_];
        uint64_t *d = &def[b.id() * words_];
        for (const ir::Op &op : b.ops()) {
            op.forEachUsedReg([&](const ir::Reg &r) {
                if (r.cls == ir::RegClass::Btr)
                    return;
                const size_t idx = regIndex(r);
                if (!(d[idx >> 6] >> (idx & 63) & 1))
                    u[idx >> 6] |= 1ull << (idx & 63);
            });
            for (const ir::Reg &r : op.dsts) {
                if (r.cls == ir::RegClass::Btr)
                    continue;
                const size_t idx = regIndex(r);
                d[idx >> 6] |= 1ull << (idx & 63);
            }
        }
    });

    // Visit order: postorder from the entry, then the blocks the entry
    // cannot reach, in id order.
    std::vector<BlockId> order = postorder(fn);
    std::vector<uint8_t> reached(num_blocks_, 0);
    for (const BlockId id : order)
        reached[id] = 1;
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        if (!reached[b.id()])
            order.push_back(b.id());
    });

    bool changed = true;
    while (changed) {
        changed = false;
        for (const BlockId id : order) {
            uint64_t *out = &live_out_[id * words_];
            for (const BlockId succ : fn.block(id).successors()) {
                if (!fn.hasBlock(succ))
                    continue;
                const uint64_t *succ_in = &live_in_[succ * words_];
                for (size_t w = 0; w < words_; ++w)
                    out[w] |= succ_in[w];
            }
            uint64_t *in = &live_in_[id * words_];
            const uint64_t *u = &use[id * words_];
            const uint64_t *d = &def[id * words_];
            for (size_t w = 0; w < words_; ++w) {
                const uint64_t next = u[w] | (out[w] & ~d[w]);
                if (next != in[w]) {
                    in[w] = next;
                    changed = true;
                }
            }
        }
    }
}

size_t
Liveness::regIndex(ir::Reg r) const
{
    switch (r.cls) {
      case ir::RegClass::Gpr:
        TG_ASSERT(r.idx < num_gprs_);
        return r.idx;
      case ir::RegClass::Pred:
        TG_ASSERT(r.idx < num_preds_);
        return num_gprs_ + r.idx;
      default:
        TG_PANIC("BTRs are not tracked by liveness");
    }
}

bool
Liveness::test(const std::vector<uint64_t> &sets, BlockId id,
               ir::Reg r) const
{
    TG_ASSERT(id < num_blocks_);
    const size_t idx = regIndex(r);
    return sets[id * words_ + (idx >> 6)] >> (idx & 63) & 1;
}

bool
Liveness::liveIn(BlockId id, ir::Reg r) const
{
    return test(live_in_, id, r);
}

bool
Liveness::liveOut(BlockId id, ir::Reg r) const
{
    return test(live_out_, id, r);
}

} // namespace treegion::analysis
