#include "ir/basic_block.h"

#include "support/logging.h"

namespace treegion::ir {

bool
BasicBlock::hasTerminator() const
{
    return !ops_.empty() && ops_.back().isBranch();
}

const Op &
BasicBlock::terminator() const
{
    TG_ASSERT(hasTerminator());
    return ops_.back();
}

Op &
BasicBlock::terminator()
{
    TG_ASSERT(hasTerminator());
    return ops_.back();
}

const std::vector<BlockId> &
BasicBlock::successors() const
{
    static const std::vector<BlockId> kNone;
    return hasTerminator() ? terminator().targets : kNone;
}

size_t
BasicBlock::bodySize() const
{
    return ops_.size() - (hasTerminator() ? 1 : 0);
}

} // namespace treegion::ir
