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

const Op::Targets &
BasicBlock::successors() const
{
    static const Op::Targets kNone{};
    return hasTerminator() ? terminator().targets : kNone;
}

} // namespace treegion::ir
