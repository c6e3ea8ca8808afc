#include "ir/builder.h"

#include "support/logging.h"

namespace treegion::ir {

Reg
Builder::movi(int64_t imm)
{
    const Reg dst = fn_.freshGpr();
    fn_.appendOp(cur_, makeMovi(dst, imm));
    return dst;
}

Reg
Builder::binary(Opcode opcode, Operand a, Operand b)
{
    const Reg dst = fn_.freshGpr();
    fn_.appendOp(cur_, makeBinary(opcode, dst, a, b));
    return dst;
}

Reg
Builder::load(Reg base, int64_t offset)
{
    const Reg dst = fn_.freshGpr();
    fn_.appendOp(cur_, makeLoad(dst, base, offset));
    return dst;
}

void
Builder::store(Reg base, int64_t offset, Operand value)
{
    fn_.appendOp(cur_, makeStore(base, offset, value));
}

Reg
Builder::cmpp(CmpKind kind, Operand a, Operand b)
{
    const Reg dst = fn_.freshPred();
    fn_.appendOp(cur_, makeCmpp1(kind, dst, a, b));
    return dst;
}

void
Builder::bru(BlockId target)
{
    fn_.appendTerminator(cur_, makeBru(target));
}

void
Builder::brct(Reg pred_reg, BlockId taken, BlockId fall)
{
    fn_.appendTerminator(cur_, makeBrct(pred_reg, taken, fall));
}

void
Builder::condBr(CmpKind kind, Operand a, Operand b, BlockId taken,
                BlockId fall)
{
    const Reg p = cmpp(kind, a, b);
    brct(p, taken, fall);
}

void
Builder::mwbr(Reg selector, std::vector<BlockId> targets)
{
    fn_.appendTerminator(cur_, makeMwbr(selector, targets));
}

void
Builder::ret(Operand result)
{
    fn_.appendTerminator(cur_, makeRet(result));
}

} // namespace treegion::ir
