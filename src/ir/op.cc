#include "ir/op.h"

#include "support/logging.h"
#include "support/string_utils.h"

namespace treegion::ir {

std::string
Reg::str() const
{
    const char *prefix = "r";
    if (cls == RegClass::Pred)
        prefix = "p";
    else if (cls == RegClass::Btr)
        prefix = "b";
    return support::strprintf("%s%u", prefix, idx);
}

std::string
Operand::str() const
{
    if (isReg())
        return reg.str();
    return support::strprintf("%lld", static_cast<long long>(imm));
}

void
Op::renameUses(Reg from, Reg to)
{
    for (Operand &src : srcs) {
        if (src.isReg() && src.reg == from)
            src.reg = to;
    }
    if (guard && *guard == from)
        guard = to;
}

std::string
Op::str() const
{
    std::string out;
    // Destinations.
    for (size_t i = 0; i < dsts.size(); ++i) {
        if (i)
            out += ",";
        out += dsts[i].str();
    }
    if (!dsts.empty())
        out += " = ";

    // Mnemonic.
    out += std::string(opcodeName(opcode));
    if (opcode == Opcode::CMPP || opcode == Opcode::CMPPA ||
        opcode == Opcode::CMPPO) {
        out += ".";
        out += std::string(cmpKindName(cmp));
    }

    // Operands, opcode-specific forms first.
    if (opcode == Opcode::LD) {
        out += support::strprintf(" [%s + %lld]", srcs[0].str().c_str(),
                                  static_cast<long long>(srcs[1].imm));
    } else if (opcode == Opcode::ST) {
        out += support::strprintf(" [%s + %lld], %s", srcs[0].str().c_str(),
                                  static_cast<long long>(srcs[1].imm),
                                  srcs[2].str().c_str());
    } else {
        for (size_t i = 0; i < srcs.size(); ++i) {
            out += (i ? ", " : " ");
            out += srcs[i].str();
        }
    }

    // Branch / PBR targets.
    if (opcode == Opcode::MWBR) {
        out += " [";
        for (size_t i = 0; i < targets.size(); ++i) {
            if (i)
                out += ", ";
            out += support::strprintf(
                "%lld:", static_cast<long long>(caseValues[i]));
            out += targets[i] == kNoBlock
                       ? "fallthru"
                       : support::strprintf("bb%u", targets[i]);
        }
        out += "]";
    } else {
        for (size_t i = 0; i < targets.size(); ++i) {
            out += (srcs.empty() && i == 0) ? " " : ", ";
            out += targets[i] == kNoBlock
                       ? "fallthru"
                       : support::strprintf("bb%u", targets[i]);
        }
    }

    if (guard)
        out += " ? " + guard->str();
    return out;
}

Op
makeMovi(Reg dst, int64_t imm)
{
    Op op;
    op.opcode = Opcode::MOVI;
    op.dsts = {dst};
    op.srcs = {Operand::makeImm(imm)};
    return op;
}

Op
makeBinary(Opcode opcode, Reg dst, Operand a, Operand b)
{
    TG_ASSERT(opcodeInfo(opcode).numSrcs == 2 &&
              !opcodeInfo(opcode).isBranch && opcode != Opcode::CMPP &&
              !opcodeInfo(opcode).isLoad);
    Op op;
    op.opcode = opcode;
    op.dsts = {dst};
    op.srcs = {a, b};
    return op;
}

Op
makeMov(Reg dst, Reg src)
{
    Op op;
    op.opcode = Opcode::MOV;
    op.dsts = {dst};
    op.srcs = {Operand::makeReg(src)};
    return op;
}

Op
makeLoad(Reg dst, Reg base, int64_t offset)
{
    Op op;
    op.opcode = Opcode::LD;
    op.dsts = {dst};
    op.srcs = {Operand::makeReg(base), Operand::makeImm(offset)};
    return op;
}

Op
makeStore(Reg base, int64_t offset, Operand value)
{
    Op op;
    op.opcode = Opcode::ST;
    op.srcs = {Operand::makeReg(base), Operand::makeImm(offset), value};
    return op;
}

Op
makeCmpp(CmpKind kind, Reg pt, Reg pf, Operand a, Operand b)
{
    TG_ASSERT(pt.cls == RegClass::Pred && pf.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::CMPP;
    op.cmp = kind;
    op.dsts = {pt, pf};
    op.srcs = {a, b};
    return op;
}

Op
makeCmpp1(CmpKind kind, Reg pt, Operand a, Operand b)
{
    TG_ASSERT(pt.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::CMPP;
    op.cmp = kind;
    op.dsts = {pt};
    op.srcs = {a, b};
    return op;
}

Op
makeBru(BlockId target)
{
    Op op;
    op.opcode = Opcode::BRU;
    op.targets = {target};
    return op;
}

Op
makeBrct(Reg pred_reg, BlockId taken, BlockId fall)
{
    TG_ASSERT(pred_reg.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::BRCT;
    op.srcs = {Operand::makeReg(pred_reg)};
    op.targets = {taken, fall};
    return op;
}

Op
makeMwbr(Reg selector, const std::vector<BlockId> &targets)
{
    TG_ASSERT(!targets.empty());
    Op op;
    op.opcode = Opcode::MWBR;
    op.srcs = {Operand::makeReg(selector)};
    for (size_t i = 0; i < targets.size(); ++i) {
        op.targets.push_back(targets[i]);
        op.caseValues.push_back(static_cast<int64_t>(i));
    }
    return op;
}

Op
makeRet(Operand result)
{
    Op op;
    op.opcode = Opcode::RET;
    op.srcs = {result};
    return op;
}

Op
makePbr(Reg btr_reg, BlockId target)
{
    TG_ASSERT(btr_reg.cls == RegClass::Btr);
    Op op;
    op.opcode = Opcode::PBR;
    op.dsts = {btr_reg};
    op.targets = {target};
    return op;
}

} // namespace treegion::ir
