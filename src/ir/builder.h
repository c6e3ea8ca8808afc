/**
 * @file
 * Convenience builder for constructing IR functions.
 *
 * Used by the workload generators, the examples and the tests. The
 * builder keeps an insert point (a block without a terminator yet),
 * allocates fresh virtual registers for results, and provides
 * composite emitters such as condBr (CMPP + BRCT).
 */

#ifndef TREEGION_IR_BUILDER_H
#define TREEGION_IR_BUILDER_H

#include "ir/function.h"

namespace treegion::ir {

/** Fluent construction helper over a Function. */
class Builder
{
  public:
    /** Build into @p fn. */
    explicit Builder(Function &fn) : fn_(fn) {}

    /** @return the function being built. */
    Function &fn() { return fn_; }

    /** Create a block (does not move the insert point). */
    BlockId newBlock() { return fn_.createBlock(); }

    /** Move the insert point to @p id. */
    void
    setInsertPoint(BlockId id)
    {
        cur_ = id;
    }

    /** @return the current insert block. */
    BlockId insertPoint() const { return cur_; }

    /** Emit dst = imm and @return dst. */
    Reg movi(int64_t imm);

    /** Emit a binary computation and @return its dest. */
    Reg binary(Opcode opcode, Operand a, Operand b);

    /** Emit dst = mem[base + offset] and @return dst. */
    Reg load(Reg base, int64_t offset);

    /** Emit mem[base + offset] = value. */
    void store(Reg base, int64_t offset, Operand value);

    /** Emit p = cmp(a, b) and @return p. */
    Reg cmpp(CmpKind kind, Operand a, Operand b);

    /** Terminate with BRU @p target. */
    void bru(BlockId target);

    /** Terminate with BRCT @p pred_reg, @p taken, @p fall. */
    void brct(Reg pred_reg, BlockId taken, BlockId fall);

    /**
     * Emit CMPP(kind, a, b) then terminate with BRCT to @p taken /
     * @p fall.
     */
    void condBr(CmpKind kind, Operand a, Operand b, BlockId taken,
                BlockId fall);

    /** Terminate with a dense MWBR over @p targets. */
    void mwbr(Reg selector, std::vector<BlockId> targets);

    /** Terminate with RET @p result. */
    void ret(Operand result);

    /** Shorthand register-or-immediate helpers. */
    static Operand R(Reg r) { return Operand::makeReg(r); }
    static Operand I(int64_t v) { return Operand::makeImm(v); }

  private:
    Function &fn_;
    BlockId cur_ = kNoBlock;
};

} // namespace treegion::ir

#endif // TREEGION_IR_BUILDER_H
