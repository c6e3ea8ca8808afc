/**
 * @file
 * A single IR operation (an "Op" in the paper's Op/MultiOp terminology).
 */

#ifndef TREEGION_IR_OP_H
#define TREEGION_IR_OP_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "ir/opcode.h"
#include "ir/operand.h"
#include "support/inline_vector.h"

namespace treegion::ir {

/** Identifier of a basic block within its function. */
using BlockId = uint32_t;

/** Sentinel for "no block". */
constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();

/** Identifier of an op within its function (stable, never reused). */
using OpId = uint32_t;

/**
 * One IR operation.
 *
 * Operand layout conventions by opcode:
 *  - MOVI: dsts=[r], srcs=[imm]
 *  - MOV/COPY: dsts=[r], srcs=[reg]
 *  - binary ALU/FP: dsts=[r], srcs=[a, b]
 *  - LD: dsts=[r], srcs=[base reg, offset imm]
 *  - ST: dsts=[], srcs=[base reg, offset imm, value]
 *  - CMPP: dsts=[p_true] or [p_true, p_false], srcs=[a, b], cmp kind set
 *  - PBR: dsts=[b], targets=[block]
 *  - BRU: targets=[taken]
 *  - BRCT/BRCF: srcs=[pred reg]; targets=[taken] or [taken, fall]
 *  - MWBR: srcs=[selector reg]; caseValues[i] selects targets[i];
 *          an entry with target == kNoBlock means "fall through"
 *          (used in scheduled regions for internal case edges)
 *  - RET: srcs=[result value]
 *
 * The optional @ref guard predicate implements Play-Doh predicated
 * execution: a guarded op only takes effect when the predicate is
 * true. CMPP is special: it writes its destinations unconditionally
 * as (guard AND cmp) / (guard AND NOT cmp), the HPL-PD
 * unconditional-type compare, which is what makes single-register
 * path predicates composable.
 *
 * An Op is self-contained and fixed-size apart from an MWBR's case
 * lists: destinations and sources live in place, sized by the opcode
 * table, and copying a non-MWBR op never allocates (DESIGN.md §11).
 */
struct Op
{
    /** Destinations, at most kMaxDsts (the parser rejects more). */
    using Dsts = support::InlineVector<Reg, kMaxDsts>;
    /** Sources, at most kMaxSrcs (the parser rejects more). */
    using Srcs = support::InlineVector<Operand, kMaxSrcs>;
    /** Branch targets: two in place, an MWBR's further cases spill. */
    using Targets = support::SmallVector<BlockId, 2>;

    OpId id = 0;
    Opcode opcode = Opcode::MOVI;
    CmpKind cmp = CmpKind::EQ;         ///< only meaningful for CMPP
    Dsts dsts;
    std::optional<Reg> guard;          ///< predicate guard, if any
    Srcs srcs;
    Targets targets;                   ///< branch/PBR targets
    std::vector<int64_t> caseValues;   ///< MWBR selector values

    /**
     * Home basic block. In sequential IR this is the containing block;
     * in a region schedule it is the original block the op came from
     * (which determines its path predicate, exit set and profile
     * weight).
     */
    BlockId home = kNoBlock;

    /**
     * Tail-duplication group. Ops cloned from the same original op
     * share a nonzero group id; the scheduler uses this to detect
     * dominator parallelism. Zero means "never duplicated".
     */
    uint32_t dupGroup = 0;

    /** True for BRU/BRCT/BRCF/MWBR/RET. */
    bool isBranch() const { return opcodeInfo(opcode).isBranch; }

    /** True for LD. */
    bool isLoad() const { return opcodeInfo(opcode).isLoad; }

    /** True for ST. */
    bool isStore() const { return opcodeInfo(opcode).isStore; }

    /** True for LD or ST. */
    bool isMemory() const { return isLoad() || isStore(); }

    /** Result latency in cycles. */
    int latency() const { return opcodeInfo(opcode).latency; }

    /** Visit every register this op reads: sources, then guard. */
    template <typename F>
    void
    forEachUsedReg(F &&f) const
    {
        for (const Operand &src : srcs) {
            if (src.isReg())
                f(src.reg);
        }
        if (guard)
            f(*guard);
    }

    /** Replace every read of @p from (including guard) with @p to. */
    void renameUses(Reg from, Reg to);

    /** Render in the textual IR syntax (no trailing newline). */
    std::string str() const;
};

/** Build a MOVI op (id/home left for the caller to fill). */
Op makeMovi(Reg dst, int64_t imm);

/** Build a binary computation op. */
Op makeBinary(Opcode opcode, Reg dst, Operand a, Operand b);

/** Build a MOV op. */
Op makeMov(Reg dst, Reg src);

/** Build an LD op: dst = mem[base + offset]. */
Op makeLoad(Reg dst, Reg base, int64_t offset);

/** Build an ST op: mem[base + offset] = value. */
Op makeStore(Reg base, int64_t offset, Operand value);

/** Build a two-target CMPP: (pt, pf) = cmp(a, b). */
Op makeCmpp(CmpKind kind, Reg pt, Reg pf, Operand a, Operand b);

/** Build a single-target CMPP: pt = cmp(a, b). */
Op makeCmpp1(CmpKind kind, Reg pt, Operand a, Operand b);

/** Build a BRU to @p target. */
Op makeBru(BlockId target);

/** Build a BRCT: if @p pred then @p taken else @p fall. */
Op makeBrct(Reg pred_reg, BlockId taken, BlockId fall);

/** Build an MWBR over dense selector values 0..n-1. */
Op makeMwbr(Reg selector, const std::vector<BlockId> &targets);

/** Build a RET yielding @p result. */
Op makeRet(Operand result);

/** Build a PBR: btr = address of @p target. */
Op makePbr(Reg btr_reg, BlockId target);

} // namespace treegion::ir

#endif // TREEGION_IR_OP_H
