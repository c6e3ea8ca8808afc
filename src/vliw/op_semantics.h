/**
 * @file
 * Operation semantics shared by the schedule engines.
 *
 * The in-order VLIW simulator and the out-of-order backend execute
 * the same Play-Doh repertoire; this header holds the single
 * definition of what each op *does* so the engines can only differ in
 * *when* effects become visible. (The sequential interpreter runs a
 * decoded form of the function, vliw/interpreter.h, computing with
 * the same ir::evalAlu and ir::evalCmp; the equivalence oracle checks
 * every schedule engine against it.)
 *
 *  - execDataOp() evaluates a non-branch op against caller-supplied
 *    register reads, performs memory effects immediately, and emits
 *    register writes through a callback carrying the visibility delay
 *    (the MultiOp latency). The VLIW simulator defers them onto its
 *    pending list; the OoO backend writes renamed physical registers.
 *  - evalBranch() decides whether a branch fires, which target slot
 *    it selects, and the RET value, without touching any schedule
 *    structures (the schedule engines share the exit lookup,
 *    ScheduleTable::resolveExit in vliw_sim.h).
 *  - applyExitCopies() implements the parallel read-then-write
 *    reconciliation-copy semantics of a region exit.
 *
 * Guard handling is uniform: a guarded op only takes effect when its
 * predicate reads true, except CMPP, which writes guard AND cmp /
 * guard AND NOT cmp unconditionally (the HPL-PD unconditional-type
 * compare), and CMPPA/CMPPO, whose partial wired-AND/OR updates are
 * keyed on the comparison alone.
 */

#ifndef TREEGION_VLIW_OP_SEMANTICS_H
#define TREEGION_VLIW_OP_SEMANTICS_H

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/op.h"

namespace treegion::vliw {

/**
 * Run limits shared by the in-order VLIW simulator and the
 * out-of-order backend. Either engine halts with completed = false
 * (never aborts) when the budget is exhausted, so differential fuzz
 * campaigns cannot hang or crash on a pathological schedule.
 */
struct SimLimits
{
    uint64_t max_cycles = 20'000'000;
};

namespace sem {

/** Evaluate a source operand against a register-read functor. */
template <typename ReadReg>
inline int64_t
operandValue(ReadReg &&read, const ir::Operand &operand)
{
    return operand.isImm() ? operand.imm : read(operand.reg);
}

/** True when the op is unguarded or its guard predicate reads true. */
template <typename ReadReg>
inline bool
guardTrue(ReadReg &&read, const ir::Op &op)
{
    return !op.guard || read(*op.guard) != 0;
}

/**
 * Execute one non-branch op.
 *
 * @param op the op (any opcode except BRU/BRCT/BRCF/MWBR/RET)
 * @param read register-read functor: int64_t(ir::Reg)
 * @param mem memory interface with readMem(addr) / writeMem(addr, v)
 *        (dismissible wrap semantics live there)
 * @param write register-write sink: void(ir::Reg dst, int64_t value,
 *        int delay) where @p delay is the number of cycles after
 *        issue at which the write becomes architecturally visible.
 *        Predicate-file writers use delay 1; LD and ALU ops use the
 *        opcode latency. Conditional writers (guarded ops, CMPPA,
 *        CMPPO) simply do not call the sink when the write is
 *        suppressed.
 */
template <typename ReadReg, typename MemIf, typename WriteFn>
inline void
execDataOp(const ir::Op &op, ReadReg &&read, MemIf &mem, WriteFn &&write)
{
    auto val = [&](const ir::Operand &operand) {
        return operandValue(read, operand);
    };
    switch (op.opcode) {
      case ir::Opcode::LD:
        write(op.dsts[0],
              mem.readMem(val(op.srcs[0]) + op.srcs[1].imm),
              op.latency());
        break;
      case ir::Opcode::ST:
        if (guardTrue(read, op)) {
            mem.writeMem(val(op.srcs[0]) + op.srcs[1].imm,
                         val(op.srcs[2]));
        }
        break;
      case ir::Opcode::CMPP: {
        const bool guard = guardTrue(read, op);
        const bool cmp =
            ir::evalCmp(op.cmp, val(op.srcs[0]), val(op.srcs[1]));
        write(op.dsts[0], guard && cmp, 1);
        if (op.dsts.size() > 1)
            write(op.dsts[1], guard && !cmp, 1);
        break;
      }
      case ir::Opcode::PSET:
        write(op.dsts[0], 1, 1);
        break;
      case ir::Opcode::PCLR:
        write(op.dsts[0], 0, 1);
        break;
      case ir::Opcode::CMPPA:
        // And-type compare: clears the predicate when the condition
        // fails, leaves it untouched otherwise, so several CMPPAs may
        // share a cycle (wired-AND).
        if (!ir::evalCmp(op.cmp, val(op.srcs[0]), val(op.srcs[1])))
            write(op.dsts[0], 0, 1);
        break;
      case ir::Opcode::CMPPO:
        // Or-type compare: the dual of CMPPA (wired-OR).
        if (ir::evalCmp(op.cmp, val(op.srcs[0]), val(op.srcs[1])))
            write(op.dsts[0], 1, 1);
        break;
      case ir::Opcode::PBR:
        break;  // no simulated semantics
      default: {
        // Plain computation. Usually unguarded (speculative);
        // hyperblock merge copies are guarded MOVs whose write is
        // conditional.
        if (!guardTrue(read, op))
            break;
        const int64_t a = val(op.srcs[0]);
        const int64_t b = op.srcs.size() > 1 ? val(op.srcs[1]) : 0;
        write(op.dsts[0], ir::evalAlu(op.opcode, a, b), op.latency());
        break;
      }
    }
}

/** What a branch op decided. */
struct BranchOutcome
{
    enum class Kind : uint8_t {
        kNone,           ///< branch did not take (no control transfer)
        kFire,           ///< branch takes target slot @ref slot
        kMalformedMwbr,  ///< MWBR selector matched no case value
    };

    Kind kind = Kind::kNone;
    size_t slot = 0;       ///< index into op.targets when kFire
    bool is_ret = false;   ///< kFire from a RET
    int64_t ret_value = 0; ///< RET result when is_ret
};

/**
 * Decide a branch op (BRU/BRCT/BRCF/MWBR/RET).
 *
 * BRU always fires slot 0. BRCT/BRCF read their predicate source and
 * fire slot 0 when taken; not-taken is kNone ("no exit" to the
 * schedule simulators; the sequential interpreter takes the
 * fall-through slot). MWBR and RET honour their guard; an MWBR
 * whose selector matches no case reports kMalformedMwbr so each
 * engine can choose between halting (sequential fuzz reductions) and
 * panicking (verified schedules).
 */
template <typename ReadReg>
inline BranchOutcome
evalBranch(const ir::Op &op, ReadReg &&read)
{
    BranchOutcome out;
    auto val = [&](const ir::Operand &operand) {
        return operandValue(read, operand);
    };
    switch (op.opcode) {
      case ir::Opcode::BRU:
        out.kind = BranchOutcome::Kind::kFire;
        break;
      case ir::Opcode::BRCT:
      case ir::Opcode::BRCF: {
        const bool p = read(op.srcs[0].reg) != 0;
        const bool taken = op.opcode == ir::Opcode::BRCT ? p : !p;
        if (taken)
            out.kind = BranchOutcome::Kind::kFire;
        break;
      }
      case ir::Opcode::MWBR: {
        if (!guardTrue(read, op))
            break;
        const int64_t sel = val(op.srcs[0]);
        out.kind = BranchOutcome::Kind::kMalformedMwbr;
        for (size_t i = 0; i < op.caseValues.size(); ++i) {
            if (op.caseValues[i] == sel) {
                out.kind = BranchOutcome::Kind::kFire;
                out.slot = i;
                break;
            }
        }
        break;
      }
      case ir::Opcode::RET:
        if (guardTrue(read, op)) {
            out.kind = BranchOutcome::Kind::kFire;
            out.is_ret = true;
            out.ret_value = val(op.srcs[0]);
        }
        break;
      default:
        break;  // not a branch; callers guard on op.isBranch()
    }
    return out;
}

/** Scratch space for applyExitCopies, owned and reused by the caller. */
using CopyScratch = std::vector<std::pair<ir::Reg, int64_t>>;

/**
 * Apply an exit's reconciliation copies: all sources are read first,
 * then all destinations written, so copies behave as one parallel
 * MultiOp regardless of dst/src overlap.
 *
 * @param copies the exit's ExitCopy-like list (members dst, src)
 * @param read register-read functor
 * @param write register-write functor: void(ir::Reg, int64_t)
 * @param writes holds the values read between the two phases
 * @return the number of copies applied
 */
template <typename Copies, typename ReadReg, typename WriteReg>
inline size_t
applyExitCopies(const Copies &copies, ReadReg &&read, WriteReg &&write,
                CopyScratch &writes)
{
    writes.clear();
    for (const auto &copy : copies)
        writes.emplace_back(copy.dst, read(copy.src));
    for (const auto &[dst, value] : writes)
        write(dst, value);
    return writes.size();
}

} // namespace sem
} // namespace treegion::vliw

#endif // TREEGION_VLIW_OP_SEMANTICS_H
