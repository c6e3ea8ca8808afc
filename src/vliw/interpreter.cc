#include "vliw/interpreter.h"

#include <algorithm>

#include "support/logging.h"
#include "vliw/machine_state.h"

namespace treegion::vliw {

using ir::BlockId;
using ir::Op;
using ir::Opcode;

namespace {

/** Register-file slots before the GPRs: constants 0 and 1 (BTR reads
 * and "unguarded"), and a sink for writes nothing reads (BTRs, a
 * one-destination CMPP's false side). */
constexpr uint32_t kZero = 0;
constexpr uint32_t kOne = 1;
constexpr uint32_t kSink = 2;
constexpr uint32_t kFirstReg = 3;

/** A computation whose opcode is known where it is inlined, so
 * evalAlu's switch folds away. */
template <Opcode kOpcode, typename Insn>
inline void
alu(int64_t *regs, const Insn &insn)
{
    if (regs[insn.guard] != 0)
        regs[insn.dst] = ir::evalAlu(kOpcode, regs[insn.a], regs[insn.b]);
}

} // namespace

ExecutionCounts::ExecutionCounts(const ir::Function &fn)
    : block(fn.numBlockIds(), 0), edge_base(fn.numBlockIds(), 0)
{
    uint32_t slots = 0;
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        edge_base[b.id()] = slots;
        if (b.hasTerminator())
            slots += static_cast<uint32_t>(b.terminator().targets.size());
    });
    edge.assign(slots, 0);
}

SequentialProgram::SequentialProgram(const ir::Function &fn)
    : fn_(fn), blocks_(fn.numBlockIds()), num_gprs_(fn.numGprs()),
      num_preds_(fn.numPreds())
{
    // Sized for every op id: an op adds at most two constants. (Ops
    // made by hand past the counter only cost a reallocation.)
    insns_.reserve(fn.numOpIds());
    const size_t regs = kFirstReg + size_t{num_gprs_} + num_preds_;
    regs_.reserve(regs + 2 * size_t{fn.numOpIds()});
    regs_.assign(regs, 0);
    regs_[kOne] = 1;
}

void
SequentialProgram::decodeBlock(BlockId id)
{
    Block &blk = blocks_[id];
    blk.term = Opcode::MOVI;  // until it proves to have a terminator
    if (!fn_.hasBlock(id) || !fn_.block(id).hasTerminator())
        return;
    const auto reg = [&](ir::Reg r) -> uint32_t {
        switch (r.cls) {
          case ir::RegClass::Gpr:
            TG_ASSERT(r.idx < num_gprs_);
            return kFirstReg + r.idx;
          case ir::RegClass::Pred:
            TG_ASSERT(r.idx < num_preds_);
            return kFirstReg + num_gprs_ + r.idx;
          default:
            return kZero;  // BTRs read as 0; they carry no semantics
        }
    };
    const auto dst = [&](const Op &op, size_t i) {
        if (i >= op.dsts.size() || op.dsts[i].cls == ir::RegClass::Btr)
            return kSink;
        return reg(op.dsts[i]);
    };
    const auto src = [&](const Op &op, size_t i) {
        if (i >= op.srcs.size())
            return kZero;
        if (op.srcs[i].isReg())
            return reg(op.srcs[i].reg);
        regs_.push_back(op.srcs[i].imm);
        return static_cast<uint32_t>(regs_.size() - 1);
    };

    const std::vector<Op> &ops = fn_.block(id).ops();
    blk.first = static_cast<uint32_t>(insns_.size());
    blk.body = static_cast<uint32_t>(ops.size() - 1);
    // Shapes are the Structural verifier's: loads and computations
    // write GPRs (a predicate slot only ever holds 0 or 1), a memory
    // offset is an immediate.
    for (size_t i = 0; i + 1 < ops.size(); ++i) {
        const Op &op = ops[i];
        TG_ASSERT(!op.isBranch());
        insns_.push_back({op.opcode, op.cmp, dst(op, 0), dst(op, 1),
                          src(op, 0), src(op, 1), src(op, 2),
                          op.guard ? reg(*op.guard) : kOne});
    }

    const Op &term = ops.back();
    blk.op = &term;
    blk.guard = term.guard ? reg(*term.guard) : kOne;
    TG_ASSERT(term.opcode == Opcode::BRU || !term.srcs.empty());
    // A BRCT/BRCF condition is read as a register whatever its kind.
    if (term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF)
        blk.src = reg(term.srcs[0].reg);
    else if (term.opcode == Opcode::MWBR || term.opcode == Opcode::RET)
        blk.src = src(term, 0);
    blk.term = term.opcode;
}

ExecResult
SequentialProgram::run(std::vector<int64_t> &memory,
                       const InterpOptions &options,
                       ExecutionCounts *counts)
{
    TG_ASSERT(!memory.empty());
    TG_ASSERT(!counts || counts->block.size() == blocks_.size());
    const BlockId entry = fn_.entry();
    TG_ASSERT(entry < blocks_.size());
    std::fill(regs_.begin() + kFirstReg,
              regs_.begin() + kFirstReg + num_gprs_ + num_preds_, 0);
    int64_t *regs = regs_.data();
    int64_t *const mem = memory.data();
    const size_t words = memory.size();
    const uint64_t max_ops = options.max_ops;
    ExecResult result;
    uint64_t executed = 0;
    uint64_t wrapped_stores = 0;

    BlockId cur = entry;
    for (;;) {
        if (blocks_[cur].term == kUndecoded) {
            decodeBlock(cur);
            regs = regs_.data();  // constants may have moved the file
        }
        const Block &b = blocks_[cur];
        if (counts)
            ++counts->block[cur];
        else
            result.trace.push_back(cur);

        // The limit is checked once per block. A body op that takes
        // the count past max_ops is not executed (it is counted); a
        // terminator is never checked, so a block with no body runs
        // past the limit, until control reaches a block with one.
        uint64_t run_ops = b.body;
        bool at_limit = false;
        if (executed + run_ops > max_ops) {
            if (run_ops != 0) {
                run_ops = executed < max_ops ? max_ops - executed : 0;
                at_limit = true;
            } else if (executed > max_ops + blocks_.size()) {
                // Only bodiless blocks since the limit: registers and
                // memory are frozen, and a block repeats, so this
                // cycle never ends.
                result.ops_executed = executed;
                return result;  // completed stays false
            }
        }
        executed += run_ops;
        const Insn *insn = insns_.data() + b.first;
        for (const Insn *end = insn + run_ops; insn != end; ++insn) {
            switch (insn->opcode) {
              case Opcode::MOVI: alu<Opcode::MOVI>(regs, *insn); break;
              case Opcode::MOV: alu<Opcode::MOV>(regs, *insn); break;
              case Opcode::COPY: alu<Opcode::COPY>(regs, *insn); break;
              case Opcode::ADD: alu<Opcode::ADD>(regs, *insn); break;
              case Opcode::SUB: alu<Opcode::SUB>(regs, *insn); break;
              case Opcode::MUL: alu<Opcode::MUL>(regs, *insn); break;
              case Opcode::AND: alu<Opcode::AND>(regs, *insn); break;
              case Opcode::OR: alu<Opcode::OR>(regs, *insn); break;
              case Opcode::XOR: alu<Opcode::XOR>(regs, *insn); break;
              case Opcode::SHL: alu<Opcode::SHL>(regs, *insn); break;
              case Opcode::SHR: alu<Opcode::SHR>(regs, *insn); break;
              case Opcode::REM: alu<Opcode::REM>(regs, *insn); break;
              case Opcode::FADD: alu<Opcode::FADD>(regs, *insn); break;
              case Opcode::FMUL: alu<Opcode::FMUL>(regs, *insn); break;
              case Opcode::FDIV: alu<Opcode::FDIV>(regs, *insn); break;
              case Opcode::LD:
                // Dismissible: the guard is ignored, the address wraps.
                regs[insn->dst] =
                    mem[wrapAddress(regs[insn->a] + regs[insn->b], words)];
                break;
              case Opcode::ST:
                if (regs[insn->guard] != 0) {
                    const int64_t addr = regs[insn->a] + regs[insn->b];
                    wrapped_stores += static_cast<uint64_t>(addr) >= words;
                    mem[wrapAddress(addr, words)] = regs[insn->c];
                }
                break;
              case Opcode::CMPP: {
                const bool guard = regs[insn->guard] != 0;
                const bool cmp = ir::evalCmp(insn->cmp, regs[insn->a],
                                             regs[insn->b]);
                regs[insn->dst] = guard && cmp;
                regs[insn->dst2] = guard && !cmp;
                break;
              }
              case Opcode::PSET: regs[insn->dst] = 1; break;
              case Opcode::PCLR: regs[insn->dst] = 0; break;
              case Opcode::CMPPA:
                // Wired-AND: clears on a false compare only.
                if (!ir::evalCmp(insn->cmp, regs[insn->a], regs[insn->b]))
                    regs[insn->dst] = 0;
                break;
              case Opcode::CMPPO:
                // Wired-OR: sets on a true compare only.
                if (ir::evalCmp(insn->cmp, regs[insn->a], regs[insn->b]))
                    regs[insn->dst] = 1;
                break;
              default:
                break;  // PBR: no simulated semantics
            }
        }
        if (at_limit) {
            // The op that passed the limit was counted, not executed.
            result.ops_executed = executed + 1;
            return result;  // completed stays false
        }

        // Terminator. A branch that does not fire (an untaken BRCT or
        // BRCF, or an MWBR or RET whose guard is false) takes slot 1.
        ++executed;
        size_t slot = 1;
        switch (b.term) {
          case Opcode::BRU:
            slot = 0;
            break;
          case Opcode::BRCT:
            slot = regs[b.src] != 0 ? 0 : 1;
            break;
          case Opcode::BRCF:
            slot = regs[b.src] != 0 ? 1 : 0;
            break;
          case Opcode::MWBR: {
            if (regs[b.guard] == 0)
                break;
            const std::vector<int64_t> &cases = b.op->caseValues;
            const auto hit =
                std::find(cases.begin(), cases.end(), regs[b.src]);
            if (hit == cases.end()) {
                // A selector outside the case table means the program
                // is dynamically malformed; the generator always
                // narrows selectors into range, but fuzz reduction can
                // delete or shrink part of the narrowing chain. Halt
                // without completing so callers reject the execution
                // instead of the process aborting.
                result.halt = Halt::NoMwbrCase;
                result.ops_executed = executed;
                return result;  // completed stays false
            }
            slot = static_cast<size_t>(hit - cases.begin());
            break;
          }
          case Opcode::RET:
            if (regs[b.guard] == 0)
                break;
            result.completed = true;
            result.halt = Halt::Returned;
            result.ret_value = regs[b.src];
            result.ops_executed = executed;
            result.wrapped_stores = wrapped_stores;
            return result;
          default:
            TG_PANIC("bad terminator in bb%u", cur);
        }
        const Op::Targets &targets = b.op->targets;
        TG_ASSERT(slot < targets.size());
        if (counts)
            ++counts->edge[counts->edge_base[cur] + slot];
        cur = targets[slot];
        TG_ASSERT(cur < blocks_.size());
    }
}

ExecResult
runSequential(const ir::Function &fn, std::vector<int64_t> memory,
              const InterpOptions &options, ExecutionCounts *counts)
{
    SequentialProgram program(fn);
    ExecResult result = program.run(memory, options, counts);
    result.memory = std::move(memory);
    return result;
}

} // namespace treegion::vliw
