#include "vliw/interpreter.h"

#include "support/logging.h"
#include "vliw/op_semantics.h"

namespace treegion::vliw {

using ir::BlockId;
using ir::Op;
using ir::Opcode;

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

ExecResult
runSequential(ir::Function &fn, std::vector<int64_t> memory,
              const InterpOptions &options, ExecutionCounts *counts)
{
    TG_ASSERT(!counts || counts->block.size() == fn.numBlockIds());
    MachineState state(fn.numGprs(), fn.numPreds(), std::move(memory));
    ExecResult result;

    auto readReg = [&](ir::Reg r) { return state.readReg(r); };
    // Sequential execution applies writes immediately; the MultiOp
    // visibility delay only matters to the schedule simulators.
    auto writeNow = [&](ir::Reg dst, int64_t value, int) {
        state.writeReg(dst, value);
    };

    BlockId cur = fn.entry();
    for (;;) {
        if (counts)
            ++counts->block[cur];
        else
            result.trace.push_back(cur);
        const ir::BasicBlock &b = fn.block(cur);

        // Body ops.
        const std::vector<Op> &ops = b.ops();
        for (size_t i = 0; i + 1 < ops.size(); ++i) {
            ++result.ops_executed;
            if (result.ops_executed > options.max_ops) {
                result.memory = state.takeMemory();
                return result;  // completed stays false
            }
            sem::execDataOp(ops[i], readReg, state, writeNow);
        }

        // Terminator.
        const Op &term = b.terminator();
        ++result.ops_executed;
        if (!term.isBranch())
            TG_PANIC("bad terminator in bb%u", cur);
        const sem::BranchOutcome out = sem::evalBranch(term, readReg);
        if (out.kind == sem::BranchOutcome::Kind::kMalformedMwbr) {
            // A selector outside the case table means the program is
            // dynamically malformed; the generator always narrows
            // selectors into range, but fuzz reduction can delete or
            // shrink part of the narrowing chain. Halt without
            // completing so callers reject the execution instead of
            // the process aborting.
            result.halt = Halt::NoMwbrCase;
            result.memory = state.takeMemory();
            return result;  // completed stays false
        }
        if (out.is_ret) {
            result.completed = true;
            result.halt = Halt::Returned;
            result.ret_value = out.ret_value;
            result.wrapped_stores = state.wrappedStores();
            result.memory = state.takeMemory();
            return result;
        }
        // A not-taken BRCT/BRCF falls through to target slot 1.
        const size_t taken_slot =
            out.kind == sem::BranchOutcome::Kind::kFire ? out.slot : 1;
        if (counts)
            ++counts->edge[counts->edge_base[cur] + taken_slot];
        cur = term.targets[taken_slot];
        TG_ASSERT(cur != ir::kNoBlock);
    }
}

} // namespace treegion::vliw
