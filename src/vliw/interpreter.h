/**
 * @file
 * Sequential reference interpreter.
 *
 * Executes a function's sequential IR block by block. It is the
 * semantic ground truth the VLIW schedule simulator is checked
 * against, and the engine behind the profiler (per-block and per-edge
 * execution counts). It decodes the function first and runs the
 * decoded form; ALU and compare semantics are ir::evalAlu and
 * ir::evalCmp, as in every other engine.
 */

#ifndef TREEGION_VLIW_INTERPRETER_H
#define TREEGION_VLIW_INTERPRETER_H

#include <vector>

#include "ir/function.h"

namespace treegion::vliw {

/** Why a sequential execution stopped. */
enum class Halt : uint8_t {
    Returned,    ///< a RET: the run completed
    OpLimit,     ///< InterpOptions::max_ops ran out
    NoMwbrCase,  ///< an MWBR selector matched none of its cases
};

/** Outcome of one sequential execution. */
struct ExecResult
{
    bool completed = false;   ///< halt == Halt::Returned
    Halt halt = Halt::OpLimit;  ///< why the run stopped
    int64_t ret_value = 0;    ///< RET operand value
    std::vector<int64_t> memory;       ///< final memory image
    /** Blocks entered, in order; left empty by a counting run. */
    std::vector<ir::BlockId> trace;
    uint64_t ops_executed = 0;
    uint64_t wrapped_stores = 0;
};

/**
 * Per-block and per-edge execution counts from one or more runs of
 * one function, dense over its block ids and terminator slots.
 */
struct ExecutionCounts
{
    /** Zeroed counters shaped for @p fn's blocks and edges. */
    explicit ExecutionCounts(const ir::Function &fn);

    /** @return the count of the edge leaving @p from by target
     * @p slot. */
    uint64_t
    edgeCount(ir::BlockId from, size_t slot) const
    {
        return edge[edge_base[from] + slot];
    }

    std::vector<uint64_t> block;      ///< indexed by block id
    std::vector<uint32_t> edge_base;  ///< block id -> its first slot
    std::vector<uint64_t> edge;       ///< edge_base[from] + slot
};

/** Sequential execution options. */
struct InterpOptions
{
    uint64_t max_ops = 2'000'000;  ///< abort runaway programs
};

/**
 * A function decoded for sequential execution: one flat register file
 * (GPRs, then predicates, then one constant slot per immediate
 * operand) and each block's body as fixed-size records whose operands
 * are all slot indices. A block is decoded when a run first enters
 * it, so one run pays only for the blocks it reaches and further runs
 * reuse them. Register indices are checked there, against the
 * function's declared counts, instead of on every access. The tables
 * are sized from the function's op-id counter at construction, so
 * runs allocate nothing but a trace (DESIGN.md §17).
 */
class SequentialProgram
{
  public:
    /**
     * Prepare to run @p fn (which must verify at Structural level, and
     * outlive the program unchanged).
     */
    explicit SequentialProgram(const ir::Function &fn);

    /**
     * Run the function on @p memory, in place: its final image is left
     * there and ExecResult::memory stays empty.
     *
     * @param counts when non-null, block/edge counts are accumulated
     *        here (shaped for the function) and no trace is recorded
     */
    ExecResult run(std::vector<int64_t> &memory,
                   const InterpOptions &options = {},
                   ExecutionCounts *counts = nullptr);

  private:
    /**
     * One body op: its opcode and operand slots. Source i of the op
     * is slot a, b or c (a load's or store's address is a + b, with
     * the offset in a constant slot); a missing operand reads 0.
     */
    struct Insn
    {
        ir::Opcode opcode;
        ir::CmpKind cmp;
        uint32_t dst;    ///< first destination, or the sink
        uint32_t dst2;   ///< second destination (CMPP), or the sink
        uint32_t a;
        uint32_t b;
        uint32_t c;
        uint32_t guard;  ///< the constant 1 when unguarded
    };

    /** One block: where its body records are, and its terminator. */
    struct Block
    {
        /** BRU/BRCT/BRCF/MWBR/RET once decoded, kUndecoded before;
         * MOVI marks an id with no block or a block without a
         * terminator. */
        ir::Opcode term = kUndecoded;
        uint32_t first = 0;  ///< first body record in insns_
        uint32_t body = 0;   ///< body op count
        uint32_t src = 0;    ///< condition, selector or RET value slot
        uint32_t guard = 0;  ///< MWBR/RET guard slot
        const ir::Op *op = nullptr;  ///< the terminator (its targets)
    };

    static constexpr ir::Opcode kUndecoded = ir::Opcode::NumOpcodes;

    void decodeBlock(ir::BlockId id);

    const ir::Function &fn_;
    std::vector<Insn> insns_;
    std::vector<Block> blocks_;  ///< by block id
    /** Fixed slots, GPRs, predicates, then constants. */
    std::vector<int64_t> regs_;
    uint32_t num_gprs_;
    uint32_t num_preds_;
};

/**
 * Run @p fn sequentially on @p memory (decodes it first; callers that
 * run one function many times keep a SequentialProgram instead).
 *
 * @param fn the function (must verify at Schedulable level)
 * @param memory initial data memory
 * @param options limits
 * @param counts when non-null, block/edge counts are accumulated here
 *        (shaped for @p fn) and no trace is recorded
 */
ExecResult runSequential(const ir::Function &fn,
                         std::vector<int64_t> memory,
                         const InterpOptions &options = {},
                         ExecutionCounts *counts = nullptr);

} // namespace treegion::vliw

#endif // TREEGION_VLIW_INTERPRETER_H
