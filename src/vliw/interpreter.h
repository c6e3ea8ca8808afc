/**
 * @file
 * Sequential reference interpreter.
 *
 * Executes a function's sequential IR block by block. It is the
 * semantic ground truth the VLIW schedule simulator is checked
 * against, and the engine behind the profiler (per-block and per-edge
 * execution counts).
 */

#ifndef TREEGION_VLIW_INTERPRETER_H
#define TREEGION_VLIW_INTERPRETER_H

#include <optional>
#include <vector>

#include "ir/function.h"
#include "vliw/machine_state.h"

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
 * Run @p fn sequentially on @p memory.
 *
 * @param fn the function (must verify at Schedulable level)
 * @param memory initial data memory
 * @param options limits
 * @param counts when non-null, block/edge counts are accumulated here
 *        (shaped for @p fn) and no trace is recorded
 */
ExecResult runSequential(ir::Function &fn, std::vector<int64_t> memory,
                         const InterpOptions &options = {},
                         ExecutionCounts *counts = nullptr);

} // namespace treegion::vliw

#endif // TREEGION_VLIW_INTERPRETER_H
