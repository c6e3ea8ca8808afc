/**
 * @file
 * Synthetic structured-program generator.
 *
 * Programs are built from nestable structures — straight-line code,
 * if-then, if-then-else, switch (MWBR), early-exit ladders, and
 * counted loops — with every branch condition computed from loaded
 * data, so different input memory images exercise different paths
 * and the profiler sees genuinely input-dependent behaviour.
 *
 * Data layout: the top kReservedWords of memory hold loop counters
 * and the accumulator cell; the rest is input data. Loop counters
 * live in memory (stored/reloaded each iteration) because the IR has
 * no phi nodes; conditions load fresh data cells so path choices are
 * reproducible functions of the input image.
 *
 * The structure mix, sizes and branch bias are the dials the
 * SPECint95 proxies (spec_proxy.h) turn to mimic each benchmark's
 * CFG character.
 */

#ifndef TREEGION_WORKLOADS_SYNTHETIC_H
#define TREEGION_WORKLOADS_SYNTHETIC_H

#include <memory>
#include <string>

#include "ir/module.h"

namespace treegion::workloads {

/** Memory words reserved for counters and the accumulator. */
inline constexpr size_t kReservedWords = 256;

/**
 * Smallest memory image makeInputMemory accepts: the reserved words
 * plus one data word. Callers that take the size from a module
 * (`mem=`) check it against this and report an error rather than
 * profile or run a smaller one.
 */
inline constexpr size_t kMinInputMemWords = kReservedWords + 1;

/** Generator parameters. */
struct GenParams
{
    uint64_t seed = 1;        ///< structure randomness
    size_t mem_words = 4096;  ///< simulated memory size

    int top_units = 12;   ///< structures in the top-level sequence
    int max_depth = 3;    ///< structure nesting depth
    size_t max_blocks = 4000;  ///< soft cap on CFG size

    // Structure mix (relative weights, not required to sum to 1).
    double p_straight = 0.15;
    double p_if = 0.20;
    double p_ifelse = 0.25;
    double p_switch = 0.10;
    double p_ladder = 0.10;
    double p_loop = 0.20;

    int switch_width_min = 4;   ///< MWBR arm count range
    int switch_width_max = 8;
    int ladder_len_min = 3;     ///< early-exit ladder length range
    int ladder_len_max = 6;
    int loop_trip_min = 2;      ///< counted-loop trip range
    int loop_trip_max = 10;

    int block_ops_min = 3;  ///< computation ops per block
    int block_ops_max = 8;

    /** Probability an arm or loop body nests another structure. */
    double nest_prob = 0.6;

    /** Probability a switch arm nests (kept separate: the paper's
     * wide treegions are shallow). */
    double switch_arm_nest_prob = 0.3;

    /** Switch arms are typically small dispatch stubs. */
    int switch_arm_ops_min = 2;
    int switch_arm_ops_max = 5;

    /**
     * Probability a computation op consumes the most recent result,
     * forming dependence chains. Real integer code has limited
     * intra-block ILP (chains plus load-use delays); this is what
     * leaves issue slots idle for the scheduler to fill with
     * speculated ops.
     */
    double chain_frac = 0.9;

    /**
     * Probability the "hot" side of a two-way branch is taken when
     * data is uniform in [0, data_max). 0.5 = balanced; 0.98 mimics
     * ijpeg's biased treegions.
     */
    double bias = 0.65;

    /**
     * Probability a ladder rung fails (takes the early exit). Low
     * values give vortex-style linearized regions whose most-taken
     * exit is at the bottom.
     */
    double ladder_break = 0.08;

    /**
     * Probability a ladder is a pure validation chain whose
     * intermediate exits are never taken (the paper's Fig. 10: every
     * block carries the same profile weight and only the bottom exit
     * fires, which is what exposes the weighted-count flaw).
     */
    double ladder_dead_prob = 0.4;

    double mem_frac = 0.25;    ///< fraction of block ops touching memory
    double store_frac = 0.35;  ///< of memory ops, fraction that store
    double fp_frac = 0.0;      ///< fraction of ALU ops that are FP
                               ///< (SPECint95 proxies use none)

    int data_max = 100;  ///< data cells are uniform in [0, data_max)

    /** Live-value pool size (values live across block boundaries). */
    size_t pool_size = 8;

};

/** Generate a single-function module named @p name. */
std::unique_ptr<ir::Module> generateProgram(const std::string &name,
                                            const GenParams &params);

/**
 * Build an input memory image for a generated program: data cells
 * uniform in [0, data_max), reserved cells zero. @p mem_words must be
 * at least kMinInputMemWords.
 */
std::vector<int64_t> makeInputMemory(size_t mem_words, uint64_t seed,
                                     int data_max);

/** Overwrite @p memory with makeInputMemory(memory.size(), @p seed,
 * @p data_max)'s image, reusing its storage. */
void fillInputMemory(std::vector<int64_t> &memory, uint64_t seed,
                     int data_max);

} // namespace treegion::workloads

#endif // TREEGION_WORKLOADS_SYNTHETIC_H
