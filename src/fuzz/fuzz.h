/**
 * @file
 * Differential fuzzing of the full compilation pipeline.
 *
 * A fuzz *cell* is one (program, configuration) pair: the program is
 * compiled through region formation, lowering and scheduling under
 * the configuration, and five oracles cross-check the result against
 * the sequential program:
 *
 *  1. equivalence — the VLIW simulator must compute the same return
 *     value, memory image and region-root control trace as the
 *     sequential interpreter (vliw::checkEquivalence);
 *  2. legality   — the schedule must pass sched::verifySchedule
 *     (placement, dataflow latencies, memory program order along
 *     paths, predicate definitions, exit records);
 *  3. ir-verify  — the transformed sequential function (after tail
 *     duplication) must still pass the IR verifier;
 *  4. cost-model — performance-model sanity: per region, exit weights
 *     conserve the root's profile weight, and the time estimate lies
 *     in [W, W * length] for exit weight sum W; code expansion never
 *     drops below 1;
 *  5. ooo-equivalence — the out-of-order backend (every named
 *     configuration, ooo-small and ooo-wide) must produce the same
 *     architectural outcome as the in-order VLIW simulator on the
 *     same schedule: return value, memory image, region-root trace
 *     and the architectural counters (regions, copies, retired ops).
 *
 * A further scheme-independent oracle checks that printing a module
 * and reparsing it is a fixed point (checkRoundTrip).
 *
 * Everything here is deterministic: a cell's outcome is a pure
 * function of (module text, sched::PipelineOptions, OracleOptions).
 */

#ifndef TREEGION_FUZZ_FUZZ_H
#define TREEGION_FUZZ_FUZZ_H

#include <string>

#include "ir/module.h"
#include "sched/pipeline.h"

namespace treegion::fuzz {

/** Inputs and knobs for the oracle run (not part of the config under
 * test, but needed to reproduce a failure exactly). */
struct OracleOptions
{
    uint64_t input_seed = 1000;  ///< base seed of the input family
    int equivalence_inputs = 2;  ///< input images cross-checked
    int profile_runs = 4;        ///< training runs for the profile
    int data_max = 100;          ///< input data range [0, data_max)

    /**
     * Test-only fault injection: 0 = off, 1 = corrupt the last exit
     * record's cycle after scheduling (guaranteed legality-oracle
     * failure on any program with at least one region exit). Used to
     * red-test the harness and to demonstrate the reducer.
     */
    int tamper = 0;
};

/** Outcome of an oracle run; empty oracle name means "all passed". */
struct OracleFailure
{
    std::string oracle;  ///< "equivalence", "legality", "ir-verify",
                         ///< "cost-model", "ooo-equivalence",
                         ///< "round-trip", or ""
    std::string detail;  ///< first problem, human-readable

    explicit operator bool() const { return !oracle.empty(); }
};

/**
 * Compile @p fn under @p options and run all five oracles.
 *
 * @p fn is never mutated: the cell profiles and compiles private
 * clones. @p mem_words sizes the input images (module mem= field).
 * @p estimated_time, when non-null, receives the pipeline's
 * estimated execution time (for audits and reports).
 */
OracleFailure checkCell(const ir::Function &fn, size_t mem_words,
                        const sched::PipelineOptions &options,
                        const OracleOptions &opts = {},
                        double *estimated_time = nullptr);

/** Check print -> parse -> print is a fixed point for @p mod. */
OracleFailure checkRoundTrip(const ir::Module &mod);

/**
 * Render the corpus repro header: "# "-prefixed lines (skipped by the
 * IR parser) recording the failing oracle, the pipeline options (in
 * encodePipelineOptions form) and the oracle options.
 */
std::string makeReproHeader(const sched::PipelineOptions &options,
                            const OracleOptions &opts,
                            const std::string &oracle,
                            const std::string &detail);

/**
 * Parse a repro file's header back. @return false on a malformed
 * header. @p oracle receives the recorded failing oracle name.
 */
bool parseReproHeader(const std::string &text,
                      sched::PipelineOptions &options,
                      OracleOptions &opts, std::string *oracle,
                      std::string *error = nullptr);

} // namespace treegion::fuzz

#endif // TREEGION_FUZZ_FUZZ_H
