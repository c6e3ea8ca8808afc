/**
 * @file
 * Fuzz campaign driver: the shard-and-check loop behind
 * tools/treegion-fuzz.
 *
 * Each generated program fans out into one cell per (scheme x
 * heuristic x width) with randomly drawn lowering toggles; cells are
 * sharded across a support::ThreadPool and each runs under a
 * "fuzz_cell" span. Failures are deduplicated per program by oracle,
 * shrunk by the delta-debugging reducer, and written to the corpus
 * as self-describing .tir repro files that
 * tests/fuzz_regression_test.cc replays.
 */

#ifndef TREEGION_FUZZ_CAMPAIGN_H
#define TREEGION_FUZZ_CAMPAIGN_H

#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "fuzz/reducer.h"

namespace treegion::fuzz {

/** Campaign knobs (the treegion-fuzz command line). */
struct CampaignOptions
{
    double budget_seconds = 30.0;  ///< wall-clock stop condition
    size_t max_programs = 0;       ///< 0 = until the budget runs out
    size_t jobs = 0;               ///< worker threads (0 = hardware)
    uint64_t seed = 1;             ///< campaign RNG seed
    std::string corpus_dir = "fuzz/corpus";
    bool reduce = true;            ///< shrink failures before writing
    size_t max_repros = 16;        ///< corpus files written per run
    int widths[3] = {1, 4, 8};     ///< issue widths swept
    OracleOptions oracle;          ///< shared oracle knobs (tamper!)
    ReduceOptions reduce_opts;
    bool verbose = false;          ///< per-program progress lines
};

/** One minimized finding. */
struct FoundBug
{
    sched::PipelineOptions options;
    OracleOptions oracle_opts;
    std::string oracle;
    std::string detail;
    std::string module_text;  ///< reduced program, textual IR
    size_t original_ops = 0;
    size_t reduced_ops = 0;
    std::string repro_path;   ///< corpus file written ("" if none)
};

/** Campaign outcome. */
struct CampaignResult
{
    size_t programs = 0;
    size_t cells = 0;
    size_t failures = 0;  ///< failing cells before dedup/reduction
    std::vector<FoundBug> bugs;
};

/** Run a fuzz campaign. */
CampaignResult runCampaign(const CampaignOptions &opts);

/**
 * Write @p bug to @p corpus_dir (created if missing) as a
 * self-describing .tir repro. @return the file path.
 */
std::string writeRepro(const FoundBug &bug,
                       const std::string &corpus_dir);

/** One row of the estimate-sanity audit over the SPEC proxies. */
struct ProxyAuditRow
{
    std::string proxy;
    sched::PipelineOptions options;
    std::string oracle;  ///< failing oracle, empty = all passed
    std::string detail;
    double estimate = 0.0;  ///< estimated cycles under options
    double baseline = 0.0;  ///< bb @ 1U estimated cycles
};

/**
 * Run every oracle over the eight SPECint95 proxies at issue width
 * @p width, across all schemes x heuristics (dominator parallelism
 * on, PBR off — the paper's configuration). Used to test whether the
 * recorded 4U speedup deviation coincides with invariant violations.
 */
std::vector<ProxyAuditRow> runProxyAudit(int width, size_t jobs);

} // namespace treegion::fuzz

#endif // TREEGION_FUZZ_CAMPAIGN_H
