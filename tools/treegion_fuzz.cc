/**
 * @file
 * treegion-fuzz: differential fuzzing driver.
 *
 * Generates random programs from a widened workloads::GenParams
 * envelope, compiles every (scheme x heuristic x width) cell on a
 * FIFO thread pool (one worker at --jobs 1), and cross-checks five
 * oracles per cell (simulator equivalence, schedule legality, IR
 * verification, cost-model sanity, out-of-order equivalence) plus
 * the textual round trip per program. Any failure is shrunk by the
 * delta-debugging reducer and written to the corpus as a
 * self-describing .tir repro.
 *
 * Usage:
 *   treegion-fuzz [options]
 *   --budget-seconds N   wall-clock budget (default 30)
 *   --programs N         stop after N programs (default: budget only)
 *   --jobs N             worker threads (default: hardware)
 *   --seed S             campaign seed (default 1)
 *   --corpus DIR         repro directory (default fuzz/corpus)
 *   --no-reduce          write unminimized repros
 *   --tamper K           fault injection (1 = corrupt an exit cycle)
 *   --proxy-audit W      instead of fuzzing, run all oracles over
 *                        the SPECint95 proxies at issue width W
 *   --trace-json FILE    record a span per campaign, program, cell,
 *                        reduction and pipeline stage and write them
 *                        to FILE as Chrome trace events
 *   --flight-rec FILE    dump the crash flight recorder here when a
 *                        worker panics or dies on a fatal signal —
 *                        the last events of every thread (one "job"
 *                        per compile, naming function, scheme and
 *                        heuristic), so a crash found by the
 *                        campaign is diagnosable from the artifact
 *                        alone
 *   --verbose            per-program progress
 *
 * Exit status: 0 when every cell passed, 1 on any oracle failure or
 * when the --trace-json file cannot be written.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/campaign.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/spans.h"

using namespace treegion;

namespace {

int
runAudit(int width, size_t jobs)
{
    const std::vector<fuzz::ProxyAuditRow> rows =
        fuzz::runProxyAudit(width, jobs);
    size_t violations = 0;
    std::string proxy;
    for (const fuzz::ProxyAuditRow &row : rows) {
        if (row.proxy != proxy) {
            proxy = row.proxy;
            std::printf("%s (bb@1U baseline %.0f cycles)\n",
                        proxy.c_str(), row.baseline);
        }
        std::printf("  %-64s est %10.1f  speedup %5.2f  %s%s\n",
                    sched::encodePipelineOptions(row.options).c_str(),
                    row.estimate,
                    row.estimate > 0.0 ? row.baseline / row.estimate
                                       : 0.0,
                    row.oracle.empty() ? "ok" : "FAIL ",
                    row.oracle.c_str());
        if (!row.oracle.empty()) {
            ++violations;
            std::printf("    %s\n", row.detail.c_str());
        }
    }
    std::printf("proxy audit at %dU: %zu cells, %zu oracle "
                "violations\n",
                width, rows.size(), violations);
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::CampaignOptions opts;
    std::string trace_json;
    std::string flightrec_path;
    int audit_width = 0;

    auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value after %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--budget-seconds") {
            opts.budget_seconds = std::atof(next(i));
        } else if (arg == "--programs") {
            opts.max_programs =
                static_cast<size_t>(std::atoll(next(i)));
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<size_t>(std::atoll(next(i)));
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next(i), nullptr, 0);
        } else if (arg == "--corpus") {
            opts.corpus_dir = next(i);
        } else if (arg == "--no-reduce") {
            opts.reduce = false;
        } else if (arg == "--tamper") {
            opts.oracle.tamper = std::atoi(next(i));
        } else if (arg == "--proxy-audit") {
            audit_width = std::atoi(next(i));
        } else if (arg == "--trace-json") {
            trace_json = next(i);
        } else if (arg == "--flight-rec") {
            flightrec_path = next(i);
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    auto &spans = support::SpanCollector::instance();
    if (!trace_json.empty()) {
        spans.setService("treegion-fuzz");
        spans.configure(1.0);
    }
    if (!flightrec_path.empty()) {
        support::flightrec::setDumpPath(flightrec_path.c_str());
        support::flightrec::installCrashHandlers();
        support::setPanicHook(&support::flightrec::dumpConfigured);
    }

    int status = 0;
    if (audit_width > 0) {
        status = runAudit(audit_width, opts.jobs);
    } else {
        const fuzz::CampaignResult result = fuzz::runCampaign(opts);
        std::printf("treegion-fuzz: %zu programs, %zu cells, "
                    "%zu failing cells, %zu minimized repros\n",
                    result.programs, result.cells, result.failures,
                    result.bugs.size());
        for (const fuzz::FoundBug &bug : result.bugs) {
            std::printf("  %s: %s (%zu -> %zu ops) %s\n",
                        bug.oracle.c_str(),
                        sched::encodePipelineOptions(bug.options).c_str(),
                        bug.original_ops, bug.reduced_ops,
                        bug.repro_path.c_str());
        }
        status = result.failures == 0 ? 0 : 1;
    }

    if (trace_json.empty())
        return status;
    if (!support::writeChromeTraceFile(trace_json, spans.snapshot())) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     trace_json.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "trace written to %s (%llu spans dropped past the "
                 "buffer cap)\n",
                 trace_json.c_str(),
                 static_cast<unsigned long long>(spans.dropped()));
    return status;
}
