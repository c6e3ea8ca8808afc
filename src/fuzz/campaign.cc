#include "fuzz/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>

#include "fuzz/mutate.h"
#include "ir/printer.h"
#include "support/string_utils.h"
#include "support/thread_pool.h"
#include "support/spans.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion::fuzz {

using support::strprintf;

namespace {

struct CellFailure
{
    sched::PipelineOptions options;
    OracleFailure fail;
};

} // namespace

std::string
writeRepro(const FoundBug &bug, const std::string &corpus_dir)
{
    std::filesystem::create_directories(corpus_dir);
    const size_t tag = std::hash<std::string>{}(
        bug.module_text + sched::encodePipelineOptions(bug.options) +
        bug.oracle);
    const std::string path = strprintf(
        "%s/%s-%08zx.tir", corpus_dir.c_str(), bug.oracle.c_str(),
        tag & 0xffffffff);
    std::ofstream os(path);
    os << makeReproHeader(bug.options, bug.oracle_opts, bug.oracle,
                          bug.detail);
    os << bug.module_text;
    return path;
}

CampaignResult
runCampaign(const CampaignOptions &opts)
{
    support::SpanScope campaign_span("fuzz_campaign",
                                     support::SpanScope::Root::IfEnabled);
    CampaignResult result;
    support::Rng rng(opts.seed);
    support::ThreadPool pool(opts.jobs);

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opts.budget_seconds));

    while ((opts.max_programs == 0 ||
            result.programs < opts.max_programs) &&
           std::chrono::steady_clock::now() < deadline) {
        support::SpanScope program_span(
            "fuzz_program", support::SpanScope::Root::IfEnabled);
        const workloads::GenParams params = mutateParams(rng);
        std::unique_ptr<ir::Module> mod =
            workloads::generateProgram("fuzz", params);
        ++result.programs;

        std::vector<CellFailure> failures;

        // Scheme-independent oracle: the textual round trip.
        if (OracleFailure rt = checkRoundTrip(*mod))
            failures.push_back({sched::PipelineOptions{}, std::move(rt)});

        // One cell per scheme x heuristic x width; lowering toggles
        // drawn per cell so the sweep covers both settings over time.
        std::vector<sched::PipelineOptions> cells;
        for (const sched::RegionScheme scheme : sched::kAllRegionSchemes) {
            for (const sched::Heuristic heuristic :
                 sched::kAllHeuristics) {
                for (const int width : opts.widths) {
                    sched::PipelineOptions cell;
                    cell.scheme = scheme;
                    cell.model = sched::MachineModel::custom(width);
                    cell.sched.heuristic = heuristic;
                    cell.sched.dominator_parallelism = rng.nextBool(0.75);
                    cell.sched.materialize_pbr = rng.nextBool(0.25);
                    cells.push_back(cell);
                }
            }
        }
        result.cells += cells.size();

        const ir::Function &fn = *mod->functions().front();
        const size_t mem_words = mod->memWords();
        // Cells on pool threads stay children of this program's span.
        const support::SpanContext program = support::currentSpanContext();
        auto runCell = [&fn, mem_words, &oracle = opts.oracle, program](
                           const sched::PipelineOptions &options) {
            const support::SpanContextScope in_program(program);
            support::SpanScope cell_span(
                "fuzz_cell", support::SpanScope::Root::IfEnabled);
            if (cell_span.live())
                cell_span.arg("config",
                              sched::encodePipelineOptions(options));
            return checkCell(fn, mem_words, options, oracle);
        };
        std::vector<std::future<OracleFailure>> futures;
        futures.reserve(cells.size());
        for (const sched::PipelineOptions &options : cells)
            futures.push_back(pool.submit(
                [&runCell, options] { return runCell(options); }));
        for (size_t i = 0; i < cells.size(); ++i) {
            if (OracleFailure fail = futures[i].get())
                failures.push_back({cells[i], std::move(fail)});
        }

        result.failures += failures.size();
        if (opts.verbose) {
            fprintf(stderr,
                    "[treegion-fuzz] program %zu (gen seed %llx): "
                    "%zu cells, %zu failing\n",
                    result.programs,
                    static_cast<unsigned long long>(params.seed),
                    cells.size(), failures.size());
        }

        // Deduplicate per program by oracle: one minimized repro per
        // failure mode is enough to root-cause it.
        std::vector<std::string> seen;
        for (CellFailure &failure : failures) {
            const std::string &oracle = failure.fail.oracle;
            if (std::find(seen.begin(), seen.end(), oracle) !=
                seen.end())
                continue;
            seen.push_back(oracle);
            if (result.bugs.size() >= opts.max_repros)
                continue;

            fprintf(stderr,
                    "[treegion-fuzz] FAILURE oracle=%s %s\n"
                    "[treegion-fuzz]   %s\n",
                    oracle.c_str(),
                    sched::encodePipelineOptions(failure.options).c_str(),
                    failure.fail.detail.c_str());

            FoundBug bug;
            bug.options = failure.options;
            bug.oracle_opts = opts.oracle;
            bug.oracle = oracle;
            bug.detail = failure.fail.detail;

            std::unique_ptr<ir::Module> repro = workloads::
                generateProgram("fuzz", params);
            bug.original_ops = repro->functions().front()->totalOps();
            if (opts.reduce) {
                OraclePredicate pred;
                if (oracle == "round-trip") {
                    pred = [](const ir::Module &m) {
                        return checkRoundTrip(m);
                    };
                } else {
                    pred = [options = failure.options,
                            oracle_opts =
                                opts.oracle](const ir::Module &m) {
                        return checkCell(*m.functions().front(),
                                         m.memWords(), options,
                                         oracle_opts);
                    };
                }
                const ReduceResult reduced = reduceModule(
                    *repro, oracle, pred, opts.reduce_opts);
                bug.reduced_ops = reduced.reduced_ops;
                fprintf(stderr,
                        "[treegion-fuzz]   reduced %zu -> %zu ops "
                        "(%zu candidates, %d rounds)\n",
                        reduced.original_ops, reduced.reduced_ops,
                        reduced.candidates, reduced.rounds);
            } else {
                bug.reduced_ops = bug.original_ops;
            }
            bug.module_text = ir::moduleToString(*repro);
            bug.repro_path = writeRepro(bug, opts.corpus_dir);
            fprintf(stderr, "[treegion-fuzz]   wrote %s\n",
                    bug.repro_path.c_str());
            result.bugs.push_back(std::move(bug));
        }
    }
    return result;
}

std::vector<ProxyAuditRow>
runProxyAudit(int width, size_t jobs)
{
    support::SpanScope span("proxy_audit",
                            support::SpanScope::Root::IfEnabled);
    const std::vector<workloads::ProxySpec> proxies =
        workloads::specint95Proxies();

    struct Task
    {
        size_t proxy_index;
        sched::PipelineOptions options;
    };
    std::vector<Task> tasks;
    std::vector<std::unique_ptr<ir::Module>> modules;
    std::vector<double> baselines;
    OracleOptions oracle;
    oracle.profile_runs = 8;
    oracle.equivalence_inputs = 1;

    for (size_t p = 0; p < proxies.size(); ++p) {
        modules.push_back(workloads::buildProxy(proxies[p]));
        ir::Function &fn = *modules.back()->functions().front();
        // The bb @ 1U baseline each estimate is reported against.
        ir::Function base = fn.clone();
        workloads::ProfileOptions prof;
        prof.input_seed = oracle.input_seed;
        prof.runs = oracle.profile_runs;
        prof.data_max = proxies[p].params.data_max;
        workloads::profileFunction(base, modules.back()->memWords(),
                                   prof);
        baselines.push_back(sched::estimateBaselineTime(base));
        for (const sched::RegionScheme scheme : sched::kAllRegionSchemes) {
            for (const sched::Heuristic heuristic :
                 sched::kAllHeuristics) {
                sched::PipelineOptions options;
                options.scheme = scheme;
                options.model = sched::MachineModel::custom(width);
                options.sched.heuristic = heuristic;
                tasks.push_back({p, options});
            }
        }
    }

    std::vector<ProxyAuditRow> rows(tasks.size());
    // Cells on pool threads stay children of the audit's span.
    const support::SpanContext audit = support::currentSpanContext();
    support::ThreadPool pool(jobs);
    pool.parallelFor(tasks.size(), [&](size_t i) {
        const support::SpanContextScope in_audit(audit);
        const Task &task = tasks[i];
        const ir::Module &mod = *modules[task.proxy_index];
        OracleOptions cell_oracle = oracle;
        cell_oracle.data_max =
            proxies[task.proxy_index].params.data_max;
        ProxyAuditRow row;
        row.proxy = proxies[task.proxy_index].name;
        row.options = task.options;
        row.baseline = baselines[task.proxy_index];
        OracleFailure fail =
            checkCell(*mod.functions().front(), mod.memWords(),
                      task.options, cell_oracle, &row.estimate);
        row.oracle = fail.oracle;
        row.detail = fail.detail;
        rows[i] = std::move(row);
    });
    return rows;
}

} // namespace treegion::fuzz
