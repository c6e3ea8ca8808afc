/**
 * @file
 * Scaling of the parallel compilation driver (google-benchmark):
 * the paper's scheme x heuristic x machine-model sweep on the gcc
 * proxy, sharded across 1..N worker threads through
 * runPipelineParallel. Real time is what matters here — the work is
 * fixed, so the per-iteration wall time should drop roughly linearly
 * until the thread count passes the physical core count.
 *
 *   ./throughput_parallel --benchmark_min_time=0.01
 */

#include <benchmark/benchmark.h>

#include "sched/pipeline.h"
#include "support/stats.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace {

using namespace treegion;

/** The profiled gcc proxy, built once. */
ir::Function &
gccProxy()
{
    static std::unique_ptr<ir::Module> mod = [] {
        const auto proxies = workloads::specint95Proxies();
        auto m = workloads::buildProxy(proxies[1]);
        workloads::profileFunction(m->function("main"),
                                   proxies[1].params.mem_words);
        return m;
    }();
    return mod->function("main");
}

/** The paper's evaluation grid: 4 schemes x 4 heuristics x {4U,8U}. */
std::vector<sched::PipelineJob>
sweepJobs()
{
    static const sched::RegionScheme schemes[] = {
        sched::RegionScheme::BasicBlock,
        sched::RegionScheme::Slr,
        sched::RegionScheme::Superblock,
        sched::RegionScheme::Treegion,
    };
    std::vector<sched::PipelineJob> jobs;
    for (const auto scheme : schemes) {
        for (const auto heuristic : sched::kAllHeuristics) {
            for (const int width : {4, 8}) {
                sched::PipelineJob job;
                job.fn = &gccProxy();
                job.options.scheme = scheme;
                job.options.sched.heuristic = heuristic;
                job.options.model = width == 4
                                        ? sched::MachineModel::wide4U()
                                        : sched::MachineModel::wide8U();
                job.label = sched::regionSchemeName(scheme) + "/" +
                            sched::heuristicName(heuristic) + "/" +
                            job.options.model.name;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

void
BM_ParallelSweep(benchmark::State &state)
{
    const size_t threads = static_cast<size_t>(state.range(0));
    const auto jobs = sweepJobs();
    double checksum = 0.0;
    // Per-job compile latency distribution across all iterations;
    // the tail (p99 vs p50) shows how unevenly the sweep's job sizes
    // load the pool.
    support::Histogram latency;
    for (auto _ : state) {
        auto results = sched::runPipelineParallel(jobs, threads);
        for (const auto &r : results) {
            checksum += r.result.estimated_time;
            latency.add(r.compile_ms);
        }
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * jobs.size()));
    state.counters["jobs"] = static_cast<double>(jobs.size());
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["job_p50_ms"] = latency.p50();
    state.counters["job_p95_ms"] = latency.p95();
    state.counters["job_p99_ms"] = latency.p99();
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Pool overhead floor: many tiny tasks through the same pool. */
void
BM_PoolSmallTasks(benchmark::State &state)
{
    const size_t threads = static_cast<size_t>(state.range(0));
    support::ThreadPool pool(threads);
    for (auto _ : state) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(1024, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        benchmark::DoNotOptimize(sum.load());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_PoolSmallTasks)->Arg(1)->Arg(4)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
