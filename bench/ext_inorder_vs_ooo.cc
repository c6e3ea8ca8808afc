/**
 * @file
 * Extension experiment — in-order versus out-of-order execution of
 * the same schedules (DESIGN.md §15, EXPERIMENTS.md). For every
 * (scheme x heuristic) cell, total simulated cycles over the proxy
 * suite on the in-order machine at 4U and 8U versus both OoO configs
 * executing the 8U schedule (the widest static form, so the dynamic
 * front end sees the most exposed parallelism per row), with retired
 * IPC and the ooo-wide/in-order-8U cycle ratio. Output is a markdown
 * table ready to paste into EXPERIMENTS.md.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ooo/ooo_sim.h"
#include "vliw/vliw_sim.h"

namespace {

using namespace treegion;

/** One compiled proxy ready to simulate. */
struct Compiled
{
    ir::Function fn;
    sched::FunctionSchedule schedule;
    size_t mem_words = 0;
};

std::vector<Compiled>
compileSuite(std::vector<bench::Workload> &workloads,
             const sched::PipelineOptions &options)
{
    std::vector<Compiled> suite;
    for (bench::Workload &w : workloads) {
        auto run = sched::runPipelineOnClone(w.fn(), options);
        suite.push_back({std::move(run.fn),
                         std::move(run.result.schedule),
                         w.mod->memWords()});
    }
    return suite;
}

/** Cycle/IPC totals of one backend over the suite. */
struct GridCell
{
    uint64_t cycles = 0;
    uint64_t retired = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(retired) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Run the suite once; @p ooo null means the in-order VLIW machine. */
GridCell
simulateSuite(std::vector<Compiled> &suite, const ooo::OooConfig *ooo)
{
    GridCell cell;
    for (Compiled &c : suite) {
        auto mem = workloads::makeInputMemory(c.mem_words,
                                              bench::benchSeed(), 100);
        if (ooo) {
            const auto run = ooo::runOutOfOrder(c.fn, c.schedule,
                                                std::move(mem), *ooo);
            cell.cycles += run.arch.cycles;
            cell.retired += run.stats.retired;
        } else {
            const auto run =
                vliw::runScheduled(c.fn, c.schedule, std::move(mem));
            cell.cycles += run.cycles;
            cell.retired += run.ops_executed;
        }
    }
    return cell;
}

} // namespace

int
main()
{
    auto workloads = bench::loadWorkloads();
    const ooo::OooConfig small = ooo::oooSmall();
    const ooo::OooConfig wide = ooo::oooWide();
    std::printf("| scheme | heuristic | 4U cyc | 8U cyc | "
                "ooo-small cyc (IPC) | ooo-wide cyc (IPC) | "
                "wide/8U |\n");
    std::printf("|---|---|---|---|---|---|---|\n");
    for (const sched::RegionScheme scheme : sched::kAllRegionSchemes) {
        for (const sched::Heuristic heuristic :
             sched::kAllHeuristics) {
            auto suite4 = compileSuite(
                workloads, bench::makeOptions(scheme, 4, heuristic));
            auto suite8 = compileSuite(
                workloads, bench::makeOptions(scheme, 8, heuristic));
            const GridCell in4 = simulateSuite(suite4, nullptr);
            const GridCell in8 = simulateSuite(suite8, nullptr);
            const GridCell os = simulateSuite(suite8, &small);
            const GridCell ow = simulateSuite(suite8, &wide);
            std::printf(
                "| %s | %s | %llu | %llu | %llu (%.2f) | %llu "
                "(%.2f) | %.2f |\n",
                sched::regionSchemeName(scheme).c_str(),
                sched::heuristicName(heuristic).c_str(),
                static_cast<unsigned long long>(in4.cycles),
                static_cast<unsigned long long>(in8.cycles),
                static_cast<unsigned long long>(os.cycles), os.ipc(),
                static_cast<unsigned long long>(ow.cycles), ow.ipc(),
                in8.cycles ? static_cast<double>(ow.cycles) /
                                 static_cast<double>(in8.cycles)
                           : 0.0);
        }
    }
    return 0;
}
