/**
 * @file
 * End-to-end validation demo: generates a SPECint95 proxy, compiles
 * it with every region scheme, and runs each schedule against the
 * sequential interpreter on fresh inputs, reporting simulated cycles
 * and the equivalence verdict. This is the library's "trust but
 * verify" workflow.
 *
 *   $ ./simulate_schedule [proxy-index 0..7]
 */

#include <cstdio>
#include <cstdlib>

#include "sched/pipeline.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

using namespace treegion;

int
main(int argc, char **argv)
{
    const auto proxies = workloads::specint95Proxies();
    const size_t index =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) % 8 : 0;
    const auto &spec = proxies[index];

    auto mod = workloads::buildProxy(spec);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, spec.params.mem_words);
    std::printf("proxy '%s': %zu blocks, %zu ops\n\n",
                spec.name.c_str(), original.blockIds().size(),
                original.totalOps());

    const sched::RegionScheme schemes[] = {
        sched::RegionScheme::BasicBlock, sched::RegionScheme::Slr,
        sched::RegionScheme::Superblock, sched::RegionScheme::Treegion,
        sched::RegionScheme::TreegionTailDup,
        sched::RegionScheme::Hyperblock};

    for (const auto scheme : schemes) {
        ir::Function transformed = original.clone();
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::wide4U();
        const auto result = sched::runPipeline(transformed, options);

        uint64_t total_cycles = 0;
        int checked = 0, ok = 0;
        for (uint64_t input = 0; input < 5; ++input) {
            auto memory = workloads::makeInputMemory(
                spec.params.mem_words, 1000 + input, 100);
            const auto report = vliw::checkEquivalence(
                original, transformed, result.schedule, memory);
            ++checked;
            if (report.ok) {
                ++ok;
                total_cycles += report.vliw.cycles;
            } else {
                std::printf("  !! input %llu: %s\n",
                            static_cast<unsigned long long>(input),
                            report.detail.c_str());
            }
        }
        std::printf("%-8s regions=%-4zu estimate=%-8.0f "
                    "sim cycles (5 inputs)=%-8llu equivalence %d/%d\n",
                    sched::regionSchemeName(scheme).c_str(),
                    result.schedule.regions.size(),
                    result.estimated_time,
                    static_cast<unsigned long long>(total_cycles),
                    ok, checked);
    }
    std::printf("\nEvery scheme's schedule must compute exactly what "
                "the sequential program computes; the simulator "
                "executes predication, speculation and the exit "
                "reconciliation copies for real.\n");
    return 0;
}
