#include "workloads/profiler.h"

#include "vliw/interpreter.h"

namespace treegion::workloads {

ProfileSummary
profileFunction(ir::Function &fn, size_t mem_words,
                const ProfileOptions &options)
{
    ProfileSummary summary;
    vliw::SequentialProgram program(fn);
    vliw::ExecutionCounts counts(fn);
    std::vector<int64_t> memory(mem_words);
    for (int run = 0; run < options.runs; ++run) {
        fillInputMemory(memory, options.input_seed * 0x9e3779b9ULL + run,
                        options.data_max);
        const vliw::ExecResult result = program.run(memory, {}, &counts);
        if (result.completed) {
            ++summary.completed_runs;
            summary.total_ops += result.ops_executed;
        }
    }

    // Counts are whole numbers far below 2^53, so converting them is
    // exact: the weights equal a sum of 1.0 per execution.
    fn.forEachBlockMut([&](ir::BasicBlock &b) {
        b.setWeight(static_cast<double>(counts.block[b.id()]));
        const size_t n_targets =
            b.hasTerminator() ? b.terminator().targets.size() : 0;
        b.edgeWeights().resize(n_targets);
        for (size_t slot = 0; slot < n_targets; ++slot) {
            b.edgeWeights()[slot] =
                static_cast<double>(counts.edgeCount(b.id(), slot));
        }
    });
    return summary;
}

} // namespace treegion::workloads
