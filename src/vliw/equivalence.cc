#include "vliw/equivalence.h"

#include <unordered_set>

#include "support/string_utils.h"

namespace treegion::vliw {

using support::strprintf;

namespace {

/** Why the @p which sequential run did not complete. */
std::string
incompleteDetail(const char *which, const ExecResult &run)
{
    if (run.halt == Halt::NoMwbrCase) {
        return strprintf("%s sequential run halted in bb%u: its MWBR "
                         "selector matched no case",
                         which, run.trace.back());
    }
    return strprintf("%s sequential run hit its op limit", which);
}

} // namespace

EquivalenceReport
checkEquivalence(ir::Function &original, ir::Function &transformed,
                 const sched::FunctionSchedule &schedule,
                 const std::vector<int64_t> &memory)
{
    EquivalenceReport report;

    const ExecResult seq_orig = runSequential(original, memory);
    if (!seq_orig.completed) {
        report.incomplete = true;
        report.detail = incompleteDetail("original", seq_orig);
        return report;
    }

    const ExecResult seq_trans =
        &original == &transformed ? seq_orig
                                  : runSequential(transformed, memory);
    if (!seq_trans.completed) {
        report.incomplete = true;
        report.detail = incompleteDetail("transformed", seq_trans);
        return report;
    }

    if (seq_trans.ret_value != seq_orig.ret_value) {
        report.detail = strprintf(
            "tail duplication changed the return value: %lld != %lld",
            static_cast<long long>(seq_trans.ret_value),
            static_cast<long long>(seq_orig.ret_value));
        return report;
    }
    if (seq_trans.memory != seq_orig.memory) {
        report.detail = "tail duplication changed final memory";
        return report;
    }

    report.vliw = runScheduled(transformed, schedule, memory);
    const VliwResult &vliw = report.vliw;
    if (!vliw.completed) {
        report.incomplete = true;
        report.detail = "scheduled run hit its cycle limit";
        return report;
    }

    if (vliw.ret_value != seq_orig.ret_value) {
        report.detail = strprintf(
            "scheduled return value %lld != sequential %lld",
            static_cast<long long>(vliw.ret_value),
            static_cast<long long>(seq_orig.ret_value));
        return report;
    }
    for (size_t i = 0; i < vliw.memory.size(); ++i) {
        if (vliw.memory[i] != seq_orig.memory[i]) {
            report.detail = strprintf(
                "memory[%zu]: scheduled %lld != sequential %lld", i,
                static_cast<long long>(vliw.memory[i]),
                static_cast<long long>(seq_orig.memory[i]));
            return report;
        }
    }

    // Control trace: region roots visited must match the transformed
    // sequential block trace filtered to region roots.
    std::unordered_set<ir::BlockId> roots;
    for (const auto &[root, rs] : schedule.regions)
        roots.insert(root);
    std::vector<ir::BlockId> expected;
    for (const ir::BlockId id : seq_trans.trace) {
        if (roots.count(id))
            expected.push_back(id);
    }
    if (expected != vliw.trace) {
        report.detail = strprintf(
            "control trace mismatch: %zu scheduled region entries vs "
            "%zu expected", vliw.trace.size(), expected.size());
        for (size_t i = 0;
             i < std::min(expected.size(), vliw.trace.size()); ++i) {
            if (expected[i] != vliw.trace[i]) {
                report.detail += strprintf(
                    " (first divergence at %zu: bb%u vs bb%u)", i,
                    vliw.trace[i], expected[i]);
                break;
            }
        }
        return report;
    }

    report.ok = true;
    return report;
}

std::string
backendMismatch(const VliwResult &ooo, const VliwResult &vliw)
{
    if (!ooo.completed)
        return "ooo hit its cycle limit but the vliw backend completed";
    if (ooo.ret_value != vliw.ret_value) {
        return strprintf("return value %lld != vliw %lld",
                         static_cast<long long>(ooo.ret_value),
                         static_cast<long long>(vliw.ret_value));
    }
    if (ooo.memory.size() != vliw.memory.size()) {
        return strprintf("memory: %zu words != vliw %zu",
                         ooo.memory.size(), vliw.memory.size());
    }
    for (size_t i = 0; i < vliw.memory.size(); ++i) {
        if (ooo.memory[i] != vliw.memory[i]) {
            return strprintf("memory[%zu]: %lld != vliw %lld", i,
                             static_cast<long long>(ooo.memory[i]),
                             static_cast<long long>(vliw.memory[i]));
        }
    }
    if (ooo.trace != vliw.trace) {
        return strprintf("region trace: %zu entries != vliw %zu",
                         ooo.trace.size(), vliw.trace.size());
    }
    if (ooo.regions_executed != vliw.regions_executed ||
        ooo.copies_applied != vliw.copies_applied ||
        ooo.ops_executed != vliw.ops_executed) {
        return strprintf(
            "counters (regions %llu copies %llu ops %llu) != "
            "vliw (%llu %llu %llu)",
            static_cast<unsigned long long>(ooo.regions_executed),
            static_cast<unsigned long long>(ooo.copies_applied),
            static_cast<unsigned long long>(ooo.ops_executed),
            static_cast<unsigned long long>(vliw.regions_executed),
            static_cast<unsigned long long>(vliw.copies_applied),
            static_cast<unsigned long long>(vliw.ops_executed));
    }
    return {};
}

} // namespace treegion::vliw
