#include "sched/perf_model.h"

#include "support/remarks.h"

namespace treegion::sched {

double
estimateRegionTime(const RegionSchedule &sched)
{
    double time = 0.0;
    for (const ScheduledExit &exit : sched.exits) {
        // A path leaving via a branch issuing in cycle c costs c + 1
        // cycles; a fall-through exit has no branch and costs the
        // full schedule length (DESIGN.md §6).
        const double cycles =
            exit.op_index == ScheduledExit::kFallthrough
                ? static_cast<double>(sched.length)
                : static_cast<double>(exit.cycle + 1);
        // Never-taken exits contribute nothing, whatever cycle their
        // branch landed in.
        const double cost = exit.weight > 0.0 ? exit.weight * cycles
                                              : 0.0;
        if (auto r = support::remark(support::RemarkKind::ExitCost);
            r.live()) {
            r.block(exit.from).arg("root", sched.root);
            if (!exit.is_ret && exit.target != ir::kNoBlock)
                r.arg("target", exit.target);
            r.arg("ret", exit.is_ret ? 1 : 0)
                .arg("cycle", exit.cycle)
                .arg("weight", exit.weight)
                .arg("cycles", cycles)
                .arg("cost", cost);
        }
        time += cost;
    }
    return time;
}

} // namespace treegion::sched
