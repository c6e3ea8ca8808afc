/**
 * @file
 * perfbench: the treegion benchmark program.
 *
 *   perfbench --workload sweep|farm-cold|validate
 *             --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *
 * Prints one JSON object as the last line of standard output:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the run records spans around every public call it makes and reports
 * per-layer metrics instead (perfbench/run.py fills in the per-layer
 * metrics a workload does not exercise).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sweep|farm-cold|validate "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage(argv[0]);
            o.trace = value == "1";
        } else if (key == "--work-dir") {
            o.work_dir = value;
        } else {
            return usage(argv[0]);
        }
        if (end && *end != '\0')
            return usage(argv[0]);
    }
    if (argc % 2 != 1 || !(o.seconds > 0.0))
        return usage(argv[0]);

    Report report;
    if (o.workload == "sweep")
        runSweep(o, report);
    else if (o.workload == "farm-cold")
        runFarm(o, report);
    else if (o.workload == "validate")
        runValidate(o, report);
    else
        return usage(argv[0]);

    report.check(report.attempted() > 0, "no operation completed");
    std::printf("%s\n", report.json().c_str());
    return 0;
}
