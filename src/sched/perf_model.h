/**
 * @file
 * The paper's performance estimate.
 *
 * Program performance is "measured by using the profile count and
 * schedule height of each region": a path leaving a region through an
 * exit branch issued in cycle c (0-based) costs c + 1 cycles, so the
 * estimated execution time is the sum over all regions and exits of
 * exit weight x (exit cycle + 1). Branch prediction is perfect,
 * caches are ignored, and renaming copies are free.
 */

#ifndef TREEGION_SCHED_PERF_MODEL_H
#define TREEGION_SCHED_PERF_MODEL_H

#include "sched/schedule.h"

namespace treegion::sched {

/** Estimated cycles spent in one region schedule. */
double estimateRegionTime(const RegionSchedule &sched);

} // namespace treegion::sched

#endif // TREEGION_SCHED_PERF_MODEL_H
