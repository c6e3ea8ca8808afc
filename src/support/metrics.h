/**
 * @file
 * Named runtime metrics for long-lived processes (the compile
 * service): monotonic counters plus latency histograms, collected
 * from any number of threads and exported as one JSON object.
 *
 * This is deliberately simpler than SpanCollector: spans answer
 * "what happened when" for one run or request, metrics answer "how
 * is the process doing" over its whole lifetime. A registry is cheap enough
 * to update on every request (one mutex acquisition), and snapshots
 * are consistent — toJson() sees counters and histograms from the
 * same instant.
 */

#ifndef TREEGION_SUPPORT_METRICS_H
#define TREEGION_SUPPORT_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "support/stats.h"

namespace treegion::support {

/** Thread-safe named counters + histograms with JSON export. */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter @p name (created at 0 on first use). */
    void add(const std::string &name, uint64_t delta = 1);

    /** Set counter @p name to @p value (for gauges like cache bytes). */
    void set(const std::string &name, uint64_t value);

    /** @return counter @p name's value (0 when never touched). */
    uint64_t counter(const std::string &name) const;

    /** Record @p value into histogram @p name. */
    void observe(const std::string &name, double value);

    /** @return a copy of histogram @p name (empty when never touched). */
    Histogram histogram(const std::string &name) const;

    /** @return a consistent snapshot of all counters. */
    std::map<std::string, uint64_t> counters() const;

    /**
     * Render everything as one JSON object:
     * {"counters":{...},"histograms":{"name":{"count":...,"mean":...,
     * "min":...,"max":...,"p50":...,"p95":...,"p99":...}}}
     */
    std::string toJson() const;

    /** Drop all counters and histograms. */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace treegion::support

#endif // TREEGION_SUPPORT_METRICS_H
