#include "support/metrics.h"

#include <sstream>

#include "support/jsonl.h"
#include "support/string_utils.h"

namespace treegion::support {

void
MetricsRegistry::add(const std::string &name, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, uint64_t value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = value;
}

uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[name].add(value);
}

Histogram
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram{} : it->second;
}

std::map<std::string, uint64_t>
MetricsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":"
           << h.toJson();
        first = false;
    }
    os << "}}";
    return os.str();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    histograms_.clear();
}

} // namespace treegion::support
