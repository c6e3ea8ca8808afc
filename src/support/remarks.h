/**
 * @file
 * Structured optimization remarks: typed "why" records for every
 * decision the pipeline makes — where treegion growth stopped, which
 * limit refused a tail duplication, which ops were speculated,
 * renamed or elided, how each exit's weighted height contributes to
 * the performance estimate.
 *
 * Remarks are the audit trail the aggregate traces and counters
 * cannot give: a "formation" span says formation took 40 us, a
 * remark says growth stopped at bb7 because it is a merge point.
 * Every bench deviation becomes a grep instead of a debugger session,
 * and two runs (heuristic A vs B, -j1 vs -j8) can be diffed decision
 * by decision (tools/treegion-report).
 *
 * Design:
 *
 *  - A Remark is a typed record: a RemarkKind (which implies its
 *    pass), the function, optional block/op ids, and an ordered list
 *    of integer/float/string arguments. It serializes to one JSON
 *    line with a stable schema and parses back losslessly.
 *
 *  - Collection is opt-in and thread-local. A RemarkScope installs a
 *    RemarkStream for the current thread; emission sites call
 *    remark(kind) and are inert (one thread-local load) when no
 *    stream is installed, so the fuzzer's hot loop pays nothing.
 *
 *  - A count-only stream keeps per-kind counts and builds no Remark:
 *    remark(kind) counts and returns an inert builder. The compile
 *    server uses one on every cache miss to feed its /stats
 *    counters; full streams are for --remarks output.
 *
 *  - Determinism: a stream is private to one pipeline run on one
 *    thread, so the remark sequence is a pure function of the input —
 *    the parallel driver collects one stream per job and returns
 *    them in input order, bit-identical to a sequential run for any
 *    worker count.
 */

#ifndef TREEGION_SUPPORT_REMARKS_H
#define TREEGION_SUPPORT_REMARKS_H

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "support/jsonl.h"

namespace treegion::support {

class MetricsRegistry;

/**
 * Every decision the pipeline explains. The kind implies the pass
 * (remarkPassName): formation, tail-dup, sched, or perf.
 */
enum class RemarkKind {
    // -- formation (treegion growth, paper Fig. 2)
    BlockAccepted,   ///< block absorbed into a region tree
    GrowthStopped,   ///< growth past an edge refused (merge/claimed)
    RegionFormed,    ///< a region was completed

    // -- tail duplication (paper Fig. 11)
    TailDuplicated,  ///< a sapling was cloned below an exit edge
    TailDupRefused,  ///< a sapling failed a limit check
    TailDupStopped,  ///< the expansion loop for a region ended

    // -- scheduling
    Renamed,         ///< a destination got a fresh compile-time name
    Speculated,      ///< an op issued above a branch it followed
    Elided,          ///< dominator parallelism removed a twin op
    ExitMerged,      ///< >1 predicated exit branches share a cycle
    TieBreak,        ///< priority tie resolved by lowering order

    // -- performance model
    ExitCost,        ///< one exit's weighted height contribution
};

/** All kinds, in declaration order (for tests and the checker). */
inline constexpr RemarkKind kAllRemarkKinds[] = {
    RemarkKind::BlockAccepted,  RemarkKind::GrowthStopped,
    RemarkKind::RegionFormed,   RemarkKind::TailDuplicated,
    RemarkKind::TailDupRefused, RemarkKind::TailDupStopped,
    RemarkKind::Renamed,        RemarkKind::Speculated,
    RemarkKind::Elided,         RemarkKind::ExitMerged,
    RemarkKind::TieBreak,       RemarkKind::ExitCost,
};

/** Number of remark kinds. */
inline constexpr size_t kNumRemarkKinds = std::size(kAllRemarkKinds);

/** @return the stable wire name, e.g. "tail-dup-refused". */
const char *remarkKindName(RemarkKind kind);

/** @return the pass a kind belongs to: "formation" / "tail-dup" /
 * "sched" / "perf". */
const char *remarkPassName(RemarkKind kind);

/** Parse a remarkKindName() token. @return false on error. */
bool parseRemarkKind(const std::string &name, RemarkKind &out);

/** One named argument of a remark (ordered; order is schema). */
using RemarkArg = JsonArg;

/** One structured decision record. */
struct Remark
{
    RemarkKind kind = RemarkKind::BlockAccepted;
    std::string function;   ///< function the decision concerns
    int64_t block = -1;     ///< block id the decision anchors to, -1 none
    int64_t op = -1;        ///< op id the decision anchors to, -1 none
    std::vector<RemarkArg> args;

    bool operator==(const Remark &other) const = default;

    /**
     * Serialize as one JSON object (no trailing newline), stable key
     * order: pass, kind, fn, then block/op when present, then args in
     * emission order. Floats use %.17g so the line round-trips
     * bit-exactly through parseRemarkJson.
     */
    std::string toJson() const;
};

/**
 * Parse one JSON line produced by Remark::toJson back into a Remark,
 * enforcing the schema on the strict flat-object reader
 * (support/jsonl.h): known "kind", "pass" matching the kind's pass,
 * "fn" present, "block"/"op" non-negative integers, "args" an object
 * of int/float/string values, no unknown or repeated top-level keys,
 * nothing after the closing brace. @return false and set @p error on
 * any violation.
 */
bool parseRemarkJson(const std::string &line, Remark &out,
                     std::string *error = nullptr);

/** Per-job collection of remarks, in emission order. */
class RemarkStream
{
  public:
    /** What a stream keeps of each emitted remark. */
    enum class Mode {
        Full,       ///< the Remark with its arguments, plus the count
        CountOnly,  ///< the per-kind count only; no Remark is built
    };

    RemarkStream() = default;
    explicit RemarkStream(Mode mode) : mode_(mode) {}

    /** @return true when only per-kind counts are kept. */
    bool countOnly() const { return mode_ == Mode::CountOnly; }

    /** Stamp @p name into subsequently emitted remarks that carry no
     * function of their own. */
    void setFunction(std::string name) { function_ = std::move(name); }

    /** Count one remark of @p kind without recording it. */
    void note(RemarkKind kind) { ++counts_[static_cast<size_t>(kind)]; }

    /** Append @p r (stamping the current function when empty). */
    void
    emit(Remark r)
    {
        note(r.kind);
        if (r.function.empty())
            r.function = function_;
        remarks_.push_back(std::move(r));
    }

    /** @return all remarks, in emission order (none when count-only). */
    const std::vector<Remark> &remarks() const { return remarks_; }

    /** @return number of collected Remark records (0 when
     * count-only; see total()). */
    size_t size() const { return remarks_.size(); }

    /** @return remarks of @p kind emitted so far, in either mode. */
    uint64_t
    count(RemarkKind kind) const
    {
        return counts_[static_cast<size_t>(kind)];
    }

    /** @return remarks of every kind emitted so far, in either mode. */
    uint64_t total() const;

    /** Serialize every remark as JSON lines (one per line, each
     * newline-terminated). */
    std::string toJsonLines() const;

    /**
     * Fold per-kind counts into @p metrics as "remarks_<kind>"
     * counters ('-' mapped to '_'; kinds never emitted are skipped)
     * plus a "remarks_total", so a long-lived service surfaces
     * decision mix on /stats.
     */
    void foldInto(MetricsRegistry &metrics) const;

    /** Drop everything (function stamp and counts included). */
    void
    clear()
    {
        function_.clear();
        remarks_.clear();
        counts_.fill(0);
    }

  private:
    Mode mode_ = Mode::Full;
    std::string function_;
    std::vector<Remark> remarks_;
    std::array<uint64_t, kNumRemarkKinds> counts_{};
};

/** @return the stream installed for this thread, or nullptr. */
RemarkStream *currentRemarkStream();

/** @return true when a stream is installed (cheap gate for emission
 * sites whose argument computation is not free). */
inline bool
remarksEnabled()
{
    return currentRemarkStream() != nullptr;
}

/**
 * RAII installation of @p stream as the current thread's remark
 * sink. Nests: the previous stream is restored on destruction.
 */
class RemarkScope
{
  public:
    explicit RemarkScope(RemarkStream *stream);
    ~RemarkScope();

    RemarkScope(const RemarkScope &) = delete;
    RemarkScope &operator=(const RemarkScope &) = delete;

  private:
    RemarkStream *prev_;
};

/**
 * Fluent emission: accumulates one Remark and hands it to the stream
 * on destruction. Inert (every method an early-out) when @p stream
 * is null or count-only; a count-only stream takes its count here.
 */
class RemarkBuilder
{
  public:
    RemarkBuilder(RemarkStream *stream, RemarkKind kind)
        : stream_(stream)
    {
        if (stream_ && stream_->countOnly()) {
            stream_->note(kind);
            stream_ = nullptr;
        }
        remark_.kind = kind;
    }

    ~RemarkBuilder()
    {
        if (stream_)
            stream_->emit(std::move(remark_));
    }

    RemarkBuilder(const RemarkBuilder &) = delete;
    RemarkBuilder &operator=(const RemarkBuilder &) = delete;

    /** @return true when arguments are recorded (a full stream is
     * installed); sites whose arguments cost work test this first. */
    bool live() const { return stream_ != nullptr; }

    /** Anchor to block @p id. */
    RemarkBuilder &
    block(int64_t id)
    {
        if (stream_)
            remark_.block = id;
        return *this;
    }

    /** Anchor to op @p id. */
    RemarkBuilder &
    op(int64_t id)
    {
        if (stream_)
            remark_.op = id;
        return *this;
    }

    /** Append an integer argument. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    RemarkBuilder &
    arg(const char *key, T value)
    {
        if (stream_)
            remark_.args.push_back(
                intArg(key, static_cast<int64_t>(value)));
        return *this;
    }

    /** Append a float argument. */
    RemarkBuilder &
    arg(const char *key, double value)
    {
        if (stream_)
            remark_.args.push_back(floatArg(key, value));
        return *this;
    }

    /** Append a string argument. */
    RemarkBuilder &
    arg(const char *key, std::string value)
    {
        if (stream_)
            remark_.args.push_back(strArg(key, std::move(value)));
        return *this;
    }

    /** Append a string argument (literal overload). */
    RemarkBuilder &
    arg(const char *key, const char *value)
    {
        return stream_ ? arg(key, std::string(value)) : *this;
    }

  private:
    RemarkStream *stream_;
    Remark remark_;
};

/** Open a remark of @p kind against the current thread's stream. */
inline RemarkBuilder
remark(RemarkKind kind)
{
    return RemarkBuilder(currentRemarkStream(), kind);
}

} // namespace treegion::support

#endif // TREEGION_SUPPORT_REMARKS_H
