/**
 * @file
 * Request-scoped distributed tracing: 128-bit trace contexts that
 * cross process boundaries, wall-clock spans that nest into one tree
 * per request, and a process-wide collector that serializes them as
 * schema-stable JSONL (`treegion-span/v1`).
 *
 * Spans are the one interval recorder. A span answers "where did
 * *this request* spend its time across the whole farm": the client
 * mints a trace id, forwards it as `trace-id`/`parent-span` protocol
 * headers, every replica that touches the request (queue, memory
 * gate, cache, compile stages, peer fill, response write) records
 * children of the client's span, and `treegion-report --trace-merge`
 * reassembles the files from all parties into one tree per request.
 * The same scopes time a local run: `treegionc --trace-json` roots a
 * trace around the run, every pipeline stage below it records a
 * child, and writeChromeTraceFile renders the buffer for
 * chrome://tracing.
 *
 * Design, mirroring support/remarks.h:
 *
 *  - A TraceSpan serializes to one JSON line with a fixed key order and
 *    parses back losslessly through the strict flat-object reader of
 *    support/jsonl.h, which rejects repeated keys and trailing bytes;
 *    the span schema adds unknown and missing fields — the span
 *    stream is a wire format, not debug output.
 *
 *  - Propagation is ambient and thread-local. A SpanContextScope
 *    installs the incoming request's context for the current thread;
 *    every SpanScope below it (the pipeline's stage scopes included)
 *    becomes a child automatically. With no ambient context and the
 *    collector disabled, a SpanScope is inert: one thread-local read,
 *    one relaxed atomic load, zero allocation — the zero-allocation
 *    steady-state pin covers this path.
 *
 *  - Sampling is decided once, at the root: an unsampled trace
 *    propagates nothing and records nothing downstream. Timestamps
 *    are wall-clock microseconds (CLOCK_REALTIME) so files from
 *    different hosts can be aligned by the ping-based clock sync.
 */

#ifndef TREEGION_SUPPORT_SPANS_H
#define TREEGION_SUPPORT_SPANS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/jsonl.h"

namespace treegion::support {

/** Current wall-clock time in microseconds since the Unix epoch. */
int64_t epochUs();

/** Stable small id of the calling thread (assigned on first use). */
uint32_t currentThreadId();

/** @return a fresh non-zero 64-bit id (thread-local splitmix64
 * seeded from the system entropy source). */
uint64_t mintSpanId();

/** Render @p hi:@p lo as 32 lowercase hex digits (the `trace-id`
 * wire form). */
std::string traceIdHex(uint64_t hi, uint64_t lo);

/** Render @p id as 16 lowercase hex digits (the `parent-span` wire
 * form). */
std::string spanIdHex(uint64_t id);

/** Parse the 32-hex-digit traceIdHex form. @return false unless
 * @p hex is exactly 32 hex digits. */
bool parseTraceIdHex(const std::string &hex, uint64_t *hi,
                     uint64_t *lo);

/** Parse the 16-hex-digit spanIdHex form. @return false unless
 * @p hex is exactly 16 hex digits. */
bool parseSpanIdHex(const std::string &hex, uint64_t *id);

/**
 * The propagated half of a trace: which trace a piece of work
 * belongs to, which span is its parent, and whether the root decided
 * to sample it. `service` names the party recording (stable storage
 * owned by the installer — a server's self-address or a client tool
 * name); null falls back to the collector's default service.
 */
struct SpanContext
{
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span = 0;
    bool sampled = false;
    const char *service = nullptr;

    bool
    valid() const
    {
        return (trace_hi | trace_lo) != 0 && span != 0;
    }
};

/** @return the context installed for this thread (invalid when
 * none). */
SpanContext currentSpanContext();

/**
 * RAII installation of @p ctx as the current thread's ambient trace
 * context. Nests: the previous context is restored on destruction.
 */
class SpanContextScope
{
  public:
    explicit SpanContextScope(const SpanContext &ctx);
    ~SpanContextScope();

    SpanContextScope(const SpanContextScope &) = delete;
    SpanContextScope &operator=(const SpanContextScope &) = delete;

  private:
    SpanContext prev_;
};

/** One named argument of a span (ordered; order is schema). */
using SpanArg = JsonArg;

/** One completed span: a named interval inside one trace. */
struct TraceSpan
{
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span = 0;
    uint64_t parent = 0;    ///< 0 = root of its trace
    std::string name;
    std::string service;
    uint32_t tid = 0;
    int64_t start_us = 0;   ///< wall clock (epochUs)
    int64_t dur_us = 0;
    std::vector<SpanArg> args;

    bool operator==(const TraceSpan &other) const = default;

    /**
     * Serialize as one JSON object (no trailing newline), stable key
     * order: trace, span, parent ("" for roots), name, svc, tid,
     * start_us, dur_us, args. Floats use %.17g so the line
     * round-trips bit-exactly through parseSpanJson.
     */
    std::string toJson() const;
};

/**
 * Parse one JSON line produced by TraceSpan::toJson back into a TraceSpan,
 * enforcing the schema: "trace" 32 hex digits, "span"/"parent" 16
 * hex digits (parent may be ""), "name"/"svc" strings, "tid"/
 * "start_us"/"dur_us" integers, "args" an object of int/float/string
 * values, every field present exactly once, no unknown keys, nothing
 * after the closing brace. @return false and set @p error on any
 * violation.
 */
bool parseSpanJson(const std::string &line, TraceSpan &out,
                   std::string *error = nullptr);

/**
 * Render @p spans as one Chrome trace in the JSON object format
 * (`{"traceEvents":[...],"displayTimeUnit":"ms"}`, loadable in
 * chrome://tracing or https://ui.perfetto.dev): one process per
 * service, named by a metadata event, and one complete ("X") event
 * per span whose args are the span's trace and span ids followed by
 * its own args.
 */
std::string chromeTraceJson(const std::vector<TraceSpan> &spans);

/** Write chromeTraceJson(@p spans) to @p path. @return false on I/O
 * failure. */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceSpan> &spans);

/**
 * Process-wide sink for completed spans. Off by default; while off,
 * recording sites are inert. On, spans buffer in memory (bounded —
 * overflow increments dropped()) until written as JSONL.
 */
class SpanCollector
{
  public:
    static SpanCollector &instance();

    /**
     * Enable collection with sampling rate @p sample_rate in [0, 1]
     * (the probability a freshly minted root trace is sampled;
     * propagated contexts keep their root's decision).
     */
    void configure(double sample_rate);

    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Roll the sampling decision for a new root trace. */
    bool sampleNewTrace();

    /** Default `svc` stamp for contexts that carry none. */
    void setService(std::string service);
    std::string service() const;

    /** Append @p s (dropped beyond the buffer cap, which keeps its
     * last slots for root spans). */
    void record(TraceSpan s);

    /** @return a copy of the buffered spans, in record order. */
    std::vector<TraceSpan> snapshot() const;

    /** @return spans dropped at the buffer cap since clear(). */
    uint64_t dropped() const;

    /** @return buffered span count. */
    size_t size() const;

    /**
     * Write the buffered spans as JSON lines to @p path (append or
     * truncate) and drop them from the buffer. @return false when
     * the file cannot be written (buffer is kept).
     */
    bool writeJsonl(const std::string &path, bool append = false);

    /** Drop buffered spans and the drop counter. */
    void clear();

  private:
    SpanCollector() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    double sample_rate_ = 1.0;
    std::string service_ = "treegion";
    std::vector<TraceSpan> spans_;
    uint64_t dropped_ = 0;
};

/**
 * RAII span covering its own lifetime. Three behaviours, decided at
 * construction:
 *
 *  - the ambient context is sampled: live, a child of the ambient
 *    span; installs itself as the ambient context so nested scopes
 *    chain.
 *  - no usable ambient context, Root::IfEnabled, collector enabled:
 *    mints a fresh trace (sampled per the collector's rate).
 *  - otherwise inert: no clock read, no allocation.
 */
class SpanScope
{
  public:
    enum class Root {
        No,        ///< child-only: inert without a sampled ambient
        IfEnabled, ///< mint a new trace when there is no ambient
    };

    /** @p service, when given, overrides the recording service name
     * for this span and everything nested under it (used by servers
     * to stamp their self-address on in-process shared collectors). */
    explicit SpanScope(const char *name, Root root = Root::No,
                       const char *service = nullptr);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    bool live() const { return live_; }

    /** The context naming this span as parent (for propagation). */
    const SpanContext &context() const { return ctx_; }

    /**
     * Record the span now instead of at scope exit (idempotent; the
     * destructor then only restores the ambient context). Lets a
     * server close its "request" span before handing the response to
     * another thread, so the recorded interval does not stretch over
     * the lambda's teardown. context() stays valid afterwards.
     */
    void finish();

    SpanScope &arg(const char *key, std::string value);
    SpanScope &arg(const char *key, int64_t value);
    SpanScope &arg(const char *key, double value);

  private:
    bool live_ = false;
    bool installed_ = false;
    const char *name_;
    SpanContext ctx_;       ///< this span as the parent of children
    uint64_t parent_ = 0;
    int64_t start_us_ = 0;
    std::vector<SpanArg> args_;
    SpanContext saved_;
};

/**
 * Record an already-elapsed interval [@p start_us, @p end_us] as a
 * completed child of @p parent (queue waits and write latencies are
 * measured before any scope can exist). Inert unless @p parent is
 * sampled and the collector is enabled.
 */
void noteSpan(const SpanContext &parent, const char *name,
              int64_t start_us, int64_t end_us,
              std::vector<SpanArg> args = {});

} // namespace treegion::support

#endif // TREEGION_SUPPORT_SPANS_H
