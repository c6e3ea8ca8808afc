#include "support/spans.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <random>

#include <time.h>

#include "support/string_utils.h"

namespace treegion::support {

int64_t
epochUs()
{
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000 +
           ts.tv_nsec / 1000;
}

uint32_t
currentThreadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

namespace {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t &
idState()
{
    thread_local uint64_t state = [] {
        std::random_device rd;
        uint64_t seed = (static_cast<uint64_t>(rd()) << 32) ^ rd();
        seed ^= static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        seed ^= static_cast<uint64_t>(currentThreadId()) << 48;
        return seed;
    }();
    return state;
}

thread_local SpanContext t_ambient;

/** Parse exactly the 16 hex digits at @p p. */
bool
parseHex64(const char *p, uint64_t *out)
{
    const auto [end, ec] = std::from_chars(p, p + 16, *out, 16);
    return ec == std::errc() && end == p + 16;
}

} // namespace

uint64_t
mintSpanId()
{
    uint64_t id;
    do {
        id = splitmix64(idState());
    } while (id == 0);
    return id;
}

std::string
traceIdHex(uint64_t hi, uint64_t lo)
{
    return strprintf("%016" PRIx64 "%016" PRIx64, hi, lo);
}

std::string
spanIdHex(uint64_t id)
{
    return strprintf("%016" PRIx64, id);
}

bool
parseTraceIdHex(const std::string &hex, uint64_t *hi, uint64_t *lo)
{
    if (hex.size() != 32)
        return false;
    return parseHex64(hex.data(), hi) && parseHex64(hex.data() + 16, lo);
}

bool
parseSpanIdHex(const std::string &hex, uint64_t *id)
{
    if (hex.size() != 16)
        return false;
    return parseHex64(hex.data(), id);
}

SpanContext
currentSpanContext()
{
    return t_ambient;
}

SpanContextScope::SpanContextScope(const SpanContext &ctx)
    : prev_(t_ambient)
{
    t_ambient = ctx;
}

SpanContextScope::~SpanContextScope()
{
    t_ambient = prev_;
}

// ---- serialization -------------------------------------------------

std::string
TraceSpan::toJson() const
{
    std::string out = "{\"trace\":\"" + traceIdHex(trace_hi, trace_lo);
    out += "\",\"span\":\"" + spanIdHex(span);
    out += "\",\"parent\":\"";
    if (parent)
        out += spanIdHex(parent);
    out += "\",\"name\":\"" + jsonEscape(name);
    out += "\",\"svc\":\"" + jsonEscape(service);
    out += "\",\"tid\":" + std::to_string(tid);
    out += ",\"start_us\":" + std::to_string(start_us);
    out += ",\"dur_us\":" + std::to_string(dur_us);
    out += ",\"args\":";
    appendJsonArgs(out, args);
    out += '}';
    return out;
}

bool
parseSpanJson(const std::string &line, TraceSpan &out, std::string *error)
{
    out = TraceSpan{};
    FlatJson obj;
    if (!parseFlatJson(line, obj, error))
        return false;
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    // Fields 0-4 are strings, 5-7 integers; "args" is the object.
    static const char *const kFields[8] = {
        "trace", "span", "parent", "name",
        "svc",   "tid",  "start_us", "dur_us"};
    bool seen[8] = {};
    for (const SpanArg &field : obj.fields) {
        const int k = static_cast<int>(
            std::find(kFields, kFields + 8, field.key) - kFields);
        if (k == 8) {
            return fail(field.key == "args"
                            ? "'args' must be an object"
                            : "unknown field '" + field.key + "'");
        }
        seen[k] = true;
        if (k < 5 && field.type != SpanArg::Type::Str)
            return fail("'" + field.key + "' must be a string");
        if (k >= 5 && field.type != SpanArg::Type::Int)
            return fail("'" + field.key + "' must be an integer");
        const std::string &text = field.s;
        switch (k) {
          case 0:
            if (!parseTraceIdHex(text, &out.trace_hi, &out.trace_lo))
                return fail("'trace' must be 32 hex digits");
            if ((out.trace_hi | out.trace_lo) == 0)
                return fail("'trace' must be non-zero");
            break;
          case 1:
            if (!parseSpanIdHex(text, &out.span))
                return fail("'span' must be 16 hex digits");
            if (out.span == 0)
                return fail("'span' must be non-zero");
            break;
          case 2:
            if (!text.empty() && !parseSpanIdHex(text, &out.parent))
                return fail("'parent' must be 16 hex digits or \"\"");
            break;
          case 3:
            out.name = text;
            break;
          case 4:
            out.service = text;
            break;
          case 5:
            if (field.i < 0 || field.i > UINT32_MAX)
                return fail("'tid' must be a non-negative 32-bit "
                            "integer");
            out.tid = static_cast<uint32_t>(field.i);
            break;
          case 6:
            out.start_us = field.i;
            break;
          default:
            out.dur_us = field.i;
            break;
        }
    }
    for (int k = 0; k < 8; ++k) {
        if (!seen[k])
            return fail(std::string("missing required field '") +
                        kFields[k] + "'");
    }
    if (!obj.has_object)
        return fail("missing required field 'args'");
    if (obj.object_key != "args")
        return fail("'" + obj.object_key + "' must be a scalar");
    out.args = std::move(obj.object);
    return true;
}

std::string
chromeTraceJson(const std::vector<TraceSpan> &spans)
{
    // One Chrome "process" per service, so each replica and each
    // client gets its own swimlane group in the viewer.
    std::map<std::string, int> pids;
    for (const TraceSpan &s : spans)
        pids.emplace(s.service, static_cast<int>(pids.size()) + 1);
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto &[svc, pid] : pids) {
        out += first ? "\n" : ",\n";
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
               std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
               jsonEscape(svc) + "\"}}";
        first = false;
    }
    for (const TraceSpan &s : spans) {
        out += first ? "\n" : ",\n";
        out += "{\"name\":\"" + jsonEscape(s.name) +
               "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" +
               std::to_string(s.start_us) +
               ",\"dur\":" + std::to_string(s.dur_us) +
               ",\"pid\":" + std::to_string(pids[s.service]) +
               ",\"tid\":" + std::to_string(s.tid) + ",\"args\":";
        std::vector<SpanArg> args = {
            strArg("trace", traceIdHex(s.trace_hi, s.trace_lo)),
            strArg("span", spanIdHex(s.span))};
        args.insert(args.end(), s.args.begin(), s.args.end());
        appendJsonArgs(out, args);
        out += '}';
        first = false;
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceSpan> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = chromeTraceJson(spans);
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                    json.size();
    return std::fclose(f) == 0 && ok;
}

// ---- collector -----------------------------------------------------

namespace {
/** Buffer cap: always-on tracing must stay bounded even when nobody
 * drains (a misconfigured daemon, the in-memory bench). The last
 * kRootHeadroom slots take root spans only: a root closes after its
 * children (a fuzz campaign after every cell), so without them a
 * full buffer would always drop it. */
constexpr size_t kMaxBufferedSpans = 65536;
constexpr size_t kRootHeadroom = 64;
} // namespace

SpanCollector &
SpanCollector::instance()
{
    static SpanCollector collector;
    return collector;
}

void
SpanCollector::configure(double sample_rate)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (sample_rate < 0.0)
            sample_rate = 0.0;
        if (sample_rate > 1.0)
            sample_rate = 1.0;
        sample_rate_ = sample_rate;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
SpanCollector::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

bool
SpanCollector::sampleNewTrace()
{
    double rate;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rate = sample_rate_;
    }
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0)
        return false;
    // 53 uniform mantissa bits from the id generator; no extra state.
    const double u =
        static_cast<double>(mintSpanId() >> 11) * 0x1.0p-53;
    return u < rate;
}

void
SpanCollector::setService(std::string service)
{
    std::lock_guard<std::mutex> lock(mutex_);
    service_ = std::move(service);
}

std::string
SpanCollector::service() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return service_;
}

void
SpanCollector::record(TraceSpan s)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t cap = s.parent == 0 ? kMaxBufferedSpans
                                     : kMaxBufferedSpans - kRootHeadroom;
    if (spans_.size() >= cap) {
        ++dropped_;
        return;
    }
    spans_.push_back(std::move(s));
}

std::vector<TraceSpan>
SpanCollector::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

uint64_t
SpanCollector::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

size_t
SpanCollector::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanCollector::writeJsonl(const std::string &path, bool append)
{
    std::vector<TraceSpan> spans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans.swap(spans_);
    }
    FILE *f = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Put the spans back so a later flush can still succeed.
        spans.insert(spans.end(),
                     std::make_move_iterator(spans_.begin()),
                     std::make_move_iterator(spans_.end()));
        spans_.swap(spans);
        return false;
    }
    for (const TraceSpan &s : spans) {
        const std::string line = s.toJson();
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
    return true;
}

void
SpanCollector::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    dropped_ = 0;
}

// ---- scopes --------------------------------------------------------

namespace {

/** Record [@p start_us, @p end_us] as span ctx.span of ctx's trace,
 * a child of @p parent (0 for a root). */
void
recordSpan(const SpanContext &ctx, uint64_t parent, const char *name,
           int64_t start_us, int64_t end_us, std::vector<SpanArg> args)
{
    SpanCollector &collector = SpanCollector::instance();
    collector.record(
        {.trace_hi = ctx.trace_hi,
         .trace_lo = ctx.trace_lo,
         .span = ctx.span,
         .parent = parent,
         .name = name,
         .service = ctx.service ? ctx.service : collector.service(),
         .tid = currentThreadId(),
         .start_us = start_us,
         .dur_us = std::max<int64_t>(end_us - start_us, 0),
         .args = std::move(args)});
}

} // namespace

SpanScope::SpanScope(const char *name, Root root,
                     const char *service)
    : name_(name)
{
    const SpanContext &ambient = t_ambient;
    SpanCollector &collector = SpanCollector::instance();
    if (ambient.valid()) {
        if (!ambient.sampled || !collector.enabled())
            return;
        ctx_ = ambient;
        parent_ = ambient.span;
    } else {
        if (root != Root::IfEnabled || !collector.enabled())
            return;
        ctx_.trace_hi = mintSpanId();
        ctx_.trace_lo = mintSpanId();
        ctx_.sampled = collector.sampleNewTrace();
        if (!ctx_.sampled)
            return;
        parent_ = 0;
    }
    if (service)
        ctx_.service = service;
    ctx_.span = mintSpanId();
    live_ = true;
    start_us_ = epochUs();
    saved_ = t_ambient;
    t_ambient = ctx_;
    installed_ = true;
}

SpanScope::~SpanScope()
{
    if (installed_)
        t_ambient = saved_;
    finish();
}

void
SpanScope::finish()
{
    if (!live_)
        return;
    live_ = false;
    recordSpan(ctx_, parent_, name_, start_us_, epochUs(),
               std::move(args_));
}

SpanScope &
SpanScope::arg(const char *key, std::string value)
{
    if (live_)
        args_.push_back(strArg(key, std::move(value)));
    return *this;
}

SpanScope &
SpanScope::arg(const char *key, int64_t value)
{
    if (live_)
        args_.push_back(intArg(key, value));
    return *this;
}

SpanScope &
SpanScope::arg(const char *key, double value)
{
    if (live_)
        args_.push_back(floatArg(key, value));
    return *this;
}

void
noteSpan(const SpanContext &parent, const char *name,
         int64_t start_us, int64_t end_us, std::vector<SpanArg> args)
{
    if (!parent.valid() || !parent.sampled ||
        !SpanCollector::instance().enabled())
        return;
    SpanContext ctx = parent;
    ctx.span = mintSpanId();
    recordSpan(ctx, parent.span, name, start_us, end_us, std::move(args));
}

} // namespace treegion::support
