#include "support/remarks.h"

#include <algorithm>

#include "support/logging.h"
#include "support/metrics.h"

namespace treegion::support {

const char *
remarkKindName(RemarkKind kind)
{
    switch (kind) {
      case RemarkKind::BlockAccepted: return "block-accepted";
      case RemarkKind::GrowthStopped: return "growth-stopped";
      case RemarkKind::RegionFormed: return "region-formed";
      case RemarkKind::TailDuplicated: return "tail-duplicated";
      case RemarkKind::TailDupRefused: return "tail-dup-refused";
      case RemarkKind::TailDupStopped: return "tail-dup-stopped";
      case RemarkKind::Renamed: return "renamed";
      case RemarkKind::Speculated: return "speculated";
      case RemarkKind::Elided: return "elided";
      case RemarkKind::ExitMerged: return "exit-merged";
      case RemarkKind::TieBreak: return "tie-break";
      case RemarkKind::ExitCost: return "exit-cost";
    }
    TG_PANIC("bad RemarkKind");
}

const char *
remarkPassName(RemarkKind kind)
{
    switch (kind) {
      case RemarkKind::BlockAccepted:
      case RemarkKind::GrowthStopped:
      case RemarkKind::RegionFormed:
        return "formation";
      case RemarkKind::TailDuplicated:
      case RemarkKind::TailDupRefused:
      case RemarkKind::TailDupStopped:
        return "tail-dup";
      case RemarkKind::Renamed:
      case RemarkKind::Speculated:
      case RemarkKind::Elided:
      case RemarkKind::ExitMerged:
      case RemarkKind::TieBreak:
        return "sched";
      case RemarkKind::ExitCost:
        return "perf";
    }
    TG_PANIC("bad RemarkKind");
}

bool
parseRemarkKind(const std::string &name, RemarkKind &out)
{
    for (const RemarkKind kind : kAllRemarkKinds) {
        if (name == remarkKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
Remark::toJson() const
{
    std::string out = std::string("{\"pass\":\"") + remarkPassName(kind) +
                      "\",\"kind\":\"" + remarkKindName(kind) +
                      "\",\"fn\":\"" + jsonEscape(function) + '"';
    if (block >= 0)
        out += ",\"block\":" + std::to_string(block);
    if (op >= 0)
        out += ",\"op\":" + std::to_string(op);
    if (!args.empty()) {
        out += ",\"args\":";
        appendJsonArgs(out, args);
    }
    out += '}';
    return out;
}

bool
parseRemarkJson(const std::string &line, Remark &out,
                std::string *error)
{
    out = Remark{};
    FlatJson obj;
    if (!parseFlatJson(line, obj, error))
        return false;
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    if (obj.has_object) {
        if (obj.object_key != "args")
            return fail("'" + obj.object_key + "' must be a scalar");
        out.args = std::move(obj.object);
    }
    std::string pass;
    bool have_pass = false, have_kind = false, have_fn = false;
    for (const RemarkArg &field : obj.fields) {
        const std::string &key = field.key;
        if (key == "pass" || key == "kind" || key == "fn") {
            if (field.type != RemarkArg::Type::Str)
                return fail("'" + key + "' must be a string");
            if (key == "pass") {
                pass = field.s;
                have_pass = true;
            } else if (key == "kind") {
                if (!parseRemarkKind(field.s, out.kind))
                    return fail("unknown kind '" + field.s + "'");
                have_kind = true;
            } else {
                out.function = field.s;
                have_fn = true;
            }
        } else if (key == "block" || key == "op") {
            if (field.type != RemarkArg::Type::Int || field.i < 0)
                return fail("'" + key +
                            "' must be a non-negative integer");
            (key == "block" ? out.block : out.op) = field.i;
        } else {
            return fail(key == "args" ? "'args' must be an object"
                                      : "unknown field '" + key + "'");
        }
    }
    if (!have_pass)
        return fail("missing required field 'pass'");
    if (!have_kind)
        return fail("missing required field 'kind'");
    if (!have_fn)
        return fail("missing required field 'fn'");
    if (pass != remarkPassName(out.kind)) {
        return fail("pass '" + pass + "' does not match kind '" +
                    remarkKindName(out.kind) + "' (expected '" +
                    remarkPassName(out.kind) + "')");
    }
    return true;
}

std::string
RemarkStream::toJsonLines() const
{
    std::string out;
    for (const Remark &r : remarks_) {
        out += r.toJson();
        out += '\n';
    }
    return out;
}

uint64_t
RemarkStream::total() const
{
    uint64_t sum = 0;
    for (const uint64_t n : counts_)
        sum += n;
    return sum;
}

void
RemarkStream::foldInto(MetricsRegistry &metrics) const
{
    static const std::array<std::string, kNumRemarkKinds> names = [] {
        std::array<std::string, kNumRemarkKinds> out;
        for (const RemarkKind kind : kAllRemarkKinds) {
            std::string &name = out[static_cast<size_t>(kind)];
            name = std::string("remarks_") + remarkKindName(kind);
            std::replace(name.begin(), name.end(), '-', '_');
        }
        return out;
    }();
    for (const RemarkKind kind : kAllRemarkKinds) {
        if (const uint64_t n = count(kind))
            metrics.add(names[static_cast<size_t>(kind)], n);
    }
    metrics.add("remarks_total", total());
}

namespace {

thread_local RemarkStream *t_current_stream = nullptr;

} // namespace

RemarkStream *
currentRemarkStream()
{
    return t_current_stream;
}

RemarkScope::RemarkScope(RemarkStream *stream) : prev_(t_current_stream)
{
    t_current_stream = stream;
}

RemarkScope::~RemarkScope()
{
    t_current_stream = prev_;
}

} // namespace treegion::support
