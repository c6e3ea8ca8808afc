#include "support/remarks.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "support/logging.h"
#include "support/metrics.h"
#include "support/string_utils.h"
#include "support/trace.h"  // jsonEscape

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

namespace {

/**
 * Render a float so it round-trips bit-exactly through strtod AND
 * stays typed: integral values get a trailing ".0" so a reparse
 * yields a Float arg again, not an Int.
 */
std::string
floatText(double value)
{
    std::string text = strprintf("%.17g", value);
    if (text.find_first_of(".eE") == std::string::npos &&
        text.find_first_not_of("-0123456789") == std::string::npos)
        text += ".0";
    return text;
}

} // namespace

std::string
Remark::toJson() const
{
    std::ostringstream os;
    os << "{\"pass\":\"" << remarkPassName(kind) << "\",\"kind\":\""
       << remarkKindName(kind) << "\",\"fn\":\""
       << jsonEscape(function) << '"';
    if (block >= 0)
        os << ",\"block\":" << block;
    if (op >= 0)
        os << ",\"op\":" << op;
    if (!args.empty()) {
        os << ",\"args\":{";
        bool first = true;
        for (const RemarkArg &a : args) {
            os << (first ? "" : ",") << '"' << jsonEscape(a.key)
               << "\":";
            switch (a.type) {
              case RemarkArg::Type::Int:
                os << a.i;
                break;
              case RemarkArg::Type::Float:
                os << floatText(a.f);
                break;
              case RemarkArg::Type::Str:
                os << '"' << jsonEscape(a.s) << '"';
                break;
            }
            first = false;
        }
        os << '}';
    }
    os << '}';
    return os.str();
}

namespace {

/**
 * Minimal recursive-descent parser for the remark schema: one JSON
 * object of strings, integers, floats, and one nested flat "args"
 * object. Not a general JSON parser — exactly the subset
 * Remark::toJson emits, strictly validated.
 */
class RemarkParser
{
  public:
    RemarkParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(Remark &out)
    {
        skipWs();
        if (!expect('{'))
            return false;
        bool have_pass = false, have_kind = false, have_fn = false;
        std::string pass;
        bool first = true;
        for (;;) {
            skipWs();
            if (peek() == '}') {
                ++pos_;
                break;
            }
            if (!first && !expect(','))
                return false;
            first = false;
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            skipWs();
            if (key == "pass") {
                if (!parseString(pass))
                    return false;
                have_pass = true;
            } else if (key == "kind") {
                std::string name;
                if (!parseString(name))
                    return false;
                if (!parseRemarkKind(name, out.kind))
                    return fail("unknown kind '" + name + "'");
                have_kind = true;
            } else if (key == "fn") {
                if (!parseString(out.function))
                    return false;
                have_fn = true;
            } else if (key == "block" || key == "op") {
                RemarkArg num;
                if (!parseNumber(num))
                    return false;
                if (num.type != RemarkArg::Type::Int || num.i < 0)
                    return fail("'" + key +
                                "' must be a non-negative integer");
                (key == "block" ? out.block : out.op) = num.i;
            } else if (key == "args") {
                if (!parseArgs(out.args))
                    return false;
            } else {
                return fail("unknown field '" + key + "'");
            }
        }
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the remark object");
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

  private:
    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    fail(const std::string &why)
    {
        if (error_)
            *error_ = why;
        return false;
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return fail(strprintf("expected '%c' at offset %zu", c,
                                  pos_));
        ++pos_;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // jsonEscape only emits \u00xx control codes; encode
                // anything else as UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail(strprintf("bad escape '\\%c'", esc));
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(RemarkArg &out)
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool is_float = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_float = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("expected a number");
        const std::string token = text_.substr(start, pos_ - start);
        errno = 0;
        char *end = nullptr;
        if (is_float) {
            out.type = RemarkArg::Type::Float;
            out.f = std::strtod(token.c_str(), &end);
        } else {
            out.type = RemarkArg::Type::Int;
            out.i = std::strtoll(token.c_str(), &end, 10);
        }
        if (errno == ERANGE || end == nullptr || *end != '\0')
            return fail("bad number '" + token + "'");
        return true;
    }

    bool
    parseArgs(std::vector<RemarkArg> &out)
    {
        if (!expect('{'))
            return false;
        out.clear();
        bool first = true;
        for (;;) {
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            if (!first && !expect(','))
                return false;
            first = false;
            skipWs();
            RemarkArg a;
            if (!parseString(a.key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            skipWs();
            if (peek() == '"') {
                a.type = RemarkArg::Type::Str;
                if (!parseString(a.s))
                    return false;
            } else if (peek() == '{' || peek() == '[') {
                return fail("argument '" + a.key +
                            "' must be a scalar");
            } else {
                if (!parseNumber(a))
                    return false;
            }
            out.push_back(std::move(a));
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

bool
parseRemarkJson(const std::string &line, Remark &out,
                std::string *error)
{
    out = Remark{};
    return RemarkParser(line, error).run(out);
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
