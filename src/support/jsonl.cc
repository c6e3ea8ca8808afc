#include "support/jsonl.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "support/string_utils.h"

namespace treegion::support {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"') {
            out += "\\\"";
        } else if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c == '\t') {
            out += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

JsonArg
intArg(std::string key, int64_t value)
{
    return {std::move(key), JsonArg::Type::Int, value, 0.0, {}};
}

JsonArg
floatArg(std::string key, double value)
{
    return {std::move(key), JsonArg::Type::Float, 0, value, {}};
}

JsonArg
strArg(std::string key, std::string value)
{
    return {std::move(key), JsonArg::Type::Str, 0, 0.0, std::move(value)};
}

namespace {

/** %.17g, with ".0" appended to an integral value. */
std::string
jsonFloat(double value)
{
    std::string text = strprintf("%.17g", value);
    if (text.find_first_of(".eE") == std::string::npos &&
        text.find_first_not_of("-0123456789") == std::string::npos)
        text += ".0";
    return text;
}

} // namespace

void
appendJsonArgs(std::string &out, const std::vector<JsonArg> &args)
{
    out += '{';
    for (size_t k = 0; k < args.size(); ++k) {
        const JsonArg &a = args[k];
        out += k == 0 ? "\"" : ",\"";
        out += jsonEscape(a.key);
        out += "\":";
        if (a.type == JsonArg::Type::Int) {
            out += std::to_string(a.i);
        } else if (a.type == JsonArg::Type::Float) {
            out += jsonFloat(a.f);
        } else {
            out += '"';
            out += jsonEscape(a.s);
            out += '"';
        }
    }
    out += '}';
}

namespace {

/** The single-character escapes a JSON string may use, and what
 * each stands for. */
constexpr std::string_view kEscapeFrom = "\"\\/bfnrt";
constexpr std::string_view kEscapeTo = "\"\\/\b\f\n\r\t";

/** Recursive descent over exactly the FlatJson subset of JSON. */
class FlatReader
{
  public:
    FlatReader(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(FlatJson &out)
    {
        const auto member = [&](JsonArg &a) {
            if (seen(out, a.key))
                return fail("duplicate field '" + a.key + "'");
            if (peek() != '{')
                return parseScalarInto(a, out.fields);
            if (out.has_object) {
                return fail("more than one nested object ('" +
                            out.object_key + "', '" + a.key + "')");
            }
            out.has_object = true;
            out.object_key = a.key;
            return parseMembers([&](JsonArg &arg) {
                return parseScalarInto(arg, out.object);
            });
        };
        if (!parseMembers(member))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the object");
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
        skipWs();
        if (peek() != c)
            return fail(strprintf("expected '%c' at offset %zu", c, pos_));
        ++pos_;
        return true;
    }

    static bool
    seen(const FlatJson &out, const std::string &key)
    {
        if (out.has_object && out.object_key == key)
            return true;
        for (const JsonArg &f : out.fields) {
            if (f.key == key)
                return true;
        }
        return false;
    }

    /**
     * Parse one object, handing each member to @p member with its key
     * read and the position at its value; @p member parses the value.
     */
    template <typename Member>
    bool
    parseMembers(Member member)
    {
        if (!expect('{'))
            return false;
        for (bool first = true;; first = false) {
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            JsonArg a;
            if ((!first && !expect(',')) || !expect('"') ||
                !parseStringBody(a.key) || !expect(':'))
                return false;
            skipWs();
            if (!member(a))
                return false;
        }
    }

    /** Parse a string or number value into @p a, append it to @p out. */
    bool
    parseScalarInto(JsonArg &a, std::vector<JsonArg> &out)
    {
        if (peek() == '{' || peek() == '[')
            return fail("'" + a.key + "' must be a scalar");
        if (peek() == '"') {
            a.type = JsonArg::Type::Str;
            if (!expect('"') || !parseStringBody(a.s))
                return false;
        } else if (!parseNumber(a)) {
            return false;
        }
        out.push_back(std::move(a));
        return true;
    }

    /** Parse a \u escape's four hex digits and append it as UTF-8. */
    bool
    parseUnicodeEscape(std::string &out)
    {
        const char *digits = text_.data() + pos_;
        const size_t n = std::min<size_t>(4, text_.size() - pos_);
        unsigned code = 0;
        const auto [end, ec] =
            std::from_chars(digits, digits + n, code, 16);
        if (ec != std::errc() || end != digits + 4)
            return fail("bad \\u escape");
        pos_ += 4;
        // jsonEscape only emits \u00xx control codes; anything else
        // is encoded as UTF-8 for completeness.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
        return true;
    }

    /** Parse the rest of a string whose opening quote was read. */
    bool
    parseStringBody(std::string &out)
    {
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
            if (esc == 'u') {
                if (!parseUnicodeEscape(out))
                    return false;
                continue;
            }
            const size_t at = kEscapeFrom.find(esc);
            if (at == std::string_view::npos)
                return fail(strprintf("bad escape '\\%c'", esc));
            out += kEscapeTo[at];
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonArg &out)
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
        const std::string token(text_.substr(start, pos_ - start));
        errno = 0;
        char *end = nullptr;
        if (is_float) {
            out.type = JsonArg::Type::Float;
            out.f = std::strtod(token.c_str(), &end);
        } else {
            out.type = JsonArg::Type::Int;
            out.i = std::strtoll(token.c_str(), &end, 10);
        }
        if (errno == ERANGE || end == nullptr || *end != '\0')
            return fail("bad number '" + token + "'");
        return true;
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

bool
parseFlatJson(std::string_view text, FlatJson &out, std::string *error)
{
    out = FlatJson{};
    return FlatReader(text, error).run(out);
}

} // namespace treegion::support
