/**
 * @file
 * The one JSON codec behind the repo's line-oriented telemetry: the
 * remark stream (support/remarks.h), the span stream
 * (support/spans.h), the Chrome trace exporter, /stats and the
 * build-info block.
 *
 * Writing: jsonEscape is the only string escaper, and appendJsonArgs
 * the only writer of a typed argument object; it prints floats with
 * %.17g, so they round-trip bit-exactly, and keeps a ".0" on integral
 * values so a reparse yields a float again.
 *
 * Reading: parseFlatJson is a strict reader for exactly the shape
 * those writers emit — one object of string, integer and float
 * members, each top-level key at most once, at most one member whose
 * value is a nested object of scalars, and nothing but whitespace
 * after the closing brace. Each schema (remarks, spans) checks its
 * own fields on the result; the reader owns the syntax.
 */

#ifndef TREEGION_SUPPORT_JSONL_H
#define TREEGION_SUPPORT_JSONL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace treegion::support {

/**
 * Escape @p s for inclusion inside a JSON string literal (quotes,
 * backslashes, control characters).
 */
std::string jsonEscape(std::string_view s);

/** One named scalar argument (ordered; order is schema). */
struct JsonArg
{
    enum class Type { Int, Float, Str };

    std::string key;
    Type type = Type::Int;
    int64_t i = 0;
    double f = 0.0;
    std::string s;

    bool operator==(const JsonArg &other) const = default;
};

/** @return an integer argument named @p key. */
JsonArg intArg(std::string key, int64_t value);

/** @return a float argument named @p key. */
JsonArg floatArg(std::string key, double value);

/** @return a string argument named @p key. */
JsonArg strArg(std::string key, std::string value);

/** Append @p args to @p out as one JSON object, in order. */
void appendJsonArgs(std::string &out, const std::vector<JsonArg> &args);

/**
 * What parseFlatJson read: the top-level scalar members in input
 * order and, when one member's value was an object, that member's
 * key and its scalar members in input order.
 */
struct FlatJson
{
    std::vector<JsonArg> fields;
    bool has_object = false;
    std::string object_key;
    std::vector<JsonArg> object;
};

/**
 * Parse @p text as one flat JSON object (see the file comment).
 * Numbers with a '.', 'e', 'E' or an inner sign are floats, the rest
 * integers. @return false and set @p error on any violation.
 */
bool parseFlatJson(std::string_view text, FlatJson &out,
                   std::string *error);

} // namespace treegion::support

#endif // TREEGION_SUPPORT_JSONL_H
