/**
 * @file
 * String helpers shared by the IR printer/parser and bench output.
 */

#ifndef TREEGION_SUPPORT_STRING_UTILS_H
#define TREEGION_SUPPORT_STRING_UTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace treegion::support {

/** Split @p text on @p sep, dropping empty pieces. */
std::vector<std::string> splitString(std::string_view text, char sep);

/** Strip leading and trailing spaces, tabs, CRs and LFs (inline: the
 * IR parser calls it on every line). */
inline std::string_view
trim(std::string_view text)
{
    const auto space = [](char c) {
        return c == ' ' || c == '\t' || c == '\r' || c == '\n';
    };
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && space(text[begin]))
        ++begin;
    while (end > begin && space(text[end - 1]))
        --end;
    return text.substr(begin, end - begin);
}

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace treegion::support

#endif // TREEGION_SUPPORT_STRING_UTILS_H
