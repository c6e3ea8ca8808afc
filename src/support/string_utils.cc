#include "support/string_utils.h"

#include <cstdarg>
#include <cstdio>

namespace treegion::support {

std::vector<std::string>
splitString(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t end = text.find(sep, start);
        if (end == std::string_view::npos)
            end = text.size();
        if (end > start)
            out.emplace_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

} // namespace treegion::support
