#include "support/build_info.h"

#include <chrono>
#include <sstream>

#include "support/jsonl.h"

#ifndef TG_GIT_DESCRIBE
#define TG_GIT_DESCRIBE "unknown"
#endif
#ifndef TG_BUILD_TYPE
#define TG_BUILD_TYPE "unknown"
#endif

namespace treegion::support {

namespace {

std::chrono::steady_clock::time_point
processEpoch()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return epoch;
}

// Resolve the epoch during static initialization so uptime counts
// from (approximately) process start, not from the first /stats hit.
const bool g_epoch_primed = (processEpoch(), true);

} // namespace

const char *
buildGitDescribe()
{
    return TG_GIT_DESCRIBE;
}

const char *
buildType()
{
    return TG_BUILD_TYPE;
}

const char *
buildCompiler()
{
#ifdef __clang__
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return __VERSION__;
#endif
}

std::string
buildInfoJson()
{
    std::ostringstream os;
    os << "{\"git\":\"" << jsonEscape(buildGitDescribe())
       << "\",\"compiler\":\"" << jsonEscape(buildCompiler())
       << "\",\"build_type\":\"" << jsonEscape(buildType())
       << "\",\"span_schema\":\"treegion-span/v1\""
       << ",\"protocol\":\"treegion-req/1\"}";
    return os.str();
}

double
uptimeSeconds()
{
    (void)g_epoch_primed;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - processEpoch())
        .count();
}

} // namespace treegion::support
