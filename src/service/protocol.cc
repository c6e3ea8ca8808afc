#include "service/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "support/string_utils.h"

namespace treegion::service {

namespace {

constexpr const char *kRequestMagic = "treegion-req/1";
constexpr const char *kResponseMagic = "treegion-resp/1";

/** Read exactly @p len bytes; false on EOF/error (EINTR retried). */
bool
readAll(int fd, char *buf, size_t len)
{
    size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, buf + got, len - got);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        got += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Write exactly @p len bytes; false on error (EINTR retried).
 * MSG_NOSIGNAL: a peer that disconnected mid-response must surface
 * as EPIPE here, not kill an in-process server with SIGPIPE.
 */
bool
writeAll(int fd, const char *buf, size_t len)
{
    size_t put = 0;
    while (put < len) {
        const ssize_t n =
            ::send(fd, buf + put, len - put, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        put += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Split a payload into header lines and body at the first blank
 * line; verifies the magic first line.
 */
bool
splitPayload(const std::string &payload, const char *magic,
             std::vector<std::pair<std::string, std::string>> *headers,
             std::string *body, std::string *error)
{
    size_t pos = payload.find('\n');
    if (pos == std::string::npos ||
        support::trim(payload.substr(0, pos)) != magic) {
        *error = std::string("expected ") + magic;
        return false;
    }
    ++pos;
    while (pos < payload.size()) {
        size_t eol = payload.find('\n', pos);
        if (eol == std::string::npos)
            eol = payload.size();
        const std::string line(
            support::trim(payload.substr(pos, eol - pos)));
        pos = eol + 1;
        if (line.empty()) {
            // Blank separator: the rest is the body, verbatim.
            *body = pos <= payload.size() ? payload.substr(pos) : "";
            return true;
        }
        const size_t colon = line.find(':');
        if (colon == std::string::npos) {
            *error = "malformed header line '" + line + "'";
            return false;
        }
        headers->emplace_back(
            std::string(support::trim(line.substr(0, colon))),
            std::string(support::trim(line.substr(colon + 1))));
    }
    return true;  // headers only, no body
}

} // namespace

void
appendFrame(std::string *out, std::string_view payload)
{
    const size_t len = payload.size();
    const char prefix[kFramePrefixBytes] = {
        static_cast<char>(len >> 24),
        static_cast<char>(len >> 16),
        static_cast<char>(len >> 8),
        static_cast<char>(len),
    };
    out->append(prefix, kFramePrefixBytes);
    out->append(payload);
}

bool
peekFrameLength(std::string_view bytes, size_t *len)
{
    if (bytes.size() < kFramePrefixBytes)
        return false;
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    *len = (static_cast<size_t>(p[0]) << 24) |
           (static_cast<size_t>(p[1]) << 16) |
           (static_cast<size_t>(p[2]) << 8) | static_cast<size_t>(p[3]);
    return true;
}

FrameStatus
readFrame(int fd, std::string *payload, size_t max_bytes,
          std::string *error)
{
    char prefix[kFramePrefixBytes];
    {
        // A clean close before the first byte is a normal end of
        // conversation, not an error.
        const ssize_t n = ::read(fd, prefix, 1);
        if (n == 0)
            return FrameStatus::Closed;
        if (n < 0) {
            if (error)
                *error = std::strerror(errno);
            return FrameStatus::Error;
        }
    }
    if (!readAll(fd, prefix + 1, kFramePrefixBytes - 1)) {
        if (error)
            *error = "truncated frame length";
        return FrameStatus::Error;
    }

    size_t len = 0;
    peekFrameLength(std::string_view(prefix, kFramePrefixBytes), &len);
    if (len > max_bytes) {
        if (error)
            *error = support::strprintf(
                "frame of %zu bytes exceeds the %zu-byte limit", len,
                max_bytes);
        // Consume the payload (bounded) so the rejection response
        // can reach a peer that is still writing.
        char sink[4096];
        size_t left = std::min(len, kMaxFrameDrainBytes);
        while (left > 0) {
            const ssize_t n = ::read(
                fd, sink, left < sizeof(sink) ? left : sizeof(sink));
            // EOF ends the drain whatever errno holds: read() leaves
            // it alone on success, so it may be a stale EINTR.
            if (n == 0 || (n < 0 && errno != EINTR))
                break;
            if (n > 0)
                left -= static_cast<size_t>(n);
        }
        return FrameStatus::TooLarge;
    }
    payload->resize(len);
    if (len > 0 && !readAll(fd, payload->data(), len)) {
        if (error)
            *error = "truncated frame payload";
        return FrameStatus::Error;
    }
    return FrameStatus::Ok;
}

bool
writeFrame(int fd, const std::string &payload, std::string *error)
{
    // One buffer, one send: the prefix and payload leave together.
    std::string frame;
    frame.reserve(kFramePrefixBytes + payload.size());
    appendFrame(&frame, payload);
    if (!writeAll(fd, frame.data(), frame.size())) {
        if (error)
            *error = std::strerror(errno);
        return false;
    }
    return true;
}

std::string
Request::configFingerprint() const
{
    std::ostringstream os;
    os << "options{" << options << "} function=" << function
       << " schedule=" << (want_schedule ? 1 : 0)
       << " profile=" << (profile ? 1 : 0)
       << " profile-seed=" << profile_seed
       << " profile-runs=" << profile_runs;
    return os.str();
}

std::string
encodeRequest(const Request &req)
{
    std::ostringstream os;
    os << kRequestMagic << '\n' << "verb: " << req.verb << '\n';
    if (!req.fill_key.empty())
        os << "fill-key: " << req.fill_key << '\n';
    if (!req.options.empty())
        os << "options: " << req.options << '\n';
    if (!req.function.empty())
        os << "function: " << req.function << '\n';
    if (req.deadline_ms != 0)
        os << "deadline-ms: " << req.deadline_ms << '\n';
    if (req.want_schedule)
        os << "want-schedule: 1\n";
    if (req.no_cache)
        os << "no-cache: 1\n";
    if (!req.trace_id.empty())
        os << "trace-id: " << req.trace_id << '\n';
    if (!req.parent_span.empty())
        os << "parent-span: " << req.parent_span << '\n';
    os << "profile: " << (req.profile ? 1 : 0) << '\n'
       << "profile-seed: " << req.profile_seed << '\n'
       << "profile-runs: " << req.profile_runs << '\n'
       << '\n'
       << req.module_text;
    return os.str();
}

bool
parseRequest(const std::string &payload, Request &out,
             std::string *error)
{
    std::vector<std::pair<std::string, std::string>> headers;
    std::string detail;
    if (!splitPayload(payload, kRequestMagic, &headers,
                      &out.module_text, &detail)) {
        if (error)
            *error = detail;
        return false;
    }
    for (const auto &[key, value] : headers) {
        if (key == "verb")
            out.verb = value;
        else if (key == "fill-key")
            out.fill_key = value;
        else if (key == "options")
            out.options = value;
        else if (key == "function")
            out.function = value;
        else if (key == "deadline-ms")
            out.deadline_ms = std::atoll(value.c_str());
        else if (key == "want-schedule")
            out.want_schedule = value != "0";
        else if (key == "no-cache")
            out.no_cache = value != "0";
        else if (key == "trace-id")
            out.trace_id = value;
        else if (key == "parent-span")
            out.parent_span = value;
        else if (key == "profile")
            out.profile = value != "0";
        else if (key == "profile-seed")
            out.profile_seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "profile-runs")
            out.profile_runs = std::atoi(value.c_str());
        // Unknown keys are ignored for forward compatibility.
    }
    if (out.verb != "compile" && out.verb != "stats" &&
        out.verb != "ping" && out.verb != "fill") {
        if (error)
            *error = "unknown verb '" + out.verb + "'";
        return false;
    }
    return true;
}

std::string
encodeResponse(const Response &resp)
{
    std::ostringstream os;
    os << kResponseMagic << '\n' << "status: " << resp.status << '\n';
    if (!resp.error.empty())
        os << "error: " << resp.error << '\n';
    if (resp.retry_after_ms != 0)
        os << "retry-after-ms: " << resp.retry_after_ms << '\n';
    if (resp.server_time_us != 0)
        os << "time-us: " << resp.server_time_us << '\n';
    os << "cached: " << (resp.cached ? 1 : 0) << '\n'
       << support::strprintf("compile-ms: %.3f\n", resp.compile_ms)
       << '\n'
       << resp.body;
    return os.str();
}

bool
parseResponse(const std::string &payload, Response &out,
              std::string *error)
{
    std::vector<std::pair<std::string, std::string>> headers;
    std::string detail;
    if (!splitPayload(payload, kResponseMagic, &headers, &out.body,
                      &detail)) {
        if (error)
            *error = detail;
        return false;
    }
    for (const auto &[key, value] : headers) {
        if (key == "status")
            out.status = value;
        else if (key == "error")
            out.error = value;
        else if (key == "retry-after-ms")
            out.retry_after_ms = std::atoll(value.c_str());
        else if (key == "time-us")
            out.server_time_us = std::atoll(value.c_str());
        else if (key == "cached")
            out.cached = value != "0";
        else if (key == "compile-ms")
            out.compile_ms = std::atof(value.c_str());
    }
    return true;
}

} // namespace treegion::service
