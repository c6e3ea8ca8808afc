/**
 * @file
 * Wire protocol of the treegion compile service.
 *
 * Transport: a stream socket (Unix-domain or TCP). Each message is
 * one frame: a 4-byte big-endian payload length followed by that
 * many payload bytes. Frames flow strictly request/response per
 * connection; a connection serves any number of requests.
 *
 * Payloads are text: a first line naming the message kind
 * ("treegion-req/1" / "treegion-resp/1"), then "key: value" header
 * lines, a blank line, and an optional body. Requests carry a .tir
 * module as the body; compile responses carry the result report.
 * Unknown header keys are ignored, so old clients keep working
 * against newer servers.
 *
 * For zero-dependency observability the server's event loop also
 * answers plain HTTP: a connection whose first bytes are "GET " is
 * served one HTTP/1.0 response (the /stats JSON) and closed, so
 * `curl --unix-socket <sock> http://x/stats` works against the same
 * listener the binary protocol uses. Frame readers here never see
 * HTTP; this module owns only the framing below.
 */

#ifndef TREEGION_SERVICE_PROTOCOL_H
#define TREEGION_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>

namespace treegion::service {

/** Frame payloads above this are rejected by default (4 MiB). */
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;

/** Bytes in a frame's length prefix. */
inline constexpr size_t kFramePrefixBytes = 4;

/** Most bytes of an oversized frame a reader drains (64 MiB), so its
 * rejection is not RST away from a peer that is still writing. */
inline constexpr size_t kMaxFrameDrainBytes = 64u << 20;

/** Append @p payload to @p out as one frame. */
void appendFrame(std::string *out, std::string_view payload);

/**
 * Decode the length prefix at the front of @p bytes into @p len.
 * @return false when fewer than kFramePrefixBytes bytes are there.
 */
bool peekFrameLength(std::string_view bytes, size_t *len);

/** Outcome of reading one frame off a connection. */
enum class FrameStatus {
    Ok,        ///< payload filled in
    Closed,    ///< clean EOF before any frame byte
    TooLarge,  ///< length prefix exceeds the frame limit
    Error,     ///< I/O error or truncated frame
};

/**
 * Read one length-prefixed frame from @p fd into @p payload.
 *
 * @param fd connected stream socket
 * @param payload receives the frame payload on Ok
 * @param max_bytes frame size limit
 * @param error human-readable detail on TooLarge/Error
 */
FrameStatus readFrame(int fd, std::string *payload, size_t max_bytes,
                      std::string *error);

/** Write @p payload as one frame. @return false on I/O error. */
bool writeFrame(int fd, const std::string &payload,
                std::string *error);

/** A compile-service request. */
struct Request
{
    /** "compile" | "stats" | "ping" | "fill" (peer cache-fill). */
    std::string verb = "compile";
    /**
     * Cache key (CacheKey::str() hex) a "fill" carries: the body is
     * the compiled result a peer replica produced for a key this
     * replica owns on the cluster ring, offered for insertion.
     */
    std::string fill_key;
    /** encodePipelineOptions() line; empty = server defaults. */
    std::string options;
    /** Function to compile; empty = the module's first function. */
    std::string function;
    /** Queue deadline in milliseconds; 0 = no deadline. */
    int64_t deadline_ms = 0;
    /** Echo the full region schedules in the response body. */
    bool want_schedule = false;
    /** Bypass the compile cache (no lookup, no insert). */
    bool no_cache = false;
    /** Re-profile on seeded inputs before compiling. */
    bool profile = true;
    uint64_t profile_seed = 42;
    int profile_runs = 20;
    /**
     * Distributed-tracing context (support/spans.h), forwarded as
     * `trace-id` / `parent-span` headers when non-empty: the 32-hex
     * trace id this request belongs to and the 16-hex id of the
     * caller's span. Old servers ignore the headers (unknown keys
     * are skipped); trace fields are deliberately NOT part of
     * configFingerprint(), so tracing never perturbs cache keys.
     */
    std::string trace_id;
    std::string parent_span;
    /** The .tir module (body). Required for "compile". */
    std::string module_text;

    /**
     * The request fields that shape the response body, rendered
     * canonically — the configuration half of the cache key.
     */
    std::string configFingerprint() const;
};

/** Render @p req as a frame payload. */
std::string encodeRequest(const Request &req);

/** Parse a request payload. @return false and set @p error. */
bool parseRequest(const std::string &payload, Request &out,
                  std::string *error);

/** Response status strings (the protocol sends them verbatim). */
namespace status {
inline constexpr const char *kOk = "ok";
inline constexpr const char *kRejected = "rejected";  ///< backpressure
inline constexpr const char *kDeadline = "deadline";  ///< expired queued
inline constexpr const char *kShuttingDown = "shutting-down";
inline constexpr const char *kError = "error";  ///< bad request
} // namespace status

/** A compile-service response. */
struct Response
{
    std::string status = status::kOk;
    std::string error;           ///< detail when status != ok
    int64_t retry_after_ms = 0;  ///< hint when rejected
    bool cached = false;         ///< body replayed from the cache
    double compile_ms = 0.0;     ///< server-side pipeline wall time
    /**
     * Server wall clock (microseconds since the Unix epoch) sampled
     * while answering — non-zero on "ping" responses. Clients use it
     * to estimate the clock offset to each replica (NTP-style: the
     * server time is compared against the midpoint of the request's
     * send/receive times), which is how `treegion-report
     * --trace-merge` aligns span files from different hosts.
     */
    int64_t server_time_us = 0;
    /** Result report ("compile"), stats JSON ("stats"), or empty. */
    std::string body;
};

/** Render @p resp as a frame payload. */
std::string encodeResponse(const Response &resp);

/** Parse a response payload. @return false and set @p error. */
bool parseResponse(const std::string &payload, Response &out,
                   std::string *error);

} // namespace treegion::service

#endif // TREEGION_SERVICE_PROTOCOL_H
