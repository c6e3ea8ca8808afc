#include "service/client.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/spans.h"
#include "support/string_utils.h"

namespace treegion::service {

std::unique_ptr<Client>
Client::connect(const std::string &address, std::string *error)
{
    if (support::startsWith(address, "unix:"))
        return connectUnix(address.substr(5), error);
    if (!address.empty() && address[0] == '/')
        return connectUnix(address, error);
    const size_t colon = address.rfind(':');
    if (colon == std::string::npos) {
        if (error)
            *error = "expected unix:<path>, /abs/path or host:port, "
                     "got '" +
                     address + "'";
        return nullptr;
    }
    const int port = std::atoi(address.substr(colon + 1).c_str());
    if (port <= 0 || port > 65535) {
        if (error)
            *error = "bad port in '" + address + "'";
        return nullptr;
    }
    return connectTcp(address.substr(0, colon), port, error);
}

std::unique_ptr<Client>
Client::connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "unix socket path too long: " + path;
        return nullptr;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::strerror(errno);
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = path + ": " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<Client>(new Client(fd, path));
}

std::unique_ptr<Client>
Client::connectTcp(const std::string &host, int port,
                   std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        // Not a literal address: resolve it.
        hostent *ent = ::gethostbyname(host.c_str());
        if (!ent || ent->h_addrtype != AF_INET || !ent->h_addr_list[0]) {
            if (error)
                *error = "cannot resolve host '" + host + "'";
            return nullptr;
        }
        std::memcpy(&addr.sin_addr, ent->h_addr_list[0],
                    sizeof(addr.sin_addr));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::strerror(errno);
        return nullptr;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = support::strprintf("%s:%d: %s", host.c_str(),
                                        port, std::strerror(errno));
        ::close(fd);
        return nullptr;
    }
    return std::unique_ptr<Client>(
        new Client(fd, support::strprintf("%s:%d", host.c_str(), port)));
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Client::call(const Request &req, Response *resp, std::string *error)
{
    support::SpanScope span("call",
                            support::SpanScope::Root::IfEnabled);
    const Request *send = &req;
    Request traced;
    if (span.live()) {
        span.arg("server", address_).arg("verb", req.verb);
        if (req.trace_id.empty()) {
            traced = req;
            const support::SpanContext &ctx = span.context();
            traced.trace_id =
                support::traceIdHex(ctx.trace_hi, ctx.trace_lo);
            traced.parent_span = support::spanIdHex(ctx.span);
            send = &traced;
        }
    }
    // A failed write may still have an answer waiting: a server
    // rejecting an oversized frame responds without reading the
    // whole payload, so our write can die on EPIPE while the
    // rejection sits in the receive buffer. Read before giving up.
    std::string write_error;
    const bool wrote =
        writeFrame(fd_, encodeRequest(*send), &write_error);
    std::string payload;
    const FrameStatus st =
        readFrame(fd_, &payload, max_frame_bytes, error);
    if (st != FrameStatus::Ok) {
        if (error) {
            if (!wrote)
                *error = write_error;
            else if (error->empty())
                *error = "connection closed by server";
        }
        span.arg("status", "transport-error");
        return false;
    }
    if (!parseResponse(payload, *resp, error)) {
        span.arg("status", "parse-error");
        return false;
    }
    span.arg("status", resp->status);
    if (resp->cached)
        span.arg("cached", static_cast<int64_t>(1));
    return true;
}

bool
Client::syncClock(std::string *error)
{
    support::SpanCollector &collector =
        support::SpanCollector::instance();
    if (!collector.enabled())
        return true;
    Request ping;
    ping.verb = "ping";
    Response resp;
    const int64_t t0 = support::epochUs();
    if (!call(ping, &resp, error))
        return false;
    const int64_t t1 = support::epochUs();
    if (resp.server_time_us == 0)
        return true; // pre-`time-us` server: nothing to align
    // NTP-style: assume the reply clock sample sits at the midpoint
    // of the round trip, so the error is bounded by rtt/2.
    const int64_t offset = resp.server_time_us - (t0 + t1) / 2;
    collector.record({.trace_hi = support::mintSpanId(),
                      .trace_lo = support::mintSpanId(),
                      .span = support::mintSpanId(),
                      .parent = 0,
                      .name = "clock-sync",
                      .service = collector.service(),
                      .tid = support::currentThreadId(),
                      .start_us = t0,
                      .dur_us = t1 - t0,
                      .args = {support::strArg("member", address_),
                               support::intArg("offset_us", offset),
                               support::intArg("rtt_us", t1 - t0)}});
    return true;
}

} // namespace treegion::service
