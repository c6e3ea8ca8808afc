#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ir/parser.h"
#include "ir/verifier.h"
#include "sched/list_scheduler.h"
#include "sched/mem_estimate.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "support/build_info.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/remarks.h"
#include "support/spans.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"

namespace treegion::service {

namespace {

/** epoll identities of the non-connection fds. */
constexpr uint64_t kUnixTag = 1;
constexpr uint64_t kTcpTag = 2;
constexpr uint64_t kStopTag = 3;
constexpr uint64_t kWakeTag = 4;

int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Milliseconds, with the fraction, since @p start_us (nowUs). */
double
msSince(int64_t start_us)
{
    return static_cast<double>(nowUs() - start_us) / 1000.0;
}

Response
makeError(const char *status, std::string detail)
{
    Response resp;
    resp.status = status;
    resp.error = std::move(detail);
    return resp;
}

/** "requests_<status>" with '-' mapped to '_'. */
std::string
statusCounterName(const std::string &status)
{
    std::string name = "requests_" + status;
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Empty a self-pipe (level-triggered epoll would re-fire). */
void
drainPipe(int fd)
{
    char buf[64];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
}

/**
 * Compile @p fn under @p options as @p req asks and render the
 * deterministic result report — the bytes the cache stores. @p fn is
 * the request's own freshly parsed function and nothing reads it
 * afterwards: a request calls this once, on a miss or to recompile a
 * verify_hits hit, so profile and pipeline mutate it in place. Wall
 * time goes to @p compile_ms, NOT into the body: it differs run to
 * run, the body must not.
 */
std::string
compileBody(ir::Function &fn, size_t mem_words,
            const sched::PipelineOptions &options, const Request &req,
            double *compile_ms)
{
    const auto start = std::chrono::steady_clock::now();

    if (req.profile) {
        workloads::ProfileOptions prof;
        prof.input_seed = req.profile_seed;
        prof.runs = req.profile_runs;
        workloads::profileFunction(fn, mem_words, prof);
    }
    const sched::PipelineResult result =
        sched::runPipeline(fn, options);
    const auto problems = sched::verifyFunctionSchedule(
        result.schedule, options.model.issue_width);

    if (compile_ms) {
        *compile_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    }

    std::ostringstream body;
    body << "function: " << fn.name() << '\n'
         << "options: " << encodePipelineOptions(options) << '\n'
         << "regions: " << result.schedule.regions.size() << '\n'
         << support::strprintf("cycles: %.17g\n",
                               result.estimated_time)
         << support::strprintf("expansion: %.17g\n",
                               result.code_expansion)
         << "renamed: " << result.total_sched_stats.renamed_defs
         << '\n'
         << "exit-copies: "
         << result.total_sched_stats.exit_copies << '\n'
         << "speculated: "
         << result.total_sched_stats.speculated_ops << '\n'
         << "elided: " << result.total_sched_stats.elided_ops
         << '\n';
    if (problems.empty()) {
        body << "verify: ok\n";
    } else {
        body << "verify: " << problems.size()
             << " problems (first: " << problems.front() << ")\n";
    }
    if (req.want_schedule) {
        body << "schedule:\n";
        for (const auto &[root, rs] : result.schedule.regions) {
            body << "-- region bb" << root << " (" << rs.length
                 << " cycles)\n"
                 << rs.str(options.model.issue_width);
        }
    }
    return body.str();
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      span_service_(options_.self_address.empty()
                        ? "treegiond"
                        : options_.self_address),
      cache_(options_.cache_bytes),
      mem_gate_(options_.mem_budget_bytes)
{
}

/**
 * Parse the propagated `trace-id`/`parent-span` headers of @p req
 * into a sampled context stamped with @p service. Invalid (so every
 * span site stays inert) when either header is absent or malformed —
 * unsampled traces propagate nothing, so presence means sampled.
 */
static support::SpanContext
incomingTraceContext(const Request &req, const std::string &service)
{
    support::SpanContext ctx;
    if (!req.trace_id.empty() &&
        support::parseTraceIdHex(req.trace_id, &ctx.trace_hi,
                                 &ctx.trace_lo) &&
        support::parseSpanIdHex(req.parent_span, &ctx.span)) {
        ctx.sampled = true;
        ctx.service = service.c_str();
    } else {
        ctx = support::SpanContext{};
    }
    return ctx;
}

Server::~Server()
{
    if (started_.load()) {
        requestStop();
        waitUntilStopped();
    }
}

bool
Server::start(std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why + ": " + std::strerror(errno);
        if (unix_fd_ >= 0)
            ::close(unix_fd_);
        if (tcp_fd_ >= 0)
            ::close(tcp_fd_);
        if (epoll_fd_ >= 0)
            ::close(epoll_fd_);
        unix_fd_ = tcp_fd_ = epoll_fd_ = -1;
        return false;
    };

    TG_ASSERT(!started_.load());
    if (options_.unix_path.empty() && options_.tcp_port < 0) {
        if (error)
            *error = "no listener configured (need a unix path or a "
                     "tcp port)";
        return false;
    }

    if (!options_.peers.empty()) {
        const auto self = std::find(options_.peers.begin(),
                                    options_.peers.end(),
                                    options_.self_address);
        if (options_.self_address.empty() ||
            self == options_.peers.end()) {
            if (error)
                *error = "cluster self address '" +
                         options_.self_address +
                         "' is not in the peer list";
            return false;
        }
        self_index_ = static_cast<size_t>(
            self - options_.peers.begin());
        cluster_ = HashRing(options_.peers);
        peer_dead_ = std::make_unique<std::atomic<bool>[]>(
            options_.peers.size());
        for (size_t i = 0; i < options_.peers.size(); ++i)
            peer_dead_[i].store(false);
    }

    if (!options_.unix_path.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
            if (error)
                *error = "unix socket path too long: " +
                         options_.unix_path;
            return false;
        }
        std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.unix_path.c_str());
        unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unix_fd_ < 0)
            return fail("socket(unix)");
        if (::bind(unix_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail("bind(" + options_.unix_path + ")");
        if (::listen(unix_fd_, 64) != 0)
            return fail("listen(unix)");
        if (!setNonBlocking(unix_fd_))
            return fail("nonblock(unix)");
    }

    if (options_.tcp_port >= 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0)
            return fail("socket(tcp)");
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<uint16_t>(options_.tcp_port));
        if (::inet_pton(AF_INET, options_.tcp_host.c_str(),
                        &addr.sin_addr) != 1) {
            if (error)
                *error = "bad tcp host: " + options_.tcp_host;
            return fail("inet_pton");
        }
        if (::bind(tcp_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail(support::strprintf("bind(port %d)",
                                           options_.tcp_port));
        if (::listen(tcp_fd_, 64) != 0)
            return fail("listen(tcp)");
        if (!setNonBlocking(tcp_fd_))
            return fail("nonblock(tcp)");
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(tcp_fd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            tcp_port_ = ntohs(bound.sin_port);
    }

    if (::pipe(stop_pipe_) != 0)
        return fail("pipe(stop)");
    if (::pipe(wake_pipe_) != 0)
        return fail("pipe(wake)");
    setNonBlocking(stop_pipe_[0]);
    setNonBlocking(wake_pipe_[0]);
    setNonBlocking(wake_pipe_[1]);

    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0)
        return fail("epoll_create1");
    auto watch = [&](int fd, uint64_t tag) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = tag;
        return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
    };
    if (unix_fd_ >= 0 && !watch(unix_fd_, kUnixTag))
        return fail("epoll_ctl(unix)");
    if (tcp_fd_ >= 0 && !watch(tcp_fd_, kTcpTag))
        return fail("epoll_ctl(tcp)");
    if (!watch(stop_pipe_[0], kStopTag) ||
        !watch(wake_pipe_[0], kWakeTag))
        return fail("epoll_ctl(pipe)");

    if (!options_.span_path.empty())
        support::SpanCollector::instance().configure(
            options_.span_sample);
    if (!options_.flightrec_path.empty())
        support::flightrec::setDumpPath(
            options_.flightrec_path.c_str());

    pool_ = std::make_unique<support::ThreadPool>(options_.threads);
    started_.store(true);
    loop_thread_ = std::thread([this] { eventLoop(); });
    return true;
}

void
Server::requestStop()
{
    // Async-signal-safe by design: one atomic store, one write().
    stopping_.store(true);
    if (stop_pipe_[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n =
            ::write(stop_pipe_[1], &byte, 1);
    }
}

bool
Server::shouldExitLoop() const
{
    if (!hard_stop_.load())
        return false;
    if (!conns_.empty() || jobs_inflight_.load() != 0)
        return false;
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex &>(completions_mutex_));
    return completions_.empty();
}

void
Server::eventLoop()
{
    bool listeners_open = true;
    bool hard_draining = false;

    auto closeListeners = [&] {
        if (!listeners_open)
            return;
        listeners_open = false;
        if (unix_fd_ >= 0) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, unix_fd_, nullptr);
            ::close(unix_fd_);
            ::unlink(options_.unix_path.c_str());
            unix_fd_ = -1;
        }
        if (tcp_fd_ >= 0) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, tcp_fd_, nullptr);
            ::close(tcp_fd_);
            tcp_fd_ = -1;
        }
    };

    while (!shouldExitLoop()) {
        epoll_event events[64];
        const int n =
            ::epoll_wait(epoll_fd_, events, 64, /*timeout=*/-1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const uint64_t tag = events[i].data.u64;
            if (tag == kStopTag) {
                drainPipe(stop_pipe_[0]);
                continue;  // stopping_ is handled below
            }
            if (tag == kWakeTag) {
                drainPipe(wake_pipe_[0]);
                drainCompletions();
                continue;
            }
            if (tag == kUnixTag || tag == kTcpTag) {
                if (listeners_open)
                    acceptPending(tag == kUnixTag ? unix_fd_
                                                  : tcp_fd_);
                continue;
            }
            // A connection. It may have been closed by an earlier
            // event in this batch — look it up fresh per action.
            if (events[i].events & EPOLLOUT) {
                auto it = conns_.find(tag);
                if (it != conns_.end())
                    onWritable(*it->second);
            }
            if (events[i].events &
                (EPOLLIN | EPOLLHUP | EPOLLERR)) {
                auto it = conns_.find(tag);
                if (it != conns_.end())
                    onReadable(*it->second);
            }
        }

        if (stopping_.load())
            closeListeners();
        if (hard_stop_.load() && !hard_draining) {
            hard_draining = true;
            // Stop reading: in-flight work still finishes and every
            // finished response is flushed before its connection
            // closes (the write side stays open, as the threaded
            // server's SHUT_RD drain did).
            std::vector<uint64_t> ids;
            ids.reserve(conns_.size());
            for (const auto &[id, conn] : conns_)
                ids.push_back(id);
            for (const uint64_t id : ids) {
                auto it = conns_.find(id);
                if (it == conns_.end())
                    continue;
                Conn &conn = *it->second;
                ::shutdown(conn.fd, SHUT_RD);
                conn.read_eof = true;
                conn.in.clear();
                conn.want_close = true;
                if (conn.inflight == 0 && conn.done.empty() &&
                    conn.out_off >= conn.out.size())
                    closeConn(conn);
            }
        }
    }

    closeListeners();
    // Anything still registered (e.g. the loop broke on an epoll
    // error) is closed so fds never leak.
    std::vector<uint64_t> ids;
    for (const auto &[id, conn] : conns_)
        ids.push_back(id);
    for (const uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end())
            closeConn(*it->second);
    }
}

void
Server::acceptPending(int listener_fd)
{
    for (;;) {
        const int fd = ::accept(listener_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // EAGAIN or a transient error: epoll re-fires
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }

        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = next_conn_id_++;

        if (counted_conns_ >= options_.max_connections) {
            metrics_.add("connections_rejected");
            conn->counted = false;
            conn->want_close = true;
            Response resp = makeError(status::kRejected,
                                      "too many connections");
            resp.retry_after_ms = retryAfterHintMs();
            Conn &ref = *conn;
            conns_.emplace(ref.id, std::move(conn));
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = ref.id;
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
            queueResponse(ref, ref.next_seq++, resp);
            continue;
        }

        metrics_.add("connections_accepted");
        ++counted_conns_;
        Conn &ref = *conn;
        conns_.emplace(ref.id, std::move(conn));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = ref.id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
}

void
Server::closeConn(Conn &conn)
{
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    if (conn.counted)
        --counted_conns_;
    conns_.erase(conn.id);  // destroys conn
}

void
Server::updateEpollOut(Conn &conn)
{
    const bool want = conn.out_off < conn.out.size();
    if (want == conn.epollout)
        return;
    conn.epollout = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
Server::onReadable(Conn &conn)
{
    char buf[16384];
    for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            if (conn.drain_left > 0) {
                // Mid-discard of an oversized frame: bytes bypass
                // the buffer entirely.
                const size_t eat = std::min(
                    conn.drain_left, static_cast<size_t>(n));
                conn.drain_left -= eat;
                if (conn.drain_left == 0)
                    conn.want_close = true;
                if (eat < static_cast<size_t>(n))
                    conn.in.append(buf + eat,
                                   static_cast<size_t>(n) - eat);
            } else {
                conn.in.append(buf, static_cast<size_t>(n));
            }
            continue;
        }
        if (n == 0) {
            conn.read_eof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(conn);
        return;
    }

    consumeBuffer(conn);
    // consumeBuffer never closes, so conn is still valid here.
    flushWrites(conn);
}

void
Server::onWritable(Conn &conn)
{
    flushWrites(conn);
}

void
Server::consumeBuffer(Conn &conn)
{
    if (hard_stop_.load()) {
        conn.in.clear();
        return;
    }
    for (;;) {
        if (conn.drain_left > 0) {
            const size_t eat =
                std::min(conn.drain_left, conn.in.size());
            conn.in.erase(0, eat);
            conn.drain_left -= eat;
            if (conn.drain_left == 0)
                conn.want_close = true;
            return;  // nothing after an oversized frame is served
        }
        if (conn.want_close)
            return;  // draining out; ignore any further input

        if (conn.http ||
            (conn.in.size() >= 4 &&
             std::memcmp(conn.in.data(), "GET ", 4) == 0)) {
            // One-shot HTTP: serve /stats JSON and close, so curl
            // and load-balancer health checks need no client.
            conn.http = true;
            const bool complete =
                conn.in.find("\r\n\r\n") != std::string::npos ||
                conn.in.find("\n\n") != std::string::npos ||
                conn.in.size() >= 8192 || conn.read_eof;
            if (!complete)
                return;
            metrics_.add("http_requests");
            size_t end = conn.in.find(' ', 4);
            if (end == std::string::npos)
                end = conn.in.find('\n', 4);
            if (end == std::string::npos)
                end = conn.in.size();
            const std::string target = conn.in.substr(4, end - 4);
            conn.in.clear();
            const bool found =
                target == "/stats" || target == "/stats/";
            const std::string body =
                found ? statsJson()
                      : std::string("{\"error\":\"not found\"}");
            conn.out += support::strprintf(
                "HTTP/1.0 %s\r\nContent-Type: application/json\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                found ? "200 OK" : "404 Not Found", body.size());
            conn.out += body;
            conn.want_close = true;
            return;
        }

        size_t len = 0;
        if (!peekFrameLength(conn.in, &len))
            return;
        if (len > options_.max_frame_bytes) {
            // The stream can't be resynchronized after an oversized
            // length prefix: answer once, discard the frame's bytes
            // (so the response isn't RST away from a peer that is
            // still writing), and drop the connection.
            metrics_.add("requests_total");
            metrics_.add("oversized_frames");
            Response resp = makeError(
                status::kRejected,
                support::strprintf("frame of %zu bytes exceeds the "
                                   "%zu-byte limit",
                                   len, options_.max_frame_bytes));
            metrics_.add(statusCounterName(resp.status));
            const size_t cap = std::min(len, kMaxFrameDrainBytes);
            const size_t have =
                std::min(cap, conn.in.size() - kFramePrefixBytes);
            conn.in.clear();
            conn.drain_left = cap - have;
            queueResponse(conn, conn.next_seq++, resp);
            if (conn.drain_left == 0)
                conn.want_close = true;
            return;
        }
        if (conn.in.size() < kFramePrefixBytes + len)
            return;
        std::string payload = conn.in.substr(kFramePrefixBytes, len);
        conn.in.erase(0, kFramePrefixBytes + len);
        // Batching: every complete frame in the buffer dispatches in
        // this same pass, so a pipelining client's requests hit the
        // pool together.
        dispatch(conn, std::move(payload));
    }
}

void
Server::dispatch(Conn &conn, std::string payload)
{
    const uint64_t seq = conn.next_seq++;
    Request req;
    std::string detail;
    if (!parseRequest(payload, req, &detail)) {
        metrics_.add("requests_total");
        const Response resp = makeError(status::kError, detail);
        metrics_.add(statusCounterName(resp.status));
        queueResponse(conn, seq, resp);
        return;
    }
    if (req.verb == "compile") {
        dispatchCompile(conn, seq, std::move(req));
        return;
    }
    const int64_t start_us = nowUs();
    metrics_.add("requests_total");
    const Response resp = handleInline(req);
    metrics_.add(statusCounterName(resp.status));
    metrics_.observe("request_ms", msSince(start_us));
    queueResponse(conn, seq, resp);
}

Response
Server::handleInline(const Request &req)
{
    Response resp;
    if (req.verb == "ping") {
        // The wall-clock sample lets clients estimate this server's
        // clock offset (Client::syncClock) so --trace-merge can
        // align span files from different hosts.
        resp.server_time_us = support::epochUs();
        resp.body = "pong\n";
    } else if (req.verb == "stats") {
        resp.body = statsJson();
    } else if (req.verb == "fill") {
        // A peer compiled a key this replica owns (the client was
        // routed elsewhere, or the ring rebalanced) and offers the
        // result. Insertion is idempotent and the payload is as
        // trustworthy as the peer, which shares our binary.
        const support::SpanContextScope ctx_scope(
            incomingTraceContext(req, span_service_));
        support::SpanScope span("fill-apply",
                                support::SpanScope::Root::No,
                                span_service_.c_str());
        CacheKey key;
        if (!parseCacheKeyHex(req.fill_key, &key))
            return makeError(status::kError,
                             "bad fill-key '" + req.fill_key + "'");
        if (span.live()) {
            metrics_.add("spans_fill");
            span.arg("key", req.fill_key);
        }
        metrics_.add("fills_received");
        if (options_.cache_bytes > 0) {
            cache_.insert(key, req.module_text);
            const CompileCache::Stats cs = cache_.stats();
            metrics_.set("cache_bytes", cs.bytes);
            metrics_.set("cache_entries", cs.entries);
        }
        resp.body = "filled\n";
    } else {
        resp = makeError(status::kError,
                         "unknown verb '" + req.verb + "'");
    }
    return resp;
}

void
Server::dispatchCompile(Conn &conn, uint64_t seq, Request req)
{
    const int64_t enqueue_us = nowUs();
    metrics_.add("requests_total");

    auto answerNow = [&](Response resp) {
        metrics_.add(statusCounterName(resp.status));
        metrics_.observe("request_ms", msSince(enqueue_us));
        queueResponse(conn, seq, resp);
    };

    if (stopping_.load()) {
        answerNow(
            makeError(status::kShuttingDown, "server is draining"));
        return;
    }

    // Memory admission: a compile whose projected peak does not fit
    // next to the in-flight total is parked (bounded) instead of
    // dispatched, so the aggregate projection of everything running
    // stays under the budget. Parked compiles re-enter largest-first
    // as finishing compiles release their reservations.
    const uint64_t projected = projectedPeakBytes(req);
    if (projected > 0 && !mem_gate_.tryAdmit(projected)) {
        if (mem_parked_.size() >= options_.queue_limit) {
            metrics_.add("mem_rejected");
            Response resp = makeError(
                status::kRejected,
                support::strprintf(
                    "memory budget exhausted (%zu compiles parked)",
                    mem_parked_.size()));
            resp.retry_after_ms = retryAfterHintMs();
            answerNow(std::move(resp));
            return;
        }
        metrics_.add("mem_queued");
        ++conn.inflight;
        jobs_inflight_.fetch_add(1);
        const int64_t park_start_us =
            support::SpanCollector::instance().enabled()
                ? support::epochUs()
                : 0;
        mem_parked_.push_back(
            ParkedCompile{conn.id, seq, enqueue_us, projected,
                          park_start_us, std::move(req)});
        return;
    }

    if (!submitCompile(conn, seq, enqueue_us, projected,
                       std::move(req), /*counted=*/false)) {
        // Admission control: never let the queue grow past
        // queue_limit — answer with backpressure and a retry hint.
        if (projected > 0)
            mem_gate_.release(projected);
        metrics_.add("backpressure_rejections");
        Response resp = makeError(
            status::kRejected,
            support::strprintf("queue full (%zu in flight)",
                               admitted_.load()));
        resp.retry_after_ms = retryAfterHintMs();
        answerNow(std::move(resp));
    }
}

uint64_t
Server::projectedPeakBytes(const Request &req) const
{
    if (options_.mem_budget_bytes == 0)
        return 0;
    // A malformed options line projects as the defaults; compileNow
    // answers the parse error either way, cheaply.
    sched::PipelineOptions opts;
    if (!req.options.empty()) {
        std::string error;
        if (!sched::parsePipelineOptions(req.options, opts, &error))
            opts = sched::PipelineOptions{};
    }
    const sched::MemShape shape =
        sched::estimateShapeFromText(req.module_text);
    return sched::estimatePeakBytes(shape, opts);
}

bool
Server::submitCompile(Conn &conn, uint64_t seq, int64_t enqueue_us,
                      uint64_t projected, Request &&req, bool counted,
                      int64_t park_start_us, int64_t park_end_us)
{
    size_t admitted = admitted_.load();
    do {
        if (admitted >= options_.queue_limit)
            return false;
    } while (
        !admitted_.compare_exchange_weak(admitted, admitted + 1));

    if (!counted) {
        ++conn.inflight;
        jobs_inflight_.fetch_add(1);
    }
    if (projected > 0)
        metrics_.set("mem_projected_bytes", mem_gate_.inUseBytes());
    const uint64_t conn_id = conn.id;
    pool_->submit([this, conn_id, seq, enqueue_us, projected,
                   park_start_us, park_end_us,
                   req = std::move(req)]() mutable {
        if (options_.debug_queue_delay_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                options_.debug_queue_delay_ms));
        }
        const int64_t waited_us = nowUs() - enqueue_us;
        metrics_.observe("queue_wait_ms", waited_us / 1000.0);
        support::flightrec::note("compile",
                                 req.function.empty()
                                     ? "<first-fn>"
                                     : req.function.c_str(),
                                 seq, projected);

        // Join the caller's trace when the request carried one;
        // otherwise root a fresh server-local trace (sampled per
        // span_sample). Everything below — the pipeline stages'
        // spans, cache lookups, fill sends — nests under this span
        // through the ambient context.
        const support::SpanContextScope ctx_scope(
            incomingTraceContext(req, span_service_));
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled,
                                span_service_.c_str());
        if (root.live()) {
            metrics_.add("spans_compile");
            root.arg("verb", req.verb);
            const int64_t now_us = support::epochUs();
            support::noteSpan(root.context(), "queue-wait",
                              now_us - waited_us, now_us);
            if (park_start_us > 0 && park_end_us > park_start_us)
                support::noteSpan(root.context(), "mem-gate-park",
                                  park_start_us, park_end_us);
        }

        Response resp;
        const int64_t waited_ms = waited_us / 1000;
        if (req.deadline_ms > 0 && waited_ms > req.deadline_ms) {
            // The client's deadline passed while the request sat in
            // the queue: cancel instead of doing stale work.
            resp = makeError(
                status::kDeadline,
                support::strprintf(
                    "queued %lld ms past the %lld ms deadline",
                    static_cast<long long>(waited_ms),
                    static_cast<long long>(req.deadline_ms)));
        } else {
            resp = compileNow(req);
        }
        admitted_.fetch_sub(1);
        metrics_.add(statusCounterName(resp.status));
        metrics_.observe("request_ms", msSince(enqueue_us));
        if (root.live())
            root.arg("status", resp.status);

        Completion done{conn_id, seq, encodeResponse(resp),
                        projected, support::SpanContext{}, 0};
        if (root.live()) {
            // Close the request span before handing off: the recorded
            // interval should end when the response leaves this
            // worker, not when the lambda finishes tearing down.
            root.finish();
            done.trace = root.context();
            done.posted_us = support::epochUs();
        }
        {
            std::lock_guard<std::mutex> lock(completions_mutex_);
            completions_.push_back(std::move(done));
        }
        jobs_inflight_.fetch_sub(1);
        const char byte = 'w';
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
    });
    return true;
}

void
Server::admitParked()
{
    // A peer that vanished while parked drops its compile. Its
    // conn.inflight count died with the connection; the loop-liveness
    // count is still ours to return.
    std::erase_if(mem_parked_, [this](const ParkedCompile &parked) {
        if (conns_.count(parked.conn_id) != 0)
            return false;
        jobs_inflight_.fetch_sub(1);
        return true;
    });
    // The gate's largest-first scan, as in the batch driver. Compiles
    // that still don't fit, or find the pool queue full, stay parked
    // and retry on the next completion.
    const int64_t unpark_us =
        support::SpanCollector::instance().enabled()
            ? support::epochUs()
            : 0;
    mem_gate_.admitLargestFirst(
        mem_parked_, [&](ParkedCompile &parked) {
            return submitCompile(*conns_.at(parked.conn_id), parked.seq,
                                 parked.enqueue_us, parked.projected,
                                 std::move(parked.req),
                                 /*counted=*/true,
                                 parked.park_start_us, unpark_us);
        });
}

void
Server::drainCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (Completion &done : batch) {
        if (done.projected > 0) {
            // Release the memory reservation even when the peer
            // vanished — the compile ran and its footprint is gone.
            mem_gate_.release(done.projected);
            metrics_.set("mem_projected_bytes",
                         mem_gate_.inUseBytes());
        }
        auto it = conns_.find(done.conn_id);
        if (it == conns_.end())
            continue;  // the peer vanished mid-compile
        Conn &conn = *it->second;
        TG_ASSERT(conn.inflight > 0);
        --conn.inflight;
        queueRaw(conn, done.seq, std::move(done.encoded));
        auto again = conns_.find(done.conn_id);
        if (again != conns_.end())
            flushWrites(*again->second);
        // Completion-post to write-queued (and flushed as far as the
        // kernel allowed), under the request's own span.
        if (done.trace.valid() && done.trace.sampled)
            support::noteSpan(done.trace, "response-write",
                              done.posted_us, support::epochUs());
    }
    if (!mem_parked_.empty())
        admitParked();
}

void
Server::queueResponse(Conn &conn, uint64_t seq,
                      const Response &resp)
{
    queueRaw(conn, seq, encodeResponse(resp));
    flushWrites(conn);
}

void
Server::queueRaw(Conn &conn, uint64_t seq, std::string encoded)
{
    // Responses go out in request order, whatever order the pool
    // finished them in.
    conn.done.emplace(seq, std::move(encoded));
    for (auto it = conn.done.begin();
         it != conn.done.end() && it->first == conn.sent_seq;
         it = conn.done.erase(it), ++conn.sent_seq)
        appendFrame(&conn.out, it->second);
}

void
Server::flushWrites(Conn &conn)
{
    while (conn.out_off < conn.out.size()) {
        const ssize_t n = ::send(
            conn.fd, conn.out.data() + conn.out_off,
            conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n >= 0) {
            conn.out_off += static_cast<size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            updateEpollOut(conn);
            return;
        }
        metrics_.add(conn.http ? "http_write_errors"
                               : "response_write_errors");
        closeConn(conn);
        return;
    }
    conn.out.clear();
    conn.out_off = 0;
    updateEpollOut(conn);
    if ((conn.want_close || conn.read_eof) && conn.inflight == 0 &&
        conn.done.empty() && conn.drain_left == 0)
        closeConn(conn);
}

Response
Server::compileNow(const Request &req)
{
    // A "compile" span under the "request" root when the request's
    // trace is sampled (the pipeline stages' own spans nest below it
    // the same way).
    support::SpanScope span("compile");

    // Warm fast path: byte-identical resubmissions (the steady state
    // of a farm recompiling an unchanged tree) skip parse + verify +
    // canonical printing entirely. Disabled under verify_hits, which
    // needs the parsed function to recompile against.
    const bool use_raw_alias = options_.cache_bytes > 0 &&
                               !req.no_cache && !options_.verify_hits;
    CacheKey raw_key;
    if (use_raw_alias) {
        raw_key =
            makeCacheKey(req.module_text, req.configFingerprint());
        CacheKey canonical;
        bool aliased = false;
        {
            std::lock_guard<std::mutex> lock(alias_mutex_);
            const auto it =
                raw_alias_.find({raw_key.hi, raw_key.lo});
            if (it != raw_alias_.end()) {
                canonical = it->second;
                aliased = true;
            }
        }
        if (aliased) {
            std::optional<std::string> hit;
            {
                support::SpanScope lookup("cache-lookup");
                hit = cache_.lookup(canonical);
                if (lookup.live())
                    lookup.arg("alias", static_cast<int64_t>(1))
                        .arg("hit",
                             static_cast<int64_t>(hit ? 1 : 0));
            }
            if (hit) {
                if (!cluster_.empty()) {
                    metrics_.add(cluster_.ownerIndex(canonical) ==
                                         self_index_
                                     ? "shard_owned_requests"
                                     : "shard_foreign_requests");
                }
                metrics_.add("cache_raw_hits");
                Response resp;
                resp.cached = true;
                resp.body = std::move(*hit);
                return resp;
            }
        }
    }

    std::string parse_error;
    std::unique_ptr<ir::Module> mod =
        ir::parseModule(req.module_text, &parse_error);
    if (!mod)
        return makeError(status::kError,
                         "parse error: " + parse_error);
    if (mod->functions().empty())
        return makeError(status::kError, "module has no functions");

    ir::Function *fn = nullptr;
    if (req.function.empty()) {
        fn = mod->functions().front().get();
    } else if (mod->hasFunction(req.function)) {
        fn = &mod->function(req.function);
    } else {
        return makeError(status::kError,
                         "no function named '" + req.function + "'");
    }
    span.arg("fn", fn->name());

    sched::PipelineOptions options;
    std::string options_error;
    if (!parsePipelineOptions(req.options, options, &options_error))
        return makeError(status::kError,
                         "bad options: " + options_error);

    {
        const auto problems =
            ir::verifyFunction(*fn, ir::VerifyLevel::Schedulable);
        if (!problems.empty())
            return makeError(status::kError,
                             "verifier: " + problems.front());
    }
    if (req.profile && mod->memWords() < workloads::kMinInputMemWords) {
        return makeError(
            status::kError,
            support::strprintf("mem=%zu is too small to profile: the "
                               "profiler needs mem=%zu or more",
                               mod->memWords(),
                               workloads::kMinInputMemWords));
    }

    // Content address: canonical (printed) function text, so
    // submissions that differ only in formatting share an entry,
    // plus every request field that shapes the body. Only the
    // cache, the raw alias and the cluster ring read it, so a
    // no-cache request to a lone replica skips it.
    const bool use_cache = options_.cache_bytes > 0 && !req.no_cache;
    CacheKey key;
    if (use_cache || !cluster_.empty())
        key = makeCacheKey(canonicalFunctionText(*fn),
                           req.configFingerprint());

    // Shard accounting: who owns this key on the cluster ring? A
    // foreign key means the client routed around us (or the ring
    // rebalanced after a death) — we still serve it, and forward the
    // result to the owner below.
    size_t owner = self_index_;
    if (!cluster_.empty()) {
        owner = cluster_.ownerIndex(key);
        metrics_.add(owner == self_index_
                         ? "shard_owned_requests"
                         : "shard_foreign_requests");
    }

    if (use_raw_alias) {
        std::lock_guard<std::mutex> lock(alias_mutex_);
        if (raw_alias_.size() >= kRawAliasCap)
            raw_alias_.clear();
        raw_alias_.emplace(std::pair{raw_key.hi, raw_key.lo}, key);
    }

    if (use_cache) {
        std::optional<std::string> looked_up;
        {
            support::SpanScope lookup("cache-lookup");
            looked_up = cache_.lookup(key);
            if (lookup.live())
                lookup.arg("hit", static_cast<int64_t>(
                                      looked_up ? 1 : 0));
        }
        if (std::optional<std::string> hit = std::move(looked_up)) {
            Response resp;
            resp.cached = true;
            resp.body = std::move(*hit);
            if (options_.verify_hits) {
                // Determinism invariant: a cached result must be
                // bit-identical to a fresh compile of the same
                // request.
                double fresh_ms = 0.0;
                const std::string fresh = compileBody(
                    *fn, mod->memWords(), options, req, &fresh_ms);
                if (fresh != resp.body) {
                    metrics_.add("cache_verify_mismatches");
                    TG_PANIC("compile cache verify mismatch for key "
                             "%s (cached %zu bytes, fresh %zu bytes)",
                             key.str().c_str(), resp.body.size(),
                             fresh.size());
                }
                metrics_.add("cache_verified_hits");
            }
            return resp;
        }
    }

    Response resp;
    {
        // Decision-mix telemetry for /stats: count this compile's
        // remarks by kind (no Remark is built) and fold the counts
        // into the per-kind counters. Miss path only — the
        // verify_hits recompile above must not count the same
        // decisions twice.
        support::RemarkStream remarks(
            support::RemarkStream::Mode::CountOnly);
        support::RemarkScope scope(&remarks);
        resp.body = compileBody(*fn, mod->memWords(), options, req,
                                &resp.compile_ms);
        remarks.foldInto(metrics_);
    }
    metrics_.observe("compile_ms", resp.compile_ms);
    // Scheduler arena gauges (sched.arena.*) for /stats: refreshed
    // after every compile so the snapshot tracks the warm footprint.
    sched::reportArenaMetrics(metrics_);
    if (use_cache) {
        cache_.insert(key, resp.body);
        const CompileCache::Stats cs = cache_.stats();
        metrics_.set("cache_bytes", cs.bytes);
        metrics_.set("cache_entries", cs.entries);
        if (owner != self_index_)
            forwardFill(owner, key, resp.body);
    }
    return resp;
}

void
Server::forwardFill(size_t owner_index, const CacheKey &key,
                    const std::string &body)
{
    if (peer_dead_[owner_index].load())
        return;
    const std::string &addr = options_.peers[owner_index];
    // Child of the ambient "compile" span; Client::call underneath
    // adds its own "call" child and propagates the trace to the
    // owner, whose "fill-apply" completes the cross-replica tree.
    support::SpanScope span("fill-send");
    if (span.live())
        span.arg("peer", addr).arg("key", key.str());
    Request fill;
    fill.verb = "fill";
    fill.fill_key = key.str();
    fill.module_text = body;

    std::string error;
    auto peer = Client::connect(addr, &error);
    Response resp;
    if (!peer || !peer->call(fill, &resp, &error) ||
        resp.status != status::kOk) {
        // Best effort: a dead peer is skipped from now on (it
        // rejoins with an empty cache on restart anyway).
        support::flightrec::note("fill-fail", addr.c_str());
        metrics_.add("fills_failed");
        peer_dead_[owner_index].store(true);
        span.arg("ok", static_cast<int64_t>(0));
        return;
    }
    metrics_.add("fills_sent");
    span.arg("ok", static_cast<int64_t>(1));
}

int64_t
Server::retryAfterHintMs() const
{
    // Suggest roughly one median request service time. An empty
    // histogram (daemon just started, nothing compiled yet) used to
    // fall through as p50 == 0 and clamp to the 10 ms minimum — a
    // hint that made every backed-off client hammer a server that had
    // told them nothing about its service time. Cold servers now hint
    // a flat default instead of the minimum.
    const support::Histogram requests =
        metrics_.histogram("request_ms");
    if (requests.count() == 0)
        return kColdRetryHintMs;
    return std::min<int64_t>(
        1000,
        std::max<int64_t>(10, static_cast<int64_t>(requests.p50())));
}

std::string
Server::statsJson() const
{
    const CompileCache::Stats cs = cache_.stats();
    size_t alive_peers = 0;
    for (size_t i = 0; i < cluster_.size(); ++i) {
        if (i == self_index_ || !peer_dead_[i].load())
            ++alive_peers;
    }
    std::ostringstream os;
    os << "{\"metrics\":" << metrics_.toJson() << ",\"cache\":"
       << support::strprintf(
              "{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,"
              "\"evictions\":%llu,\"bytes\":%zu,\"entries\":%zu,"
              "\"max_bytes\":%zu}",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.insertions),
              static_cast<unsigned long long>(cs.evictions), cs.bytes,
              cs.entries, cache_.maxBytes())
       << ",\"cluster\":"
       << support::strprintf(
              "{\"self\":\"%s\",\"peers\":%zu,\"alive_peers\":%zu}",
              support::jsonEscape(options_.self_address).c_str(),
              cluster_.size(), alive_peers)
       << ",\"build_info\":" << support::buildInfoJson()
       << support::strprintf(",\"uptime_s\":%.3f",
                             support::uptimeSeconds())
       << ",\"server\":"
       << support::strprintf(
              "{\"threads\":%zu,\"queue_limit\":%zu,"
              "\"max_connections\":%zu,\"max_frame_bytes\":%zu,"
              "\"mem_budget_bytes\":%llu,"
              "\"mem_projected_bytes\":%llu,\"mem_parked\":%zu,"
              "\"draining\":%s}",
              pool_ ? pool_->numThreads() : options_.threads,
              options_.queue_limit, options_.max_connections,
              options_.max_frame_bytes,
              static_cast<unsigned long long>(
                  options_.mem_budget_bytes),
              static_cast<unsigned long long>(
                  mem_gate_.inUseBytes()),
              mem_parked_.size(),
              stopping_.load() ? "true" : "false")
       << "}";
    return os.str();
}

bool
Server::waitUntilStopped()
{
    // Block until a drain was requested (SIGTERM or requestStop()),
    // then escalate: finish what was admitted and exit the loop. The
    // poll keeps this waitable from a plain main() without handing
    // requestStop anything beyond its async-signal-safe pipe write.
    while (!stopping_.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (joined_.exchange(true))
        return true;
    hard_stop_.store(true);
    {
        const char byte = 'w';
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
    }
    if (loop_thread_.joinable())
        loop_thread_.join();

    pool_.reset();  // finishes anything still queued
    const bool flushed = flushTelemetry();

    for (int *pipe_fds : {stop_pipe_, wake_pipe_}) {
        for (int i = 0; i < 2; ++i) {
            if (pipe_fds[i] >= 0)
                ::close(pipe_fds[i]);
            pipe_fds[i] = -1;
        }
    }
    if (epoll_fd_ >= 0)
        ::close(epoll_fd_);
    epoll_fd_ = -1;
    started_.store(false);
    return flushed;
}

bool
Server::flushTelemetry()
{
    bool written = true;
    if (!options_.metrics_path.empty()) {
        if (FILE *f = std::fopen(options_.metrics_path.c_str(), "w")) {
            const std::string json = statsJson();
            std::fwrite(json.data(), 1, json.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "treegiond: cannot write metrics to %s\n",
                         options_.metrics_path.c_str());
            written = false;
        }
    }
    if (!options_.span_path.empty()) {
        auto &spans = support::SpanCollector::instance();
        if (spans.dropped() > 0)
            std::fprintf(stderr,
                         "treegiond: span buffer overflowed: %llu spans "
                         "dropped\n",
                         static_cast<unsigned long long>(
                             spans.dropped()));
        if (!spans.writeJsonl(options_.span_path)) {
            std::fprintf(stderr, "treegiond: cannot write spans to %s\n",
                         options_.span_path.c_str());
            written = false;
        }
    }
    if (!options_.flightrec_path.empty()) {
        // The same artifact a crash would leave: on a clean drain
        // the ring dumps to the configured path (once — a panic or
        // fatal signal that beat us here already wrote it).
        support::flightrec::dumpConfigured();
    }
    return written;
}

} // namespace treegion::service
