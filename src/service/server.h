/**
 * @file
 * treegiond's engine: a persistent compile server on an epoll event
 * loop.
 *
 * One event-loop thread multiplexes the Unix-domain and TCP
 * listeners, every live connection, a wake pipe (compile completions
 * posted from the worker pool) and a stop pipe (so requestStop() is
 * safe to call from a signal handler). Connections are nonblocking
 * state machines: bytes accumulate in a per-connection read buffer,
 * every complete frame in the buffer is dispatched in one pass
 * (request batching — a client that pipelines N frames gets all N
 * admitted together instead of lock-step round trips), and responses
 * are flushed through a per-connection write buffer, falling back to
 * EPOLLOUT when the kernel buffer fills. Lightweight verbs (ping,
 * stats, fill) are answered on the loop thread; compile work is
 * dispatched to the shared support::ThreadPool and its response is
 * posted back to the loop, so the loop never blocks on a compile.
 * Responses are sequenced per connection: pipelined requests finish
 * on the pool in any order but are written back in arrival order.
 *
 * Robustness model (unchanged from the threaded server):
 *  - admission control: at most queue_limit requests may be admitted
 *    (queued + compiling) at once; beyond that the server answers
 *    "rejected" with a retry-after hint instead of growing an
 *    unbounded queue;
 *  - per-request deadlines: a request that waited in the queue past
 *    its deadline-ms is answered "deadline" without compiling —
 *    stale work is cancelled, not executed;
 *  - per-connection limits: at most max_connections concurrent
 *    connections; extra ones get one "rejected" response and are
 *    closed;
 *  - graceful drain: requestStop() (SIGTERM) closes the listeners,
 *    answers "shutting-down" to new requests on live connections,
 *    finishes everything already admitted, then flushes metrics (a
 *    JSON snapshot and one Chrome trace per drain).
 *
 * Results are content-addressed in a CompileCache; with verify_hits
 * (default on in debug builds) every hit is recompiled and asserted
 * bit-identical to the cached bytes, enforcing the determinism
 * invariant end to end.
 *
 * Clustering: a replica started with a peer list and its own address
 * shares a consistent-hash ring with its peers (and with cluster
 * clients — see service/ring.h). Clients route each request to the
 * replica owning its cache key; when a replica compiles a key it
 * does not own (a misrouted client, or a rebalanced ring after a
 * peer died), it forwards the finished result to the owner with a
 * "fill" request, so the owner's cache warms without recompiling.
 * Fills are best-effort: a peer that refuses the connection is
 * marked dead and skipped from then on. Per-shard counters
 * (shard_owned/shard_foreign/fills_*) are folded into /stats.
 */

#ifndef TREEGION_SERVICE_SERVER_H
#define TREEGION_SERVICE_SERVER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/protocol.h"
#include "service/ring.h"
#include "support/metrics.h"
#include "support/spans.h"
#include "support/thread_pool.h"

namespace treegion::service {

/**
 * retryAfterHintMs() fallback while the request histogram is still
 * empty: a cold daemon has measured nothing, so it hints a flat
 * default instead of the clamp floor (which told backed-off clients
 * to come back almost immediately). Pinned by service_test.cc.
 */
constexpr int64_t kColdRetryHintMs = 50;

/** Everything configurable about a Server. */
struct ServerOptions
{
    /** Unix-domain socket path; empty = no unix listener. */
    std::string unix_path;

    /** TCP port; -1 = no TCP listener, 0 = pick an ephemeral port.
     * Always prefer 0 in tests and scripts and read the bound port
     * back from Server::tcpPort() (treegiond prints it): fixed ports
     * collide across concurrent test runs. */
    int tcp_port = -1;

    /** TCP bind address. */
    std::string tcp_host = "127.0.0.1";

    /** Compile pool workers; 0 = one per hardware thread. */
    size_t threads = 0;

    /** Max admitted (queued + compiling) compile requests. */
    size_t queue_limit = 64;

    /** Max concurrent connections. */
    size_t max_connections = 64;

    /** Frame size limit (oversized requests are rejected). */
    size_t max_frame_bytes = kDefaultMaxFrameBytes;

    /** Compile cache payload budget; 0 disables the cache. */
    size_t cache_bytes = 64u << 20;

    /** Recompile on every cache hit and assert bit-identity. */
#ifndef NDEBUG
    bool verify_hits = true;
#else
    bool verify_hits = false;
#endif

    /** Write the metrics JSON here on drain; empty = don't. */
    std::string metrics_path;

    /**
     * Cluster membership: every replica's client-visible address
     * (including this one's). Non-empty = clustered; the ring over
     * these addresses decides which replica owns which cache key.
     */
    std::vector<std::string> peers;

    /** This replica's own address, verbatim as it appears in peers. */
    std::string self_address;

    /**
     * Test hook: hold every compile request in the queue for this
     * long before it is considered for execution. Makes deadline and
     * backpressure behavior deterministic in tests and CI, and pins
     * the per-request service time in the cluster capacity bench.
     */
    int64_t debug_queue_delay_ms = 0;

    /**
     * Write every recorded span (support/spans.h JSONL) here on
     * drain; empty = do not enable span collection. Requests that
     * arrive with `trace-id`/`parent-span` headers join the caller's
     * trace; others root fresh server-local traces, sampled at
     * span_sample.
     */
    std::string span_path;

    /** Probability a locally rooted trace is sampled, in [0, 1].
     * Propagated contexts keep their root's decision. */
    double span_sample = 1.0;

    /**
     * Crash flight-recorder dump target (support/flightrec.h): set
     * as the configured dump path at start, written by TG_PANIC /
     * fatal-signal handlers and again on the drain path so a clean
     * SIGTERM leaves the same post-mortem artifact a crash would.
     * Empty = leave the recorder's dump target alone.
     */
    std::string flightrec_path;

    /**
     * Peak-memory admission budget in bytes; 0 = no memory gate.
     * When set, every compile request's peak footprint is projected
     * from its module and options (sched/mem_estimate.h) before
     * dispatch. Requests whose projection does not fit next to the
     * in-flight total are parked (largest-fitting-first re-admission
     * as compiles finish) rather than dispatched; parked requests
     * beyond queue_limit are rejected with a retry hint. Admission
     * goes through a support::MemoryGate, so its progress rule
     * holds: a request projected over the entire budget runs solo
     * instead of being rejected.
     */
    uint64_t mem_budget_bytes = 0;
};

/** A running compile server (see the file header for the model). */
class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Drains and stops if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the configured listeners and start the event loop.
     * @return false and set @p error on bind/listen failure.
     */
    bool start(std::string *error);

    /**
     * Begin a graceful drain. Async-signal-safe: just an atomic
     * store and a pipe write, so SIGTERM handlers may call it.
     */
    void requestStop();

    /**
     * Block until the drain completes and every thread is joined.
     * @return false when the drain could not write a configured
     * telemetry file (metrics JSON or span JSONL); a call after the
     * first drains nothing and returns true.
     */
    bool waitUntilStopped();

    /** @return the TCP port actually bound (after start). */
    int tcpPort() const { return tcp_port_; }

    /** @return the live metrics registry. */
    support::MetricsRegistry &metrics() { return metrics_; }

    /** @return a snapshot of the compile cache counters. */
    CompileCache::Stats cacheStats() const { return cache_.stats(); }

    /**
     * @return the /stats JSON: the metrics registry plus cache,
     * cluster and configuration gauges, one consistent snapshot.
     */
    std::string statsJson() const;

    /**
     * Flush buffered telemetry (metrics JSON, span JSONL, flight
     * recorder) to the configured paths right now. Runs on the
     * clean-drain path; also the daemon's TG_PANIC hook, so a
     * panic on any thread leaves the same evidence a drain would.
     * Every file it cannot write, and any spans dropped past the
     * buffer cap, is reported on stderr. NOT async-signal-safe —
     * fatal-signal handlers get only the flight recorder's
     * write()-based dump.
     * @return false when the metrics JSON or the span JSONL could
     * not be written.
     */
    bool flushTelemetry();

  private:
    /** One nonblocking connection's state machine. */
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;
        bool counted = true;  ///< occupies a max_connections slot
        bool http = false;    ///< switched into one-shot HTTP mode
        bool read_eof = false;
        bool want_close = false;  ///< close once out_ is flushed
        bool epollout = false;    ///< EPOLLOUT currently armed
        std::string in;    ///< received, not yet consumed
        std::string out;   ///< encoded, not yet written
        size_t out_off = 0;
        /** Oversized-frame bytes still to read and discard before
         * the connection may close (closing earlier would RST the
         * rejection response out of the peer's receive buffer). */
        size_t drain_left = 0;
        uint64_t next_seq = 0;  ///< sequence of the next request
        uint64_t sent_seq = 0;  ///< responses appended to out so far
        /** Finished responses waiting for their turn in sequence. */
        std::map<uint64_t, std::string> done;
        size_t inflight = 0;  ///< requests on the pool right now
    };

    /** A compile finished on the pool; deliver on the loop thread. */
    struct Completion
    {
        uint64_t conn_id = 0;
        uint64_t seq = 0;
        std::string encoded;
        /** Memory reservation to release on delivery (0 = none). */
        uint64_t projected = 0;
        /** The request's trace context (invalid = untraced): the
         * loop thread records "response-write" under it. */
        support::SpanContext trace;
        /** epochUs when the pool posted the completion. */
        int64_t posted_us = 0;
    };

    /** A compile parked by the memory gate, awaiting headroom. */
    struct ParkedCompile
    {
        uint64_t conn_id = 0;
        uint64_t seq = 0;
        int64_t enqueue_us = 0;   ///< original arrival time (steady)
        uint64_t projected = 0;   ///< projected peak footprint
        /** epochUs when parked (0 = span collection off). */
        int64_t park_start_us = 0;
        Request req;
    };

    void eventLoop();
    void acceptPending(int listener_fd);
    void onReadable(Conn &conn);
    void onWritable(Conn &conn);
    /** Consume every complete frame in conn.in. */
    void consumeBuffer(Conn &conn);
    void dispatch(Conn &conn, std::string payload);
    /** Answer verbs the loop thread can serve without the pool. */
    Response handleInline(const Request &req);
    /** Admission-check @p req and either answer inline or dispatch
     * the compile to the pool. */
    void dispatchCompile(Conn &conn, uint64_t seq, Request req);
    /** Projected peak compile footprint of @p req; 0 = no budget. */
    uint64_t projectedPeakBytes(const Request &req) const;
    /**
     * Reserve a queue slot and hand the compile, with the
     * @p projected bytes already reserved in mem_gate_, to the pool.
     * @return false when the queue is full; the caller then returns
     * those bytes to the gate. @p counted: the request already holds
     * its conn.inflight / jobs_inflight_ counts (parked re-admission).
     * @p enqueue_us: the arrival time, steady-clock microseconds.
     * @p park_start_us/@p park_end_us: the memory-gate park window
     * (epochUs) a re-admitted request waited through, 0/0 when it
     * was never parked — recorded as a "mem-gate-park" span.
     */
    bool submitCompile(Conn &conn, uint64_t seq, int64_t enqueue_us,
                       uint64_t projected, Request &&req,
                       bool counted, int64_t park_start_us = 0,
                       int64_t park_end_us = 0);
    /** Re-admit parked compiles that now fit (loop thread). */
    void admitParked();
    void queueResponse(Conn &conn, uint64_t seq,
                       const Response &resp);
    void queueRaw(Conn &conn, uint64_t seq, std::string encoded);
    /** Flush conn.out as far as the kernel accepts. */
    void flushWrites(Conn &conn);
    void closeConn(Conn &conn);
    void updateEpollOut(Conn &conn);
    void drainCompletions();
    bool shouldExitLoop() const;

    /** Compile @p req now (admission already granted; pool thread). */
    Response compileNow(const Request &req);

    /** Offer @p body to @p key's ring owner (pool thread). */
    void forwardFill(size_t owner_index, const CacheKey &key,
                     const std::string &body);

    /** Retry-after hint from the recent request latency. */
    int64_t retryAfterHintMs() const;



    ServerOptions options_;
    /** `svc` stamp on this server's spans: self_address when
     * clustered (so in-process multi-replica tests separate
     * cleanly), else "treegiond". Fixed at construction — span
     * contexts hold a pointer into it. */
    std::string span_service_;
    CompileCache cache_;
    /**
     * Warm-path shortcut: raw (module text, fingerprint) key ->
     * canonical cache key, learned on every compile. A repeat
     * submission with byte-identical text skips parse + verify +
     * canonical printing on its way to the cache — the dominant
     * per-hit cost under farm load. Formatting variants miss here
     * and fall through to the canonical path, so semantics are
     * unchanged. Bounded by clearing wholesale at kRawAliasCap.
     */
    static constexpr size_t kRawAliasCap = 1u << 16;
    mutable std::mutex alias_mutex_;
    std::map<std::pair<uint64_t, uint64_t>, CacheKey> raw_alias_;
    support::MetricsRegistry metrics_;
    std::unique_ptr<support::ThreadPool> pool_;

    /** Static cluster ring over options_.peers (empty = solo). */
    HashRing cluster_;
    size_t self_index_ = 0;
    /** Peers that refused a fill; skipped until restart. */
    std::unique_ptr<std::atomic<bool>[]> peer_dead_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;
    int epoll_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    int wake_pipe_[2] = {-1, -1};

    std::thread loop_thread_;
    std::atomic<bool> stopping_{false};   ///< refuse new compiles
    std::atomic<bool> hard_stop_{false};  ///< finish + exit the loop
    std::atomic<bool> started_{false};
    std::atomic<bool> joined_{false};
    std::atomic<size_t> admitted_{0};  ///< queued + compiling
    std::atomic<size_t> jobs_inflight_{0};

    std::mutex completions_mutex_;
    std::vector<Completion> completions_;

    /** Memory admission, loop thread only: the gate holds the
     * projected peak of every dispatched compile; parked compiles
     * wait there for a release to make room. */
    support::MemoryGate mem_gate_;
    std::vector<ParkedCompile> mem_parked_;

    uint64_t next_conn_id_ = 16;  ///< ids below are listeners/pipes
    std::map<uint64_t, std::unique_ptr<Conn>> conns_;
    size_t counted_conns_ = 0;
};

} // namespace treegion::service

#endif // TREEGION_SERVICE_SERVER_H
