/**
 * @file
 * treegiond — the treegion compile daemon.
 *
 * A persistent compile server: clients submit .tir modules plus a
 * pipeline configuration over a Unix-domain or TCP socket and get
 * back schedules, statistics and estimated times. Results are
 * content-addressed in an LRU cache; the queue is bounded with
 * backpressure; SIGTERM/SIGINT drain gracefully (finish in-flight
 * work, refuse new, flush metrics). See src/service/ and DESIGN.md
 * §9 for the protocol and the robustness model.
 *
 * Usage:
 *   treegiond [--unix PATH] [--tcp PORT] [options]
 *
 * Options:
 *   --unix PATH            listen on a Unix-domain socket
 *   --tcp PORT             listen on 127.0.0.1:PORT (0 = ephemeral;
 *                          the bound port is printed to stdout)
 *   --host ADDR            TCP bind address (default 127.0.0.1)
 *   --threads N            compile workers (default: all cores)
 *   --queue-limit N        max in-flight compile requests (default 64)
 *   --mem-budget-mb N      park compiles whose projected peak heap
 *                          would push the in-flight total past N MiB
 *                          (default 0 = no memory gate)
 *   --max-connections N    max concurrent connections (default 64)
 *   --cache-mb N           compile cache budget in MiB (default 64;
 *                          0 disables caching)
 *   --max-request-kb N     request frame limit in KiB (default 4096)
 *   --verify-hits 0|1      recompile every cache hit and assert
 *                          bit-identity (default: 1 in debug builds)
 *   --metrics-json FILE    write the /stats JSON here on drain
 *   --trace-spans FILE     enable distributed tracing; write the
 *                          span JSONL (treegion-span/v1) here on
 *                          drain — merge files from every replica
 *                          and client with `treegion-report
 *                          --trace-merge` (add `--chrome FILE` for a
 *                          Chrome trace)
 *   --trace-sample R       probability a locally rooted trace is
 *                          sampled, in [0,1] (default 1; requests
 *                          carrying trace-id headers keep their
 *                          root's decision)
 *   --flight-rec FILE      crash flight recorder: dump the last
 *                          events of every thread here on panic,
 *                          fatal signal, or clean drain
 *   --peers A,B,C          cluster membership: every replica's
 *                          client-visible address, identical on all
 *                          replicas (the consistent-hash ring is
 *                          built over these strings)
 *   --self ADDR            this replica's own address, verbatim as
 *                          it appears in --peers (required with
 *                          --peers)
 *   --debug-queue-delay-ms N  test hook: hold each request in the
 *                          queue this long (deadline/backpressure
 *                          demos and CI)
 *
 * Observability: send a "stats" request over the protocol, or plain
 * HTTP — `curl --unix-socket PATH http://treegiond/stats` or
 * `curl http://127.0.0.1:PORT/stats` — against the same listeners.
 *
 * Exit status: 0 after a clean drain; 1 when a listener cannot be
 * bound, or when the drain could not write the --metrics-json or
 * --trace-spans file (each such path is named on stderr); 2 on a
 * usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/string_utils.h"

using namespace treegion;

namespace {

service::Server *g_server = nullptr;

void
handleSignal(int)
{
    // requestStop is async-signal-safe (atomic store + pipe write).
    if (g_server)
        g_server->requestStop();
}

/**
 * TG_PANIC hook: runs in normal (non-signal) context, so the full
 * telemetry flush is allowed — metrics JSON, span JSONL and the
 * flight-recorder rings all land on their configured paths before
 * the abort. Fatal signals take only the flight recorder's
 * async-signal-safe dump (installCrashHandlers).
 */
void
panicFlush()
{
    if (service::Server *server = g_server)
        server->flushTelemetry();
    else
        support::flightrec::dumpConfigured();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--unix PATH] [--tcp PORT] [options]\n"
                 "see the file header or README for options\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions options;
    options.threads = 0;  // all cores

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--unix") {
            options.unix_path = next();
        } else if (arg == "--tcp") {
            options.tcp_port = std::atoi(next());
        } else if (arg == "--host") {
            options.tcp_host = next();
        } else if (arg == "--threads") {
            options.threads =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--queue-limit") {
            options.queue_limit =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--mem-budget-mb") {
            options.mem_budget_bytes =
                static_cast<uint64_t>(std::atoll(next())) << 20;
        } else if (arg == "--max-connections") {
            options.max_connections =
                static_cast<size_t>(std::atoll(next()));
        } else if (arg == "--cache-mb") {
            options.cache_bytes =
                static_cast<size_t>(std::atoll(next())) << 20;
        } else if (arg == "--max-request-kb") {
            options.max_frame_bytes =
                static_cast<size_t>(std::atoll(next())) << 10;
        } else if (arg == "--verify-hits") {
            options.verify_hits = std::atoi(next()) != 0;
        } else if (arg == "--metrics-json") {
            options.metrics_path = next();
        } else if (arg == "--trace-spans") {
            options.span_path = next();
        } else if (arg == "--trace-sample") {
            options.span_sample = std::atof(next());
        } else if (arg == "--flight-rec") {
            options.flightrec_path = next();
        } else if (arg == "--peers") {
            options.peers = support::splitString(next(), ',');
        } else if (arg == "--self") {
            options.self_address = next();
        } else if (arg == "--debug-queue-delay-ms") {
            options.debug_queue_delay_ms = std::atoll(next());
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (options.unix_path.empty() && options.tcp_port < 0)
        return usage(argv[0]);

    if (!options.flightrec_path.empty()) {
        // Arm the flight recorder before any worker can crash: the
        // ring dumps on TG_PANIC (hook), fatal signals (handlers),
        // and the clean drain path (Server::flushTelemetry).
        support::flightrec::setDumpPath(
            options.flightrec_path.c_str());
        support::flightrec::installCrashHandlers();
    }
    // Once the server exists the hook upgrades to the full flush
    // (metrics + spans + rings); until then it is the ring dump.
    support::setPanicHook(&panicFlush);

    // The handlers go in before start binds the listeners: a script
    // may signal as soon as the socket exists. A stop requested
    // before the loop runs only sets the flag; waitUntilStopped
    // honours it and drains.
    service::Server server(std::move(options));
    g_server = &server;
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGINT, handleSignal);
    std::signal(SIGPIPE, SIG_IGN);
    std::string error;
    if (!server.start(&error)) {
        g_server = nullptr;
        std::fprintf(stderr, "treegiond: %s\n", error.c_str());
        return 1;
    }

    if (server.tcpPort() >= 0) {
        // Scripts read this to find an ephemeral port.
        std::printf("port %d\n", server.tcpPort());
        std::fflush(stdout);
    }
    std::fprintf(stderr, "treegiond: serving (SIGTERM drains)\n");

    const bool flushed = server.waitUntilStopped();
    g_server = nullptr;
    if (!flushed) {
        std::fprintf(stderr, "treegiond: drained, but telemetry was "
                             "not written\n");
        return 1;
    }
    std::fprintf(stderr, "treegiond: drained cleanly\n");
    return 0;
}
