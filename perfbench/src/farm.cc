/**
 * @file
 * Workload `farm-cold`: an in-process treegiond on a Unix socket with
 * two workers, driven by two closed-loop client connections (build
 * tools wait for each compile reply). Every request is a no-cache
 * tree-td/4U compile of a seeded proxy module with the protocol's
 * default 20-run profile, so decode, parse, IR verify,
 * canonicalize+hash and the profiler run on every request.
 *
 * A request is one of a fixed set of jobs, a module with one of its
 * profile seeds; the profile steers formation, so each job is its own
 * compile, and it returns the same body every time it is sent.
 */

#include <algorithm>
#include <cstdlib>
#include <random>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "sched/schedule_verifier.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/server.h"
#include "workloads/profiler.h"

namespace perfbench {

using namespace treegion;

namespace {

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr uint64_t kProfileStream = 0x4650;
constexpr uint64_t kStreamStream = 0x4653;
constexpr const char *kRequestOptions = "scheme=tree-td heuristic=gw width=4";
/**
 * Variants of each of the 8 proxies, and profile seeds per module: 64
 * modules make 1024 jobs, more than the 1000 that leave 10 jobs beyond
 * p99_ms, and enough modules that the seed barely moves the figures.
 */
constexpr int kVariants = 8;
constexpr size_t kProfileSeeds = 16;

/** Everything a farm run sets up before the timed loop. */
struct Farm
{
    std::vector<Program> programs;
    std::vector<std::string> texts;       ///< printed modules
    std::vector<uint64_t> profile_seeds;  ///< per job
    std::string socket;

    size_t jobs() const { return profile_seeds.size(); }
    /** Job j sends module j % modules; jobs below modules are each
     *  module's first profile seed. */
    size_t moduleOf(size_t job) const { return job % programs.size(); }
    std::unique_ptr<service::Server> server;

    void
    stop()
    {
        if (!server)
            return;
        server->requestStop();
        server->waitUntilStopped();
        server.reset();
        ::unlink(socket.c_str());
    }
};

/** The request of job @p j. */
service::Request
makeRequest(const Farm &farm, size_t j)
{
    service::Request req;
    req.options = kRequestOptions;
    req.no_cache = true;
    req.profile_seed = farm.profile_seeds[j];
    req.module_text = farm.texts[farm.moduleOf(j)];
    return req;
}

void
setUp(Farm &farm, const Options &o)
{
    farm.programs = seededProxies(o.seed, kVariants);
    farm.texts.clear();
    farm.profile_seeds.clear();
    for (const Program &p : farm.programs)
        farm.texts.push_back(ir::moduleToString(*p.mod));
    for (size_t j = 0; j < farm.programs.size() * kProfileSeeds; ++j)
        farm.profile_seeds.push_back(deriveSeed(o.seed, kProfileStream, j));

    service::ServerOptions server;
    farm.socket = o.work_dir + "/farm-" + std::to_string(::getpid()) +
                  ".sock";
    ::unlink(farm.socket.c_str());
    server.unix_path = farm.socket;
    server.threads = kWorkers;
    server.verify_hits = false;
    server.cache_bytes = 0;
    farm.server = std::make_unique<service::Server>(std::move(server));
    std::string error;
    if (!farm.server->start(&error)) {
        std::fprintf(stderr, "perfbench: server: %s\n", error.c_str());
        std::exit(1);
    }
}

/** One timed request as the client saw it. */
struct Record
{
    uint32_t job = 0;
    bool ok = false;
    bool traced = false;
    double ms = 0.0;
    double compile_ms = 0.0;
    Clock::time_point sent, done;
};

/** The response body up to and including its "verify:" line. */
std::string
bodyHeader(const std::string &body)
{
    const size_t at = body.find("\nverify: ");
    if (at == std::string::npos)
        return {};
    const size_t end = body.find('\n', at + 1);
    return body.substr(0, end == std::string::npos ? body.size() : end + 1);
}

/** The number after "@p field: " in a response header, or 0. */
double
headerNumber(const std::string &header, const std::string &field)
{
    const size_t at = header.find("\n" + field + ": ");
    return at == std::string::npos
               ? 0.0
               : std::strtod(header.c_str() + at + field.size() + 3,
                             nullptr);
}

/**
 * The number after "@p field": inside the JSON object that follows
 * "@p object": in @p json (the stats verb's body), or 0.
 */
double
statsNumber(const std::string &json, const std::string &object,
            const std::string &field)
{
    size_t at = json.find("\"" + object + "\":");
    if (at == std::string::npos)
        return 0.0;
    at = json.find("\"" + field + "\":", at);
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + field.size() + 3, nullptr);
}

/** Per-client state of the closed loop. */
struct ClientRun
{
    size_t id = 0;
    std::mt19937_64 rng;
    uint64_t next = 0;  ///< requests sent so far
    /** The current block: every job once, shuffled. */
    std::vector<size_t> block;
    std::vector<Record> records;
    /** First response header and body per job. */
    std::vector<std::string> headers, bodies;
    Tracer tracer;
    bool connect_failed = false;
};

/**
 * The next job of @p c's stream: a sequence of shuffled blocks of every
 * job once, so every job runs again and again across the whole run.
 */
size_t
nextJob(const Farm &farm, ClientRun &c)
{
    const uint64_t i = c.next++;
    const size_t n = farm.jobs();
    if (i % n == 0) {
        c.block.resize(n);
        for (size_t j = 0; j < n; ++j)
            c.block[j] = j;
        std::shuffle(c.block.begin(), c.block.end(), c.rng);
    }
    return c.block[i % n];
}

/**
 * Drive one connection: @p count requests (warm-up, unrecorded) or,
 * with count 0, requests until @p deadline (recorded).
 */
void
drive(const Farm &farm, ClientRun &c, uint64_t count,
      Clock::time_point deadline, const Slicer &slicer, uint32_t span)
{
    std::string error;
    auto client = service::Client::connectUnix(farm.socket, &error);
    if (!client) {
        std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
        c.connect_failed = true;
        return;
    }
    for (uint64_t n = 0; count == 0 || n < count; ++n) {
        const size_t j = nextJob(farm, c);
        const service::Request req = makeRequest(farm, j);
        service::Response resp;
        Record r;
        r.job = static_cast<uint32_t>(j);
        r.sent = Clock::now();
        r.traced = slicer.tracedAt(r.sent);
        c.tracer.enabled = r.traced;
        bool sent;
        {
            Scope s(c.tracer, span);
            sent = client->call(req, &resp, &error);
        }
        r.done = Clock::now();
        r.ms = msBetween(r.sent, r.done);
        r.compile_ms = resp.compile_ms;
        const std::string header = bodyHeader(resp.body);
        r.ok = sent && resp.status == service::status::kOk && !resp.cached &&
               header.find("\nverify: ok\n") != std::string::npos;
        if (c.headers[j].empty()) {
            c.headers[j] = header;
            c.bodies[j] = resp.body;
        } else {
            r.ok = r.ok && header == c.headers[j];
        }
        if (count == 0)
            c.records.push_back(r);
        if (count == 0 && r.done >= deadline)
            break;
    }
    c.tracer.enabled = false;
}

/** Run every client concurrently through drive(). */
void
driveAll(const Farm &farm, std::vector<ClientRun> &clients, uint64_t count,
         Clock::time_point deadline, const Slicer &slicer, uint32_t span)
{
    std::vector<std::thread> threads;
    for (ClientRun &c : clients) {
        threads.emplace_back(
            [&] { drive(farm, c, count, deadline, slicer, span); });
    }
    for (std::thread &t : threads)
        t.join();
}

/** The stats verb's JSON body. */
std::string
fetchStats(const Farm &farm, Report &report)
{
    std::string error;
    auto client = service::Client::connectUnix(farm.socket, &error);
    service::Request req;
    req.verb = "stats";
    service::Response resp;
    const bool ok = client && client->call(req, &resp, &error) &&
                    resp.status == service::status::kOk;
    report.check(ok, "stats verb: " + error);
    return resp.body;
}

/** Span names of a replayed request. */
struct ReplaySpans
{
    uint32_t request, decode, encode, parse, verify, key, profile, pipeline,
        sched_verify;
};

/**
 * Replay, on the benchmark thread, the public calls the server and
 * client make for one request, with a span around each; the profile
 * span includes the clone the server profiles. @return the time the
 * root's child spans cover, in milliseconds.
 */
double
replayRequest(const service::Request &req, const std::string &body,
              const ReplaySpans &n, Tracer &tracer,
              std::map<sched::RegionScheme, uint64_t> &compiles,
              uint64_t *profile_ops, Report &report)
{
    const size_t root_index = tracer.spans().size();
    Scope root(tracer, n.request);
    std::string payload;
    {
        Scope s(tracer, n.encode);
        payload = service::encodeRequest(req);
    }
    service::Request parsed;
    {
        Scope s(tracer, n.decode);
        std::string error;
        report.check(service::parseRequest(payload, parsed, &error),
                     "replayed request decode: " + error);
    }
    std::unique_ptr<ir::Module> mod;
    {
        Scope s(tracer, n.parse);
        mod = ir::parseModule(parsed.module_text, nullptr);
    }
    if (!mod || mod->functions().empty()) {
        report.check(false, "replayed request does not parse");
        return 0.0;
    }
    ir::Function &fn = *mod->functions().front();
    {
        Scope s(tracer, n.verify);
        report.check(
            ir::verifyFunction(fn, ir::VerifyLevel::Schedulable).empty(),
            "replayed module fails the IR verifier");
    }
    {
        Scope s(tracer, n.key);
        service::makeCacheKey(service::canonicalFunctionText(fn),
                              parsed.configFingerprint());
    }
    sched::PipelineOptions options;
    sched::parsePipelineOptions(parsed.options, options);
    std::unique_ptr<ir::Function> work;
    {
        Scope s(tracer, n.profile);
        work = std::make_unique<ir::Function>(fn.clone());
        workloads::ProfileOptions prof;
        prof.input_seed = parsed.profile_seed;
        prof.runs = parsed.profile_runs;
        *profile_ops +=
            workloads::profileFunction(*work, mod->memWords(), prof)
                .total_ops;
    }
    ReplayResult compiled = [&] {
        Scope s(tracer, n.pipeline);
        return replayPipeline(*work, options, tracer);
    }();
    ++compiles[options.scheme];
    {
        Scope s(tracer, n.sched_verify);
        report.check(sched::verifyFunctionSchedule(compiled.schedule,
                                                   options.model.issue_width)
                         .empty(),
                     "replayed schedule fails the verifier");
    }
    report.check(headerNumber(bodyHeader(body), "cycles") ==
                     compiled.estimated_time,
                 "replayed compile differs from the served one");
    service::Response resp;
    resp.body = body;
    {
        Scope s(tracer, n.encode);
        payload = service::encodeResponse(resp);
    }
    {
        Scope s(tracer, n.decode);
        std::string error;
        service::Response decoded;
        report.check(service::parseResponse(payload, decoded, &error),
                     "replayed response decode: " + error);
    }
    double covered_ms = 0.0;
    const auto &spans = tracer.spans();
    for (size_t i = root_index + 1; i < spans.size(); ++i) {
        if (spans[i].parent == static_cast<int32_t>(root_index))
            covered_ms += (spans[i].end_ns - spans[i].start_ns) / 1e6;
    }
    return covered_ms;
}

/** Module @p m parsed from its text and profiled as the server does. */
std::unique_ptr<ir::Module>
profiledModule(const Farm &farm, size_t m)
{
    auto mod = ir::parseModule(farm.texts[m], nullptr);
    workloads::ProfileOptions prof;
    prof.input_seed = farm.profile_seeds[m];
    workloads::profileFunction(*mod->functions().front(), mod->memWords(),
                               prof);
    return mod;
}

} // namespace

void
runFarm(const Options &o, Report &report)
{
    Farm farm;
    const auto setup = [&] { setUp(farm, o); };
    const auto reset = [&] { farm.stop(); };
    const double setup_s = medianSetupSeconds(setupReps(o), setup, reset);
    const size_t modules = farm.programs.size();
    const size_t jobs = farm.jobs();

    std::vector<ClientRun> clients(kClients);
    for (size_t i = 0; i < kClients; ++i) {
        clients[i].id = i;
        clients[i].rng.seed(deriveSeed(o.seed, kStreamStream, i));
        clients[i].headers.resize(jobs);
        clients[i].bodies.resize(jobs);
    }
    const uint32_t call_span = spanName("service.client_call");
    // Warm-up: let lazy set-up finish.
    const Slicer untraced(Clock::now(), false);
    driveAll(farm, clients, modules / kClients, Clock::now(), untraced,
             call_span);

    const auto start = Clock::now();
    const auto deadline = after(start, o.seconds);
    const Slicer slicer(start, o.trace);
    driveAll(farm, clients, 0, deadline, slicer, call_span);
    const std::string stats_after = fetchStats(farm, report);

    // Merge the clients' records and first responses; every job's header
    // must agree across connections.
    std::vector<Record> records;
    std::vector<std::string> headers(jobs), bodies(jobs);
    for (const ClientRun &c : clients) {
        report.check(!c.connect_failed, "client could not connect");
        records.insert(records.end(), c.records.begin(), c.records.end());
        for (size_t j = 0; j < jobs; ++j) {
            if (c.headers[j].empty())
                continue;
            if (headers[j].empty()) {
                headers[j] = c.headers[j];
                bodies[j] = c.bodies[j];
            }
            report.check(c.headers[j] == headers[j],
                         "connections disagree on a response");
        }
    }
    for (const Record &r : records)
        report.op(r.ok);
    report.check(report.failed() == 0, "a request failed or its body "
                                       "differs from the job's first one");

    std::vector<Op> ops;
    Samples latency, compile_ms;
    std::vector<uint64_t> per_module(modules, 0);
    OverheadMeter overhead;
    for (const Record &r : records) {
        ops.push_back({r.job, r.ms});
        latency.add(r.ms);
        compile_ms.add(r.compile_ms);
        overhead.add(r.traced, r.ms);
        ++per_module[farm.moduleOf(r.job)];
    }

    if (!o.trace) {
        // The paper's figures over each module's first profile seed.
        std::vector<double> speedups, expansions;
        for (size_t m = 0; m < modules; ++m) {
            if (headers[m].empty())
                continue;
            speedups.push_back(report.ratio(
                sched::estimateBaselineTime(
                    *profiledModule(farm, m)->functions().front()),
                headerNumber(headers[m], "cycles"), "speedup"));
            expansions.push_back(headerNumber(headers[m], "expansion"));
        }
        reportBestOf(ops, jobs, kClients, speedups, expansions, setup_s,
                     report);
        farm.stop();
        return;
    }

    // Server-side counters over the timed phase (stats verb).
    const double requests = latency.size();
    report.metric("service.queue_wait_ms_p50",
                  statsNumber(stats_after, "queue_wait_ms", "p50"), "ms");
    report.metric("service.queue_wait_ms_p99",
                  statsNumber(stats_after, "queue_wait_ms", "p99"), "ms");
    const double queue_wait_ms =
        statsNumber(stats_after, "queue_wait_ms", "mean");
    report.metric("service.compile_ms_p50",
                  compile_ms.percentile(0.5, report, "compile p50"), "ms");

    // Replay the server's calls on the same request bytes, for each
    // module at its first profile seed (job m), weighted by how often
    // the module was requested.
    registerReplayNames();
    const ReplaySpans names{
        spanName("replay.request"),    spanName("service.decode"),
        spanName("service.encode"),    spanName("ir.parse"),
        spanName("ir.verify"),         spanName("service.key"),
        spanName("workloads.profile"), spanName("sched.pipeline"),
        spanName("sched.verify")};
    Tracer tracer;
    tracer.enabled = true;
    std::map<sched::RegionScheme, uint64_t> compiles;
    uint64_t profile_ops = 0;
    double attributed_ms = 0.0;  // request-weighted
    size_t replays = 0;
    constexpr int kReplayReps = 2;
    std::vector<size_t> replayed;
    for (size_t m = 0; m < modules; ++m) {
        if (bodies[m].empty())
            continue;
        replayed.push_back(m);
        double covered = 0.0;
        for (int rep = 0; rep < kReplayReps; ++rep) {
            uint64_t ops_count = 0;
            covered += replayRequest(makeRequest(farm, m), bodies[m], names,
                                     tracer, compiles, &ops_count, report);
            if (rep == 0)
                profile_ops += ops_count;
            ++replays;
        }
        attributed_ms += covered / kReplayReps * per_module[m] / requests;
    }
    const LayerTimes times = aggregateSpans({&tracer});
    const auto perReplay = [&](const std::string &name) {
        return report.ratio(times.get(name).total_us, replays,
                            "replayed requests");
    };
    report.metric("service.decode_us", perReplay("service.decode"), "us");
    report.metric("service.encode_us", perReplay("service.encode"), "us");
    report.metric("service.key_us", perReplay("service.key"), "us");
    report.metric("ir.parse_us", perReplay("ir.parse"), "us");
    report.metric("ir.verify_us", perReplay("ir.verify"), "us");
    report.metric("sched.pipeline_us", perReplay("sched.pipeline"), "us");
    report.metric("sched.verify_us", perReplay("sched.verify"), "us");
    const double profile_us = times.get("workloads.profile").total_us;
    report.metric("workloads.profile_us", perReplay("workloads.profile"),
                  "us");
    report.metric("workloads.profile_dyn_ops", profile_ops, "count");
    report.metric("workloads.profile_ns_per_op",
                  report.ratio(profile_us * 1000.0,
                               profile_ops * kReplayReps, "profiled ops"),
                  "ns");
    reportReplayStages(times, compiles, report);
    // Client latency = queue wait + replayed layers + other.
    const double other_ms = latency.mean() - queue_wait_ms - attributed_ms;
    report.metric("service.other_ms", other_ms, "ms");
    report.metric("service.other_share",
                  report.ratio(other_ms, latency.mean(), "latency"), "ratio");

    std::vector<std::pair<const ir::Function *, sched::PipelineOptions>>
        probe_jobs;
    std::vector<std::unique_ptr<ir::Module>> profiled;
    for (size_t m : replayed) {
        profiled.push_back(profiledModule(farm, m));
        sched::PipelineOptions options;
        sched::parsePipelineOptions(kRequestOptions, options);
        probe_jobs.emplace_back(profiled.back()->functions().front().get(),
                                options);
    }
    reportSchemeProbes(probe_jobs, report);

    report.metric("trace.overhead_share", overhead.share(report), "ratio");
    std::vector<const Tracer *> all = {&tracer};
    for (const ClientRun &c : clients)
        all.push_back(&c.tracer);
    report.check(writeSpans(o.work_dir + "/spans-" + o.workload + ".jsonl",
                            all),
                 "writing spans");
    farm.stop();
}

} // namespace perfbench
