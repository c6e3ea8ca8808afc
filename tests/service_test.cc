/**
 * @file
 * Tests for the compile service: cache keys, the LRU cache, the wire
 * protocol and its framing, and a live server end to end over a
 * Unix-domain socket —
 * caching (with the bit-identity invariant verified), deadlines,
 * backpressure, oversized frames, stats (including the remark
 * counters a miss folds in), plain-HTTP /stats, modules too small to
 * profile, and graceful drain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ir/parser.h"
#include "ir/printer.h"
#include "sched/mem_estimate.h"
#include "sched/pipeline.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/remarks.h"
#include "support/spans.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"

namespace treegion::service {
namespace {

void
replaceAll(std::string &text, const std::string &from,
           const std::string &to)
{
    for (size_t pos = 0;
         (pos = text.find(from, pos)) != std::string::npos;
         pos += to.size())
        text.replace(pos, from.size(), to);
}

/** A small but non-trivial module: a loop plus a diamond. */
const char *kModule = R"(module sum_loop mem=1024
func @main entry=bb0 gprs=16 preds=4 {
  block bb0 weight=1 edges=[1] {
    r0 = MOVI 0
    r1 = MOVI 0
    r2 = MOVI 0
    BRU bb1
  }
  block bb1 weight=11 edges=[10,1] {
    p0 = CMPP.LT r1, 10
    BRCT p0, bb2, bb5
  }
  block bb2 weight=10 edges=[2,8] {
    r3 = LD [r0 + 4]
    r4 = ADD r3, r1
    p1 = CMPP.GT r4, 100
    BRCT p1, bb4, bb3
  }
  block bb3 weight=8 edges=[8] {
    r2 = ADD r2, r4
    BRU bb4
  }
  block bb4 weight=10 edges=[10] {
    r1 = ADD r1, 1
    BRU bb1
  }
  block bb5 weight=1 {
    ST [r0 + 64], r2
    RET r2
  }
}
)";

ir::Function &
firstFunction(std::unique_ptr<ir::Module> &mod,
              const std::string &text = kModule)
{
    std::string error;
    mod = ir::parseModule(text, &error);
    EXPECT_TRUE(mod) << error;
    return *mod->functions().front();
}

// ---------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------

TEST(CacheKey, CanonicalTextIsAPrintFixedPoint)
{
    std::unique_ptr<ir::Module> mod;
    const std::string once = canonicalFunctionText(firstFunction(mod));

    // Re-parse the printed text and print again: identical, so the
    // key is stable across any number of print->parse round trips.
    std::string error;
    auto reparsed = ir::parseModule(
        "module m mem=1024\n" + once, &error);
    ASSERT_TRUE(reparsed) << error;
    const std::string twice =
        canonicalFunctionText(*reparsed->functions().front());
    EXPECT_EQ(once, twice);
    EXPECT_EQ(makeCacheKey(once, "cfg"), makeCacheKey(twice, "cfg"));
}

TEST(CacheKey, InsensitiveToSurfaceFormatting)
{
    // Extra blank lines don't change the parsed function, so they
    // must not change the canonical text either.
    std::unique_ptr<ir::Module> mod1, mod2;
    std::string spaced = kModule;
    replaceAll(spaced, "\n  block", "\n\n  block");
    EXPECT_EQ(canonicalFunctionText(firstFunction(mod1)),
              canonicalFunctionText(firstFunction(mod2, spaced)));
}

TEST(CacheKey, DependsOnFunctionAndConfig)
{
    const CacheKey base = makeCacheKey("fn-a", "cfg-a");
    EXPECT_NE(base, makeCacheKey("fn-b", "cfg-a"));
    EXPECT_NE(base, makeCacheKey("fn-a", "cfg-b"));
    // The two halves must not be confusable: moving a byte across
    // the separator changes the key.
    EXPECT_NE(makeCacheKey("ab", "c"), makeCacheKey("a", "bc"));
    EXPECT_EQ(base.str().size(), 32u);  // 128 bits in hex
}

TEST(CacheKey, EveryPipelineOptionFieldChangesTheKey)
{
    // One mutator per PipelineOptions field. If someone adds a field
    // and forgets to encode it, the encoding (and hence the key)
    // stays put — this test pins the contract for the fields we have.
    using Mut = void (*)(sched::PipelineOptions &);
    const Mut mutators[] = {
        [](sched::PipelineOptions &o) {
            o.scheme = sched::RegionScheme::Superblock;
        },
        [](sched::PipelineOptions &o) {
            o.sched.heuristic = sched::Heuristic::ExitCount;
        },
        [](sched::PipelineOptions &o) {
            o.model = sched::MachineModel::custom(7);
        },
        [](sched::PipelineOptions &o) {
            o.sched.dominator_parallelism =
                !o.sched.dominator_parallelism;
        },
        [](sched::PipelineOptions &o) {
            o.sched.materialize_pbr = !o.sched.materialize_pbr;
        },
        [](sched::PipelineOptions &o) {
            o.tail_dup.expansion_limit += 0.25;
        },
        [](sched::PipelineOptions &o) { o.tail_dup.path_limit += 1; },
        [](sched::PipelineOptions &o) { o.tail_dup.merge_limit += 1; },
        [](sched::PipelineOptions &o) {
            o.tail_dup.max_region_blocks += 1;
        },
        [](sched::PipelineOptions &o) {
            o.superblock.cold_edge_weight += 0.5;
        },
        [](sched::PipelineOptions &o) {
            o.superblock.min_edge_prob += 0.01;
        },
        [](sched::PipelineOptions &o) {
            o.superblock.mutual_most_likely =
                !o.superblock.mutual_most_likely;
        },
        [](sched::PipelineOptions &o) {
            o.superblock.max_blocks += 1;
        },
        [](sched::PipelineOptions &o) {
            o.hyperblock.min_weight_ratio += 0.01;
        },
        [](sched::PipelineOptions &o) { o.hyperblock.max_blocks += 1; },
        [](sched::PipelineOptions &o) { o.hyperblock.path_limit += 1; },
    };

    const sched::PipelineOptions base;
    Request req;
    req.options = sched::encodePipelineOptions(base);
    const CacheKey base_key =
        makeCacheKey("fn", req.configFingerprint());

    for (const Mut mutate : mutators) {
        sched::PipelineOptions mutated = base;
        mutate(mutated);
        Request changed;
        changed.options = sched::encodePipelineOptions(mutated);
        EXPECT_NE(changed.options, req.options);
        EXPECT_NE(makeCacheKey("fn", changed.configFingerprint()),
                  base_key)
            << changed.options;
    }
}

TEST(CacheKey, RequestFieldsThatShapeTheBodyChangeTheKey)
{
    Request base;
    const CacheKey key = makeCacheKey("fn", base.configFingerprint());

    Request schedule = base;
    schedule.want_schedule = true;
    EXPECT_NE(makeCacheKey("fn", schedule.configFingerprint()), key);

    Request profile = base;
    profile.profile = false;
    EXPECT_NE(makeCacheKey("fn", profile.configFingerprint()), key);

    Request seed = base;
    seed.profile_seed += 1;
    EXPECT_NE(makeCacheKey("fn", seed.configFingerprint()), key);

    Request runs = base;
    runs.profile_runs += 1;
    EXPECT_NE(makeCacheKey("fn", runs.configFingerprint()), key);

    // deadline-ms and no-cache do NOT shape the body, so they must
    // NOT fragment the cache.
    Request deadline = base;
    deadline.deadline_ms = 500;
    deadline.no_cache = true;
    EXPECT_EQ(makeCacheKey("fn", deadline.configFingerprint()), key);
}

TEST(PipelineOptions, EncodeParseRoundTrip)
{
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    options.sched.heuristic = sched::Heuristic::WeightedCount;
    options.model = sched::MachineModel::custom(6);
    options.sched.materialize_pbr = true;
    options.tail_dup.expansion_limit = 1.7320508075688772;
    options.superblock.min_edge_prob = 0.7;
    options.hyperblock.path_limit = 9;

    const std::string encoded = sched::encodePipelineOptions(options);
    sched::PipelineOptions parsed;
    std::string error;
    ASSERT_TRUE(sched::parsePipelineOptions(encoded, parsed, &error))
        << error;
    // The encoding is canonical: round-tripping reproduces it
    // byte-for-byte (doubles included, via %.17g).
    EXPECT_EQ(sched::encodePipelineOptions(parsed), encoded);
}

TEST(PipelineOptions, ParseRejectsUnknownKeysAndBadValues)
{
    sched::PipelineOptions out;
    std::string error;
    EXPECT_FALSE(sched::parsePipelineOptions("bogus=1", out, &error));
    EXPECT_FALSE(
        sched::parsePipelineOptions("scheme=warp", out, &error));
    EXPECT_FALSE(
        sched::parsePipelineOptions("heuristic=magic", out, &error));
    EXPECT_FALSE(sched::parsePipelineOptions("width=0", out, &error));
    EXPECT_FALSE(sched::parsePipelineOptions("width", out, &error));
    EXPECT_TRUE(sched::parsePipelineOptions("", out, &error)) << error;
    EXPECT_TRUE(
        sched::parsePipelineOptions("scheme=sb width=2", out, &error))
        << error;
    EXPECT_EQ(out.scheme, sched::RegionScheme::Superblock);
    EXPECT_EQ(out.model.issue_width, 2);
}

// ---------------------------------------------------------------
// CompileCache
// ---------------------------------------------------------------

TEST(CompileCache, HitMissAndLruEviction)
{
    CompileCache cache(/*max_bytes=*/10);
    const CacheKey a{1, 0}, b{2, 0}, c{3, 0};

    EXPECT_FALSE(cache.lookup(a).has_value());
    cache.insert(a, "aaaa");  // 4 bytes
    cache.insert(b, "bbbb");  // 8 bytes total
    ASSERT_TRUE(cache.lookup(a).has_value());
    EXPECT_EQ(*cache.lookup(a), "aaaa");

    // a was just refreshed, so inserting 4 more bytes evicts b.
    cache.insert(c, "cccc");
    EXPECT_TRUE(cache.lookup(a).has_value());
    EXPECT_FALSE(cache.lookup(b).has_value());
    EXPECT_TRUE(cache.lookup(c).has_value());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 8u);
}

TEST(CompileCache, ReinsertRefreshesPayloadAndOversizedIsDropped)
{
    CompileCache cache(/*max_bytes=*/16);
    const CacheKey k{7, 7};
    cache.insert(k, "old");
    cache.insert(k, "newer");
    EXPECT_EQ(*cache.lookup(k), "newer");
    EXPECT_EQ(cache.stats().bytes, 5u);

    // A payload larger than the whole budget is not cached (and must
    // not wipe the existing entries to make room for nothing).
    cache.insert(CacheKey{8, 8}, std::string(64, 'x'));
    EXPECT_FALSE(cache.lookup(CacheKey{8, 8}).has_value());
    EXPECT_TRUE(cache.lookup(k).has_value());

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_FALSE(cache.lookup(k).has_value());
}

TEST(CompileCache, ZeroBudgetDisablesCaching)
{
    CompileCache cache(0);
    cache.insert(CacheKey{1, 1}, "x");
    EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
    EXPECT_EQ(cache.stats().insertions, 0u);
}

// ---------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------

TEST(Protocol, RequestRoundTrip)
{
    Request req;
    req.verb = "compile";
    req.options = "scheme=tree heuristic=gw width=4";
    req.function = "main";
    req.deadline_ms = 1500;
    req.want_schedule = true;
    req.no_cache = true;
    req.profile = false;
    req.profile_seed = 99;
    req.profile_runs = 7;
    req.module_text = "module m mem=16\nbody with\n\nblank lines\n";

    Request parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(encodeRequest(req), parsed, &error))
        << error;
    EXPECT_EQ(parsed.verb, req.verb);
    EXPECT_EQ(parsed.options, req.options);
    EXPECT_EQ(parsed.function, req.function);
    EXPECT_EQ(parsed.deadline_ms, req.deadline_ms);
    EXPECT_EQ(parsed.want_schedule, req.want_schedule);
    EXPECT_EQ(parsed.no_cache, req.no_cache);
    EXPECT_EQ(parsed.profile, req.profile);
    EXPECT_EQ(parsed.profile_seed, req.profile_seed);
    EXPECT_EQ(parsed.profile_runs, req.profile_runs);
    EXPECT_EQ(parsed.module_text, req.module_text);
}

TEST(Protocol, ResponseRoundTrip)
{
    Response resp;
    resp.status = status::kRejected;
    resp.error = "queue full";
    resp.retry_after_ms = 250;
    resp.cached = true;
    resp.compile_ms = 12.5;
    resp.body = "line1\nline2\n";

    Response parsed;
    std::string error;
    ASSERT_TRUE(parseResponse(encodeResponse(resp), parsed, &error))
        << error;
    EXPECT_EQ(parsed.status, resp.status);
    EXPECT_EQ(parsed.error, resp.error);
    EXPECT_EQ(parsed.retry_after_ms, resp.retry_after_ms);
    EXPECT_EQ(parsed.cached, resp.cached);
    EXPECT_DOUBLE_EQ(parsed.compile_ms, resp.compile_ms);
    EXPECT_EQ(parsed.body, resp.body);
}

TEST(Protocol, ParseRejectsGarbage)
{
    Request req;
    Response resp;
    std::string error;
    EXPECT_FALSE(parseRequest("not a frame", req, &error));
    EXPECT_FALSE(parseResponse("treegion-req/1\n\n", resp, &error));
    EXPECT_FALSE(parseRequest(
        "treegion-req/1\nverb: explode\n\n", req, &error));
}

TEST(Protocol, UnknownHeadersAreIgnored)
{
    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest("treegion-req/1\nverb: ping\n"
                             "x-new-feature: 1\n\n",
                             req, &error))
        << error;
    EXPECT_EQ(req.verb, "ping");
}

// ---------------------------------------------------------------
// Framing: the length prefix and readFrame's outcomes
// ---------------------------------------------------------------

TEST(Protocol, FramePrefixIsABigEndianLength)
{
    std::string wire;
    appendFrame(&wire, "abc");
    appendFrame(&wire, std::string(0x0102, 'x'));
    EXPECT_EQ(wire.substr(0, 11), std::string("\0\0\0\3abc\0\0\1\2", 11));

    size_t len = 0;
    ASSERT_TRUE(peekFrameLength(wire, &len));
    EXPECT_EQ(len, 3u);
    ASSERT_TRUE(peekFrameLength(std::string_view(wire).substr(7), &len));
    EXPECT_EQ(len, 0x0102u);
    // Prefix bytes are unsigned: no sign extension from 0xff.
    ASSERT_TRUE(peekFrameLength("\xff\xff\xff\xff", &len));
    EXPECT_EQ(len, 0xffffffffu);
    EXPECT_FALSE(peekFrameLength(std::string_view("\0\0\0", 3), &len));
}

/** The read end of a socket whose peer sent @p bytes and closed. */
int
readEndAfter(const std::string &bytes)
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[1]);
    return fds[0];
}

TEST(Protocol, ReadFrameReportsEachOutcome)
{
    std::string payload, error;
    auto read = [&](int fd, size_t max_bytes = 64) {
        return readFrame(fd, &payload, max_bytes, &error);
    };

    // An oversized frame is drained, so the next frame reads from its
    // own prefix; then the peer's close is a clean end.
    std::string wire;
    appendFrame(&wire, std::string(100, 'x'));
    appendFrame(&wire, "next");
    int fd = readEndAfter(wire);
    EXPECT_EQ(read(fd), FrameStatus::TooLarge);
    EXPECT_EQ(error, "frame of 100 bytes exceeds the 64-byte limit");
    EXPECT_EQ(read(fd), FrameStatus::Ok);
    EXPECT_EQ(payload, "next");
    EXPECT_EQ(read(fd), FrameStatus::Closed);
    ::close(fd);

    // The server's event loop answers HTTP before any framing, so
    // here "GET " is just a length prefix (0x47455420 bytes).
    fd = readEndAfter("GET /stats HTTP/1.0\r\n\r\n");
    EXPECT_EQ(read(fd, kDefaultMaxFrameBytes), FrameStatus::TooLarge);
    EXPECT_NE(error.find("frame of 1195725856 bytes"), std::string::npos)
        << error;
    ::close(fd);

    fd = readEndAfter(std::string("\0\0", 2));
    EXPECT_EQ(read(fd), FrameStatus::Error);
    EXPECT_EQ(error, "truncated frame length");
    ::close(fd);

    fd = readEndAfter(std::string("\0\0\0\7pay", 7));
    EXPECT_EQ(read(fd), FrameStatus::Error);
    EXPECT_EQ(error, "truncated frame payload");
    ::close(fd);
}

TEST(Protocol, OversizedFrameDrainStopsAtEof)
{
    // The peer announces 1000 bytes, sends 10 of them and closes.
    std::string wire;
    appendFrame(&wire, std::string(1000, 'x'));
    const int fd = readEndAfter(wire.substr(0, kFramePrefixBytes + 10));

    // read() leaves errno alone on success, so a stale EINTR can still
    // be there when the drain meets EOF; the drain must stop there,
    // not retry the EOF forever. The read runs on a thread so that a
    // regression fails the test instead of hanging it.
    std::promise<FrameStatus> status;
    std::future<FrameStatus> done = status.get_future();
    std::thread reader([&] {
        errno = EINTR;
        std::string payload;
        status.set_value(readFrame(fd, &payload, 64, nullptr));
    });
    if (done.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "readFrame kept draining past EOF\n");
        std::_Exit(1);  // the spinning reader cannot be joined
    }
    reader.join();
    EXPECT_EQ(done.get(), FrameStatus::TooLarge);
    ::close(fd);
}

// ---------------------------------------------------------------
// Live server, end to end over a Unix-domain socket
// ---------------------------------------------------------------

class ServiceEndToEnd : public ::testing::Test
{
  protected:
    std::string
    socketPath() const
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return support::strprintf("/tmp/tg-test-%d-%s.sock",
                                  static_cast<int>(getpid()),
                                  info->name());
    }

    /** Start a server on a per-test socket. */
    void
    startServer(ServerOptions options)
    {
        options.unix_path = socketPath();
        options.threads = options.threads ? options.threads : 2;
        server_ = std::make_unique<Server>(std::move(options));
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->requestStop();
            server_->waitUntilStopped();
        }
        ::unlink(socketPath().c_str());
    }

    Response
    callOnce(const Request &req)
    {
        std::string error;
        auto client = Client::connect(socketPath(), &error);
        EXPECT_TRUE(client) << error;
        Response resp;
        if (client)
            EXPECT_TRUE(client->call(req, &resp, &error)) << error;
        return resp;
    }

    static Request
    compileRequest()
    {
        Request req;
        req.options = "scheme=tree heuristic=gw width=4";
        req.profile_runs = 2;
        req.module_text = kModule;
        return req;
    }

    std::unique_ptr<Server> server_;
};

TEST_F(ServiceEndToEnd, PingAndStats)
{
    startServer({});
    Request ping;
    ping.verb = "ping";
    const Response pong = callOnce(ping);
    EXPECT_EQ(pong.status, status::kOk);
    EXPECT_EQ(pong.body, "pong\n");

    Request stats;
    stats.verb = "stats";
    const Response resp = callOnce(stats);
    EXPECT_EQ(resp.status, status::kOk);
    EXPECT_NE(resp.body.find("\"cache\""), std::string::npos);
    EXPECT_NE(resp.body.find("\"requests_total\""),
              std::string::npos);
}

TEST_F(ServiceEndToEnd, CompileThenBitIdenticalCacheHit)
{
    ServerOptions options;
    // Determinism invariant enforced for real: every hit below is
    // also recompiled and compared byte-for-byte inside the server.
    options.verify_hits = true;
    startServer(std::move(options));

    const Request req = compileRequest();
    const Response first = callOnce(req);
    ASSERT_EQ(first.status, status::kOk) << first.error;
    EXPECT_FALSE(first.cached);
    EXPECT_GT(first.compile_ms, 0.0);
    EXPECT_NE(first.body.find("function: main"), std::string::npos);
    EXPECT_NE(first.body.find("verify: ok"), std::string::npos);

    const Response second = callOnce(req);
    ASSERT_EQ(second.status, status::kOk) << second.error;
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.body, first.body);  // bit-identical replay

    // Formatting-only changes to the module hit the same entry.
    Request spaced = req;
    replaceAll(spaced.module_text, "\n  block",
                        "\n\n  block");
    const Response third = callOnce(spaced);
    ASSERT_EQ(third.status, status::kOk) << third.error;
    EXPECT_TRUE(third.cached);
    EXPECT_EQ(third.body, first.body);

    // no-cache bypasses the cache but must still agree bitwise.
    Request uncached = req;
    uncached.no_cache = true;
    const Response fourth = callOnce(uncached);
    ASSERT_EQ(fourth.status, status::kOk) << fourth.error;
    EXPECT_FALSE(fourth.cached);
    EXPECT_EQ(fourth.body, first.body);

    // A different configuration is a different entry.
    Request other = req;
    other.options = "scheme=sb heuristic=gw width=4";
    const Response fifth = callOnce(other);
    ASSERT_EQ(fifth.status, status::kOk) << fifth.error;
    EXPECT_FALSE(fifth.cached);
    EXPECT_NE(fifth.body, first.body);

    EXPECT_GE(server_->metrics().counter("cache_verified_hits"), 2u);
}

TEST_F(ServiceEndToEnd, ScheduleEchoIsCachedDistinctly)
{
    startServer({});
    Request req = compileRequest();
    req.want_schedule = true;
    const Response with = callOnce(req);
    ASSERT_EQ(with.status, status::kOk) << with.error;
    EXPECT_NE(with.body.find("schedule:"), std::string::npos);

    req.want_schedule = false;
    const Response without = callOnce(req);
    ASSERT_EQ(without.status, status::kOk) << without.error;
    EXPECT_FALSE(without.cached);  // different key, not a hit
    EXPECT_EQ(without.body.find("schedule:"), std::string::npos);
}

TEST_F(ServiceEndToEnd, BadRequestsAreErrors)
{
    startServer({});

    Request bad_module = compileRequest();
    bad_module.module_text = "this is not IR";
    EXPECT_EQ(callOnce(bad_module).status, status::kError);

    Request bad_function = compileRequest();
    bad_function.function = "no_such_fn";
    EXPECT_EQ(callOnce(bad_function).status, status::kError);

    Request bad_options = compileRequest();
    bad_options.options = "scheme=bogus";
    EXPECT_EQ(callOnce(bad_options).status, status::kError);

    Request empty = compileRequest();
    empty.module_text.clear();
    EXPECT_EQ(callOnce(empty).status, status::kError);

    // The connection (and the server) survives all of the above.
    Request ping;
    ping.verb = "ping";
    EXPECT_EQ(callOnce(ping).status, status::kOk);
}

TEST_F(ServiceEndToEnd, ModulesTooSmallToProfileAreErrors)
{
    startServer({});
    // The profiler reserves workloads::kReservedWords at the top of
    // memory; smaller images used to abort the whole daemon.
    for (const char *mem : {"mem=10", "mem=0"}) {
        Request small = compileRequest();
        replaceAll(small.module_text, "mem=1024", mem);
        const Response resp = callOnce(small);
        EXPECT_EQ(resp.status, status::kError) << mem;
        EXPECT_NE(resp.error.find(support::strprintf(
                      "mem=%zu or more", workloads::kMinInputMemWords)),
                  std::string::npos)
            << resp.error;
    }

    // Without a profile the size does not matter.
    Request unprofiled = compileRequest();
    replaceAll(unprofiled.module_text, "mem=1024", "mem=10");
    unprofiled.profile = false;
    EXPECT_EQ(callOnce(unprofiled).status, status::kOk);

    // The same server still compiles.
    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST_F(ServiceEndToEnd, BlockWithoutTerminatorIsAnError)
{
    startServer({});
    // bb2 loses its BRCT; verification used to abort the worker (and
    // with it the daemon) when the schedulable checks read the
    // missing terminator.
    Request broken = compileRequest();
    replaceAll(broken.module_text, "    BRCT p1, bb4, bb3\n", "");
    const Response resp = callOnce(broken);
    EXPECT_EQ(resp.status, status::kError);
    EXPECT_NE(resp.error.find("bb2: no terminator"), std::string::npos)
        << resp.error;

    // The same server still compiles.
    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST_F(ServiceEndToEnd, OpPastTheOperandCapacityIsAnError)
{
    startServer({});
    // An op's sources live in a fixed array of three; a fourth operand
    // must be a parse error, not an overfilled array.
    Request broken = compileRequest();
    replaceAll(broken.module_text, "r4 = ADD r3, r1\n",
               "r4 = ADD r3, r1, r2, r0\n");
    const Response resp = callOnce(broken);
    EXPECT_EQ(resp.status, status::kError);
    EXPECT_NE(resp.error.find("too many operands"), std::string::npos)
        << resp.error;

    // The same server still compiles.
    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST_F(ServiceEndToEnd, RegisterPastTheDeclaredCountIsAnError)
{
    startServer({});
    // Register files downstream are sized by gprs=: a source past it,
    // or a header that lost its gprs=, used to abort the worker (and
    // with it the daemon) in the training-profile interpreter.
    Request past = compileRequest();
    replaceAll(past.module_text, "r4 = ADD r3, r1\n",
               "r4 = ADD r248, r1\n");
    Request undeclared = compileRequest();
    replaceAll(undeclared.module_text, "entry=bb0 gprs=16", "entry=bb0");
    for (const auto &[req, reg] :
         {std::pair{past, "source r248"},
          std::pair{undeclared, "destination r0"}}) {
        const Response resp = callOnce(req);
        EXPECT_EQ(resp.status, status::kError);
        EXPECT_NE(resp.error.find(std::string(reg) +
                                  " is out of range"),
                  std::string::npos)
            << resp.error;
    }

    // The same server still compiles.
    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST_F(ServiceEndToEnd, BlockIdPastTheLimitIsAnError)
{
    startServer({});
    // The parser creates a block for every id below the largest one
    // it meets, so a branch to bb3000000 used to allocate three
    // million blocks before reporting the undefined target.
    Request far = compileRequest();
    replaceAll(far.module_text, "BRU bb1\n", "BRU bb3000000\n");
    const Response resp = callOnce(far);
    EXPECT_EQ(resp.status, status::kError);
    EXPECT_NE(resp.error.find("line 7: block id bb3000000 is out of "
                              "range"),
              std::string::npos)
        << resp.error;

    // The same server still compiles.
    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST_F(ServiceEndToEnd, ModulePastTheBlockIdBudgetIsAnError)
{
    startServer({});
    // Every id is in range, but 200 tables of 65,536 slots each took
    // 116 MB before the parser bounded their sum.
    Request wide = compileRequest();
    wide.module_text = "module m mem=512\n";
    for (int i = 0; i < 200; ++i) {
        wide.module_text += support::strprintf(
            "func @f%d entry=bb65535 gprs=1 preds=0 {\n"
            "  block bb65535 weight=0 {\n    RET 0\n  }\n}\n",
            i);
    }
    const Response resp = callOnce(wide);
    EXPECT_EQ(resp.status, status::kError);
    EXPECT_NE(resp.error.find("line 8: block id bb65535 takes the "
                              "module past 65536 block ids"),
              std::string::npos)
        << resp.error;

    const Response ok = callOnce(compileRequest());
    ASSERT_EQ(ok.status, status::kOk) << ok.error;
    EXPECT_NE(ok.body.find("verify: ok"), std::string::npos);
}

TEST(ServerLifecycle, StopRequestedBeforeStartStillDrains)
{
    // treegiond installs its SIGTERM handler before start binds the
    // listeners, so a signal can land before the loop runs: the stop
    // must then only set the flag, and the drain must still run and
    // write the telemetry.
    const std::string dir = ::testing::TempDir();
    const std::string metrics = dir + "tg-early-stop-metrics.json";
    ServerOptions options;
    options.unix_path = support::strprintf(
        "/tmp/tg-test-%d-early-stop.sock", static_cast<int>(getpid()));
    options.threads = 1;
    options.metrics_path = metrics;
    ::unlink(metrics.c_str());
    Server server(options);
    server.requestStop();
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_TRUE(server.waitUntilStopped());
    std::ifstream in(metrics);
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("\"cache\""), std::string::npos)
        << json.str();
    ::unlink(metrics.c_str());
    ::unlink(options.unix_path.c_str());
}

TEST_F(ServiceEndToEnd, StatsRemarkCountersEqualFullStreams)
{
    // The miss path counts remarks without building them; /stats must
    // still read exactly what full streams over the same compiles
    // record, kind by kind.
    startServer({});
    std::map<std::string, uint64_t> expected;
    uint64_t total = 0;
    size_t compiles = 0;
    for (const char *scheme : {"bb", "sb", "tree", "tree-td", "hyper"}) {
        for (const uint64_t seed : {7u, 8u}) {
            Request req = compileRequest();
            req.options = support::strprintf(
                "scheme=%s heuristic=gw width=4", scheme);
            req.profile_seed = seed;
            const Response resp = callOnce(req);
            ASSERT_EQ(resp.status, status::kOk) << resp.error;
            ASSERT_FALSE(resp.cached);
            ++compiles;

            std::unique_ptr<ir::Module> mod;
            ir::Function fn = firstFunction(mod).clone();
            workloads::ProfileOptions prof;
            prof.input_seed = req.profile_seed;
            prof.runs = req.profile_runs;
            workloads::profileFunction(fn, mod->memWords(), prof);
            sched::PipelineOptions options;
            ASSERT_TRUE(sched::parsePipelineOptions(req.options, options));
            support::RemarkStream full;
            {
                support::RemarkScope scope(&full);
                sched::runPipeline(fn, options);
            }
            for (const support::Remark &r : full.remarks()) {
                std::string name = std::string("remarks_") +
                                   support::remarkKindName(r.kind);
                std::replace(name.begin(), name.end(), '-', '_');
                ++expected[name];
            }
            total += full.size();
        }
    }
    EXPECT_EQ(compiles, 10u);
    expected["remarks_total"] = total;
    EXPECT_GT(total, 0u);

    std::map<std::string, uint64_t> served;
    for (const auto &[name, value] : server_->metrics().counters()) {
        if (name.rfind("remarks_", 0) == 0)
            served[name] = value;
    }
    EXPECT_EQ(served, expected);

    // ...and the stats verb renders those same counters.
    Request stats;
    stats.verb = "stats";
    const Response resp = callOnce(stats);
    ASSERT_EQ(resp.status, status::kOk);
    for (const auto &[name, value] : expected) {
        EXPECT_NE(resp.body.find(support::strprintf(
                      "\"%s\":%llu", name.c_str(),
                      static_cast<unsigned long long>(value))),
                  std::string::npos)
            << name;
    }
}

TEST_F(ServiceEndToEnd, DeadlineExpiredInQueueIsCancelled)
{
    ServerOptions options;
    options.debug_queue_delay_ms = 30;
    startServer(std::move(options));

    Request req = compileRequest();
    req.deadline_ms = 1;  // expires while parked in the queue
    const Response resp = callOnce(req);
    EXPECT_EQ(resp.status, status::kDeadline);
    EXPECT_EQ(server_->metrics().counter("requests_deadline"), 1u);

    // Without a deadline the same request compiles fine.
    req.deadline_ms = 0;
    EXPECT_EQ(callOnce(req).status, status::kOk);
}

TEST_F(ServiceEndToEnd, QueueWaitIsMeasuredInMicroseconds)
{
    // On an idle server a compile waits microseconds for a worker,
    // which whole-millisecond stamps would read as 0.
    startServer({});
    ASSERT_EQ(callOnce(compileRequest()).status, status::kOk);
    const auto idle = server_->metrics().histogram("queue_wait_ms");
    ASSERT_EQ(idle.count(), 1u);
    EXPECT_GT(idle.min(), 0.0);

    // A debug delay is spent in the queue, so the wait covers it.
    server_->requestStop();
    server_->waitUntilStopped();
    ::unlink(socketPath().c_str());
    ServerOptions delayed;
    delayed.debug_queue_delay_ms = 20;
    startServer(std::move(delayed));
    ASSERT_EQ(callOnce(compileRequest()).status, status::kOk);
    EXPECT_GE(server_->metrics().histogram("queue_wait_ms").min(), 20.0);
}

TEST_F(ServiceEndToEnd, SaturatedQueueRejectsWithRetryAfter)
{
    ServerOptions options;
    options.threads = 1;
    options.queue_limit = 1;
    options.debug_queue_delay_ms = 200;
    startServer(std::move(options));

    constexpr int kClients = 3;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = callOnce(compileRequest());
        });
    }
    for (auto &t : threads)
        t.join();

    int ok = 0, rejected = 0;
    for (const auto &resp : responses) {
        if (resp.status == status::kOk) {
            ++ok;
        } else {
            ASSERT_EQ(resp.status, status::kRejected) << resp.error;
            ++rejected;
            // Backpressure comes with a usable retry hint.
            EXPECT_GE(resp.retry_after_ms, 10);
            EXPECT_LE(resp.retry_after_ms, 1000);
        }
    }
    // The saturated queue rejected instead of stalling or crashing,
    // and at least one admitted request completed.
    EXPECT_GE(ok, 1);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(ok + rejected, kClients);
    EXPECT_EQ(server_->metrics().counter("backpressure_rejections"),
              static_cast<uint64_t>(rejected));

    // Once the queue drains, service resumes.
    EXPECT_EQ(callOnce(compileRequest()).status, status::kOk);
}

TEST_F(ServiceEndToEnd, ColdRetryHintIsPinned)
{
    ServerOptions options;
    options.threads = 1;
    options.queue_limit = 1;
    options.debug_queue_delay_ms = 200;
    startServer(std::move(options));

    // Two concurrent compiles against a one-slot queue: exactly one
    // is rejected, and it is rejected while the request histogram is
    // still empty (the admitted compile is sleeping in the debug
    // delay). The hint must be the documented cold floor — an empty
    // histogram's p50 of 0 would tell clients to hammer a server
    // that has not proven it can answer anything yet.
    constexpr int kClients = 2;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = callOnce(compileRequest());
        });
    }
    for (auto &t : threads)
        t.join();

    int ok = 0, rejected = 0;
    for (const auto &resp : responses) {
        if (resp.status == status::kOk) {
            ++ok;
        } else {
            ASSERT_EQ(resp.status, status::kRejected) << resp.error;
            ++rejected;
            EXPECT_EQ(resp.retry_after_ms, kColdRetryHintMs);
        }
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(rejected, 1);
}

/** The projection treegiond computes for kModule at @p options. */
uint64_t
projectedBytesFor(const char *pipeline_options)
{
    sched::PipelineOptions opts;
    std::string error;
    EXPECT_TRUE(
        sched::parsePipelineOptions(pipeline_options, opts, &error))
        << error;
    return sched::estimatePeakBytes(
        sched::estimateShapeFromText(kModule), opts);
}

TEST_F(ServiceEndToEnd, MemoryBudgetParksThenCompletesCompiles)
{
    const uint64_t projected =
        projectedBytesFor("scheme=tree heuristic=gw width=4");
    ASSERT_GT(projected, 0u);

    ServerOptions options;
    options.threads = 2;
    options.debug_queue_delay_ms = 200;
    // One projection fits, two do not: the second concurrent compile
    // must park, then complete once the first releases its
    // reservation.
    options.mem_budget_bytes = projected + projected / 2;
    startServer(std::move(options));

    constexpr int kClients = 2;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = callOnce(compileRequest());
        });
    }
    for (auto &t : threads)
        t.join();

    for (const auto &resp : responses)
        EXPECT_EQ(resp.status, status::kOk) << resp.error;
    EXPECT_EQ(server_->metrics().counter("mem_queued"), 1u);
    EXPECT_EQ(server_->metrics().counter("mem_rejected"), 0u);
    EXPECT_EQ(server_->metrics().counter("mem_projected_bytes"), 0u)
        << "every reservation must be released on completion";
}

TEST_F(ServiceEndToEnd, MemoryBudgetRejectsWhenParkingListIsFull)
{
    const uint64_t projected =
        projectedBytesFor("scheme=tree heuristic=gw width=4");

    ServerOptions options;
    options.threads = 2;
    options.queue_limit = 1;  // bounds the parked list too
    options.debug_queue_delay_ms = 200;
    options.mem_budget_bytes = projected + projected / 2;
    startServer(std::move(options));

    // Three concurrent compiles: one admitted, one parked, and the
    // third bounces off the full parking list with a retry hint.
    constexpr int kClients = 3;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = callOnce(compileRequest());
        });
    }
    for (auto &t : threads)
        t.join();

    int ok = 0, rejected = 0;
    for (const auto &resp : responses) {
        if (resp.status == status::kOk) {
            ++ok;
        } else {
            ASSERT_EQ(resp.status, status::kRejected) << resp.error;
            ++rejected;
            EXPECT_NE(resp.error.find("memory budget"),
                      std::string::npos)
                << resp.error;
            EXPECT_GE(resp.retry_after_ms, 10);
            EXPECT_LE(resp.retry_after_ms, 1000);
        }
    }
    EXPECT_EQ(ok, 2) << "the parked compile must complete";
    EXPECT_EQ(rejected, 1);
    EXPECT_EQ(server_->metrics().counter("mem_queued"), 1u);
    EXPECT_EQ(server_->metrics().counter("mem_rejected"), 1u);

    // The budget frees up once the batch drains.
    EXPECT_EQ(callOnce(compileRequest()).status, status::kOk);
}

TEST_F(ServiceEndToEnd, QueueFullReleasesMemoryReservation)
{
    const uint64_t projected =
        projectedBytesFor("scheme=tree heuristic=gw width=4");
    ASSERT_GT(projected, 0u);

    ServerOptions options;
    options.threads = 1;
    options.queue_limit = 1;
    options.debug_queue_delay_ms = 200;
    // Room for every compile below: the memory gate admits each one,
    // and the one-slot queue is what turns all but the first away.
    options.mem_budget_bytes = 4 * projected;
    startServer(std::move(options));

    constexpr int kClients = 3;
    std::vector<Response> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            responses[i] = callOnce(compileRequest());
        });
    }
    for (auto &t : threads)
        t.join();

    int ok = 0, rejected = 0;
    for (const auto &resp : responses) {
        if (resp.status == status::kOk) {
            ++ok;
        } else {
            ASSERT_EQ(resp.status, status::kRejected) << resp.error;
            EXPECT_NE(resp.error.find("queue full"), std::string::npos)
                << resp.error;
            ++rejected;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(server_->metrics().counter("mem_queued"), 0u);
    EXPECT_EQ(server_->metrics().counter("mem_rejected"), 0u);

    // Each compile the full queue turned away gave its reservation
    // back: with every compile answered, nothing is reserved.
    Request stats;
    stats.verb = "stats";
    const Response resp = callOnce(stats);
    ASSERT_EQ(resp.status, status::kOk);
    EXPECT_NE(resp.body.find("\"mem_projected_bytes\":0,"),
              std::string::npos)
        << resp.body;
}

TEST_F(ServiceEndToEnd, StatsExposeMemoryAdmissionGauges)
{
    ServerOptions options;
    options.mem_budget_bytes = 123456789;
    startServer(std::move(options));

    Request stats;
    stats.verb = "stats";
    const Response resp = callOnce(stats);
    ASSERT_EQ(resp.status, status::kOk);
    EXPECT_NE(resp.body.find("\"mem_budget_bytes\":123456789"),
              std::string::npos)
        << resp.body;
    EXPECT_NE(resp.body.find("\"mem_projected_bytes\":0"),
              std::string::npos)
        << resp.body;
    EXPECT_NE(resp.body.find("\"mem_parked\":0"), std::string::npos)
        << resp.body;
}

TEST_F(ServiceEndToEnd, OversizedRequestIsRejected)
{
    ServerOptions options;
    options.max_frame_bytes = 512;
    startServer(std::move(options));

    Request big = compileRequest();
    big.module_text.append(std::string(4096, '#'));
    const Response resp = callOnce(big);
    EXPECT_EQ(resp.status, status::kRejected);
    EXPECT_NE(resp.error.find("limit"), std::string::npos);
    EXPECT_EQ(server_->metrics().counter("oversized_frames"), 1u);

    // Small requests still fit.
    Request ping;
    ping.verb = "ping";
    EXPECT_EQ(callOnce(ping).status, status::kOk);
}

TEST_F(ServiceEndToEnd, PipelinedRequestsAnswerInOrder)
{
    startServer({});

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Write all frames back to back before reading anything: the
    // event loop must batch them to the pool, finish them in any
    // order, and still answer in request order.
    constexpr int kRounds = 4;
    std::string error;
    for (int i = 0; i < kRounds; ++i) {
        Request compile = compileRequest();
        compile.profile_seed = 7000 + static_cast<uint64_t>(i);
        ASSERT_TRUE(
            writeFrame(fd, encodeRequest(compile), &error))
            << error;
        Request ping;
        ping.verb = "ping";
        ASSERT_TRUE(writeFrame(fd, encodeRequest(ping), &error))
            << error;
    }

    for (int i = 0; i < kRounds; ++i) {
        std::string payload;
        Response resp;
        ASSERT_EQ(readFrame(fd, &payload, kDefaultMaxFrameBytes,
                            &error),
                  FrameStatus::Ok)
            << error;
        ASSERT_TRUE(parseResponse(payload, resp, &error)) << error;
        EXPECT_EQ(resp.status, status::kOk) << resp.error;
        EXPECT_NE(resp.body.find("function: main"),
                  std::string::npos);

        ASSERT_EQ(readFrame(fd, &payload, kDefaultMaxFrameBytes,
                            &error),
                  FrameStatus::Ok)
            << error;
        ASSERT_TRUE(parseResponse(payload, resp, &error)) << error;
        EXPECT_EQ(resp.body, "pong\n");
    }
    ::close(fd);

    EXPECT_EQ(server_->metrics().counter("requests_total"),
              2u * kRounds);
}

TEST_F(ServiceEndToEnd, HttpGetStatsOnTheSameListener)
{
    startServer({});

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char *get = "GET /stats HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, get, std::strlen(get), MSG_NOSIGNAL),
              static_cast<ssize_t>(std::strlen(get)));
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        reply.append(buf, static_cast<size_t>(n));
    ::close(fd);
    EXPECT_NE(reply.find("200 OK"), std::string::npos) << reply;
    EXPECT_NE(reply.find("application/json"), std::string::npos);
    EXPECT_NE(reply.find("\"cache\""), std::string::npos);
}

TEST_F(ServiceEndToEnd, TcpListenerServesTheSameProtocol)
{
    ServerOptions options;
    options.tcp_port = 0;  // ephemeral
    startServer(std::move(options));
    ASSERT_GT(server_->tcpPort(), 0);

    std::string error;
    auto client = Client::connectTcp("127.0.0.1", server_->tcpPort(),
                                     &error);
    ASSERT_TRUE(client) << error;
    Response resp;
    ASSERT_TRUE(client->call(compileRequest(), &resp, &error))
        << error;
    EXPECT_EQ(resp.status, status::kOk) << resp.error;
}

TEST_F(ServiceEndToEnd, GracefulDrainRefusesNewWorkThenStops)
{
    ServerOptions options;
    options.metrics_path = socketPath() + ".metrics.json";
    startServer(std::move(options));

    // Park a connection, then start the drain. The ping makes sure
    // the connection has actually been accepted — a connect() alone
    // may still be sitting in the listen backlog, and backlogged
    // connections are dropped with the listener when the drain
    // closes it.
    std::string error;
    auto client = Client::connect(socketPath(), &error);
    ASSERT_TRUE(client) << error;
    Request ping;
    ping.verb = "ping";
    Response pong;
    ASSERT_TRUE(client->call(ping, &pong, &error)) << error;
    server_->requestStop();

    // An already-open connection gets a clean refusal, not a hang.
    Response resp;
    ASSERT_TRUE(client->call(compileRequest(), &resp, &error))
        << error;
    EXPECT_EQ(resp.status, status::kShuttingDown);

    server_->waitUntilStopped();

    // The drain flushed a metrics snapshot.
    std::ifstream metrics(socketPath() + ".metrics.json");
    ASSERT_TRUE(metrics.good());
    std::ostringstream contents;
    contents << metrics.rdbuf();
    EXPECT_NE(contents.str().find("\"requests_total\""),
              std::string::npos);
    ::unlink((socketPath() + ".metrics.json").c_str());

    // New connections are refused after the drain.
    EXPECT_FALSE(Client::connect(socketPath(), &error));
    server_.reset();
}

TEST_F(ServiceEndToEnd, DrainReportsTelemetryItCannotWrite)
{
    auto &collector = support::SpanCollector::instance();
    for (const bool writable : {true, false}) {
        // The second pass writes into a directory that does not exist.
        const std::string base = socketPath() + (writable ? "" : ".d/x");
        ServerOptions options;
        options.metrics_path = base + ".metrics.json";
        options.span_path = base + ".spans.jsonl";
        startServer(std::move(options));
        ASSERT_EQ(callOnce(compileRequest()).status, status::kOk);
        server_->requestStop();

        ::testing::internal::CaptureStderr();
        const bool written = server_->waitUntilStopped();
        const std::string err = ::testing::internal::GetCapturedStderr();
        server_.reset();
        collector.setEnabled(false);
        collector.clear();

        for (const char *suffix : {".metrics.json", ".spans.jsonl"}) {
            const std::string path = base + suffix;
            EXPECT_EQ(std::ifstream(path).good(), writable) << path;
            EXPECT_EQ(err.find(path) != std::string::npos, !writable)
                << err;
            ::unlink(path.c_str());
        }
        EXPECT_EQ(written, writable) << err;
    }
}

} // namespace
} // namespace treegion::service
