/**
 * @file
 * Tests for the distributed-tracing span subsystem (support/spans.h),
 * the crash flight recorder (support/flightrec.h) and the build-info
 * block (support/build_info.h).
 *
 * The span JSONL schema gets the same treatment as the remarks
 * schema in remarks_test.cc: exact round-trips through the strict
 * parser, and a rejection battery proving unknown fields, duplicate
 * fields, missing fields and malformed values cannot creep in — the
 * schema is an interface consumed by treegion-report --trace-merge
 * and CI, not a debug dump.
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz.h"
#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "support/build_info.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/spans.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

using namespace treegion;

namespace {

/** Reset the process-wide collector around every test. */
class SpanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &collector = support::SpanCollector::instance();
        collector.setEnabled(false);
        collector.clear();
        collector.setService("treegion");
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

// ---- ids and hex ---------------------------------------------------

TEST_F(SpanTest, MintedIdsAreNonZeroAndDistinct)
{
    const uint64_t a = support::mintSpanId();
    const uint64_t b = support::mintSpanId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

TEST_F(SpanTest, TraceIdHexRoundTrip)
{
    const uint64_t hi = 0x0123456789abcdefull;
    const uint64_t lo = 0xfedcba9876543210ull;
    const std::string hex = support::traceIdHex(hi, lo);
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
    uint64_t hi2 = 0, lo2 = 0;
    ASSERT_TRUE(support::parseTraceIdHex(hex, &hi2, &lo2));
    EXPECT_EQ(hi2, hi);
    EXPECT_EQ(lo2, lo);
}

TEST_F(SpanTest, SpanIdHexRoundTrip)
{
    const uint64_t id = 0x00ff00ff12345678ull;
    const std::string hex = support::spanIdHex(id);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t id2 = 0;
    ASSERT_TRUE(support::parseSpanIdHex(hex, &id2));
    EXPECT_EQ(id2, id);
}

TEST_F(SpanTest, BadHexRejected)
{
    uint64_t hi = 0, lo = 0, id = 0;
    EXPECT_FALSE(support::parseTraceIdHex("1234", &hi, &lo));
    EXPECT_FALSE(support::parseTraceIdHex(
        "0123456789abcdeffedcba987654321g", &hi, &lo));
    EXPECT_FALSE(support::parseSpanIdHex("", &id));
    EXPECT_FALSE(support::parseSpanIdHex("123456789abcdefg", &id));
    EXPECT_FALSE(
        support::parseSpanIdHex("0123456789abcdef0", &id));
}

// ---- JSON round trip -----------------------------------------------

support::TraceSpan
sampleSpan()
{
    support::TraceSpan s;
    s.trace_hi = 0x1111222233334444ull;
    s.trace_lo = 0x5555666677778888ull;
    s.span = 0x9999aaaabbbbccccull;
    s.parent = 0xddddeeeeffff0001ull;
    s.name = "compile";
    s.service = "replica:1";
    s.tid = 7;
    s.start_us = 1700000000000000;
    s.dur_us = 1234;
    support::SpanArg str;
    str.key = "fn";
    str.type = support::SpanArg::Type::Str;
    str.s = "main \"quoted\"\\path\n";
    s.args.push_back(str);
    support::SpanArg num;
    num.key = "ops";
    num.type = support::SpanArg::Type::Int;
    num.i = -42;
    s.args.push_back(num);
    support::SpanArg flt;
    flt.key = "ratio";
    flt.type = support::SpanArg::Type::Float;
    flt.f = 0.125;
    s.args.push_back(flt);
    return s;
}

TEST_F(SpanTest, JsonRoundTripExact)
{
    const support::TraceSpan original = sampleSpan();
    const std::string line = original.toJson();
    support::TraceSpan parsed;
    std::string error;
    ASSERT_TRUE(support::parseSpanJson(line, parsed, &error))
        << error;
    EXPECT_EQ(parsed, original);
    // Canonical form is a fixed point: serialize -> parse ->
    // serialize is byte-identical.
    EXPECT_EQ(parsed.toJson(), line);
}

TEST_F(SpanTest, RootParentSerializesAsEmpty)
{
    support::TraceSpan s = sampleSpan();
    s.parent = 0;
    const std::string line = s.toJson();
    EXPECT_NE(line.find("\"parent\":\"\""), std::string::npos);
    support::TraceSpan parsed;
    ASSERT_TRUE(support::parseSpanJson(line, parsed, nullptr));
    EXPECT_EQ(parsed.parent, 0u);
}

TEST_F(SpanTest, ParserRejectsMalformedLines)
{
    const std::string good = sampleSpan().toJson();
    support::TraceSpan out;
    std::string error;

    // Unknown field.
    std::string bad = good;
    bad.insert(bad.size() - 1, ",\"extra\":1");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));

    // Duplicate field.
    bad = good;
    bad.insert(bad.size() - 1, ",\"tid\":7");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_NE(error.find("duplicate field 'tid'"), std::string::npos)
        << error;

    // A second args object.
    bad = good;
    bad.insert(bad.size() - 1, ",\"args\":{}");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));

    // Missing field.
    bad = good;
    const size_t tid = bad.find(",\"tid\":7");
    ASSERT_NE(tid, std::string::npos);
    bad.erase(tid, 8);
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));

    // Trailing garbage after the object.
    EXPECT_FALSE(support::parseSpanJson(good + " x", out, &error));

    // Bad trace hex (too short).
    bad = good;
    const size_t trace = bad.find("\"trace\":\"");
    ASSERT_NE(trace, std::string::npos);
    bad.erase(trace + 9, 4);
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));

    // Non-scalar arg value.
    bad = good;
    const size_t args = bad.find("\"args\":{");
    ASSERT_NE(args, std::string::npos);
    bad.insert(args + 8, "\"nested\":{},");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));

    // Not an object at all.
    EXPECT_FALSE(support::parseSpanJson("[]", out, &error));
    EXPECT_FALSE(support::parseSpanJson("", out, &error));
}

// ---- scopes and ambient context ------------------------------------

TEST_F(SpanTest, InertWhenDisabled)
{
    auto &collector = support::SpanCollector::instance();
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(root.live());
        EXPECT_FALSE(support::currentSpanContext().valid());
    }
    EXPECT_EQ(collector.size(), 0u);
}

TEST_F(SpanTest, ChildOnlyScopeInertWithoutAmbient)
{
    support::SpanCollector::instance().configure(1.0);
    support::SpanScope child("cache-lookup");
    EXPECT_FALSE(child.live());
}

TEST_F(SpanTest, RootAndChildNestAndRestoreAmbient)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        EXPECT_TRUE(support::currentSpanContext().valid());
        EXPECT_EQ(support::currentSpanContext().span,
                  root.context().span);
        {
            support::SpanScope child("compile");
            ASSERT_TRUE(child.live());
            EXPECT_EQ(child.context().trace_hi,
                      root.context().trace_hi);
            EXPECT_EQ(support::currentSpanContext().span,
                      child.context().span);
        }
        // Child gone: ambient context back to the root.
        EXPECT_EQ(support::currentSpanContext().span,
                  root.context().span);
    }
    EXPECT_FALSE(support::currentSpanContext().valid());

    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);  // child recorded first
    EXPECT_EQ(spans[0].name, "compile");
    EXPECT_EQ(spans[1].name, "request");
    EXPECT_EQ(spans[0].parent, spans[1].span);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[0].trace_hi, spans[1].trace_hi);
    EXPECT_EQ(spans[0].trace_lo, spans[1].trace_lo);
}

TEST_F(SpanTest, SampleRateZeroRecordsNothing)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(0.0);
    for (int i = 0; i < 32; ++i) {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(root.live());
    }
    EXPECT_EQ(collector.size(), 0u);
}

TEST_F(SpanTest, ServiceOverridePropagatesToChildren)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled,
                                "replica:9000");
        ASSERT_TRUE(root.live());
        support::SpanScope child("compile");
        ASSERT_TRUE(child.live());
    }
    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].service, "replica:9000");
    EXPECT_EQ(spans[1].service, "replica:9000");
}

TEST_F(SpanTest, FinishRecordsOnceAndKeepsContext)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        root.finish();
        EXPECT_FALSE(root.live());
        EXPECT_TRUE(root.context().valid());
        root.finish();  // idempotent; destructor must not re-record
    }
    EXPECT_EQ(collector.snapshot().size(), 1u);
}

TEST_F(SpanTest, NoteSpanAttachesCompletedInterval)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    support::SpanContext parent;
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        parent = root.context();
        support::noteSpan(parent, "queue-wait", 100, 250);
    }
    // Invalid parent: inert.
    support::noteSpan(support::SpanContext{}, "ignored", 0, 10);

    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "queue-wait");
    EXPECT_EQ(spans[0].parent, parent.span);
    EXPECT_EQ(spans[0].start_us, 100);
    EXPECT_EQ(spans[0].dur_us, 150);
}

/**
 * Compile and verify the first SPECint95 proxy (profiled) under a
 * sampled "request" root, as a traced server request would.
 */
void
tracedCompile()
{
    const auto proxies = workloads::specint95Proxies();
    auto mod = workloads::buildProxy(proxies.front());
    ir::Function &fn = *mod->functions().front();
    workloads::profileFunction(fn, mod->memWords());
    support::SpanScope root("request",
                            support::SpanScope::Root::IfEnabled);
    ASSERT_TRUE(root.live());
    root.arg("verb", "compile").arg("ratio", 0.5);
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    const auto result = sched::runPipeline(fn, options);
    sched::verifyFunctionSchedule(result.schedule,
                                  options.model.issue_width);
}

TEST_F(SpanTest, StageSpansAreChildrenOfTheAmbientTrace)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    tracedCompile();
    const auto spans = collector.snapshot();
    ASSERT_FALSE(spans.empty());
    const support::TraceSpan &root = spans.back();
    EXPECT_EQ(root.name, "request");
    std::map<std::string, size_t> by_name;
    for (const support::TraceSpan &s : spans) {
        ++by_name[s.name];
        EXPECT_EQ(s.trace_lo, root.trace_lo) << s.name;
    }
    for (const char *stage :
         {"formation", "liveness", "schedule", "verify"}) {
        EXPECT_EQ(by_name[stage], 1u) << stage;
        for (const support::TraceSpan &s : spans) {
            if (s.name == stage) {
                EXPECT_EQ(s.parent, root.span) << stage;
            }
        }
    }
    // One lowering, DDG build and placement per region.
    EXPECT_GT(by_name["lower"], 0u);
    EXPECT_EQ(by_name["ddg_build"], by_name["lower"]);
    EXPECT_EQ(by_name["list_sched"], by_name["lower"]);
}

TEST_F(SpanTest, TracedCompileLinesReserializeByteForByte)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    tracedCompile();
    const std::string path =
        ::testing::TempDir() + "/span_traced_compile.jsonl";
    ASSERT_TRUE(collector.writeJsonl(path));
    std::ifstream file(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(file, line)) {
        support::TraceSpan s;
        std::string error;
        ASSERT_TRUE(support::parseSpanJson(line, s, &error))
            << error << ": " << line;
        EXPECT_EQ(s.toJson(), line);
        ++lines;
    }
    EXPECT_GT(lines, 8u);
    ::unlink(path.c_str());
}

TEST_F(SpanTest, WriteJsonlRoundTripsThroughParser)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        root.arg("verb", "compile").arg("n", int64_t{3});
    }
    const std::string path =
        ::testing::TempDir() + "/span_roundtrip.jsonl";
    ASSERT_TRUE(collector.writeJsonl(path));
    EXPECT_EQ(collector.size(), 0u);  // drained by the write

    std::ifstream file(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(file, line)) {
        support::TraceSpan s;
        std::string error;
        EXPECT_TRUE(support::parseSpanJson(line, s, &error))
            << error;
        ++lines;
    }
    EXPECT_EQ(lines, 1u);
    ::unlink(path.c_str());
}

// ---- flight recorder -----------------------------------------------

TEST(FlightRecTest, NotesAreCountedAndDumped)
{
    const uint64_t before = support::flightrec::noteCount();
    support::flightrec::note("test-tag", "detail-text", 11, 22);
    EXPECT_EQ(support::flightrec::noteCount(), before + 1);

    const std::string path =
        ::testing::TempDir() + "/flightrec_dump.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("test-tag"), std::string::npos);
    EXPECT_NE(dump.find("detail-text"), std::string::npos);
    EXPECT_NE(dump.find("\"a\":11"), std::string::npos);
    EXPECT_NE(dump.find("\"b\":22"), std::string::npos);
    ::unlink(path.c_str());
}

TEST(FlightRecTest, RingWrapsKeepingNewestEvents)
{
    for (int i = 0; i < support::flightrec::kRingEvents + 50; ++i)
        support::flightrec::note("wrap", nullptr,
                                 static_cast<uint64_t>(i));
    const std::string path =
        ::testing::TempDir() + "/flightrec_wrap.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    // The oldest notes were overwritten; the newest survived. Match
    // the tag too: other threads' rings hold events with a = 0 (every
    // compile notes one).
    const std::string wrap = "\"tag\":\"wrap\",\"detail\":\"\",\"a\":";
    EXPECT_EQ(dump.find(wrap + "0,"), std::string::npos);
    EXPECT_NE(dump.find(wrap + std::to_string(
                                   support::flightrec::kRingEvents + 49)),
              std::string::npos);
    ::unlink(path.c_str());
}

TEST(FlightRecTest, ThreadsGetTheirOwnRings)
{
    std::thread other(
        [] { support::flightrec::note("other-thread"); });
    other.join();
    support::flightrec::note("main-thread");
    const std::string path =
        ::testing::TempDir() + "/flightrec_threads.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("other-thread"), std::string::npos);
    EXPECT_NE(dump.find("main-thread"), std::string::npos);
    ::unlink(path.c_str());
}

/**
 * Every compile is noted where it runs, in runPipeline: a thread that
 * runs one fuzz cell, or one plain runPipelineOnClone, leaves a "job"
 * event naming <fn>/<scheme>/<heuristic>, whichever caller compiled.
 */
TEST(FlightRecTest, EveryCompileNotesItsFunctionSchemeAndHeuristic)
{
    const auto proxies = workloads::specint95Proxies();
    const auto mod = workloads::buildProxy(proxies.front());
    const ir::Function &fn = *mod->functions().front();

    sched::PipelineOptions cell;
    cell.scheme = sched::RegionScheme::Hyperblock;
    cell.sched.heuristic = sched::Heuristic::WeightedCount;
    fuzz::OracleOptions oracle;
    oracle.data_max = proxies.front().params.data_max;
    std::thread fuzz_cell([&] {
        const fuzz::OracleFailure fail =
            fuzz::checkCell(fn, mod->memWords(), cell, oracle);
        EXPECT_FALSE(fail) << fail.oracle << ": " << fail.detail;
    });
    fuzz_cell.join();

    sched::PipelineOptions plain;
    plain.scheme = sched::RegionScheme::Slr;
    plain.sched.heuristic = sched::Heuristic::ExitCount;
    std::thread compile([&] { sched::runPipelineOnClone(fn, plain); });
    compile.join();

    const std::string path =
        ::testing::TempDir() + "/flightrec_compiles.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    for (const char *config : {"/hyper/weighted-count", "/slr/exit-count"}) {
        const std::string detail = fn.name() + config;
        ASSERT_LT(detail.size(),
                  static_cast<size_t>(support::flightrec::kDetailChars));
        EXPECT_NE(dump.find("\"tag\":\"job\",\"detail\":\"" + detail +
                            "\""),
                  std::string::npos)
            << detail << " not in\n" << dump;
    }
    ::unlink(path.c_str());
}

/**
 * The actual crash path: a child process arms the recorder the way
 * treegiond does (dump path + crash handlers + panic hook), notes a
 * breadcrumb, then hits TG_PANIC. The parent asserts the child died
 * by SIGABRT and left a dump containing the breadcrumb — the exact
 * artifact an operator would pick up after a daemon crash.
 */
TEST(FlightRecTest, PanicInChildProcessLeavesDump)
{
    const std::string path =
        ::testing::TempDir() + "/flightrec_panic.jsonl";
    ::unlink(path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: silence the panic banner, arm, crash.
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0)
            ::dup2(null_fd, STDERR_FILENO);
        support::flightrec::setDumpPath(path.c_str());
        support::flightrec::installCrashHandlers();
        support::setPanicHook(&support::flightrec::dumpConfigured);
        support::flightrec::note("pre-crash", "breadcrumb", 77);
        TG_PANIC("deliberate test panic");
        ::_exit(0);  // unreachable
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("pre-crash"), std::string::npos);
    EXPECT_NE(dump.find("breadcrumb"), std::string::npos);
    ::unlink(path.c_str());
}

// ---- build info ----------------------------------------------------

TEST(BuildInfoTest, JsonCarriesTheExpectedKeys)
{
    const std::string info = support::buildInfoJson();
    EXPECT_NE(info.find("\"git\":"), std::string::npos);
    EXPECT_NE(info.find("\"compiler\":"), std::string::npos);
    EXPECT_NE(info.find("\"build_type\":"), std::string::npos);
    EXPECT_NE(info.find("\"span_schema\":\"treegion-span/v1\""),
              std::string::npos);
    EXPECT_NE(info.find("\"protocol\":"), std::string::npos);
}

TEST(BuildInfoTest, UptimeAdvances)
{
    EXPECT_GE(support::uptimeSeconds(), 0.0);
}

} // namespace
