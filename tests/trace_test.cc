/**
 * @file
 * Unit tests for the local trace — the span collector timing one
 * process's stages: enable/disable semantics, thread-id stability,
 * scopes from many threads, JSON escaping, the shape of the Chrome
 * trace exporter, and the counts the pipeline's stage spans carry.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "ir/builder.h"
#include "sched/pipeline.h"
#include "support/jsonl.h"
#include "support/spans.h"
#include "support/thread_pool.h"

namespace treegion::support {
namespace {

/** Reset the process-wide collector around every test. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SpanCollector &collector = SpanCollector::instance();
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

TEST_F(TraceTest, DisabledRecordsNothing)
{
    {
        SpanScope root("run", SpanScope::Root::IfEnabled);
        SpanScope stage("stage");
        EXPECT_FALSE(root.live());
        EXPECT_FALSE(stage.live());
        root.arg("n", int64_t{3});
    }
    EXPECT_EQ(SpanCollector::instance().size(), 0u);
}

TEST_F(TraceTest, ScopeOpenedWhileDisabledStaysInert)
{
    {
        SpanScope root("half", SpanScope::Root::IfEnabled);
        // Enabling mid-span must not emit a torn span at close, and
        // nothing can nest under the inert scope.
        SpanCollector::instance().configure(1.0);
        SpanScope stage("stage");
        EXPECT_FALSE(stage.live());
    }
    EXPECT_EQ(SpanCollector::instance().size(), 0u);
}

TEST_F(TraceTest, ThreadIdsAreStableAndDistinct)
{
    const uint32_t main_a = currentThreadId();
    const uint32_t main_b = currentThreadId();
    EXPECT_EQ(main_a, main_b);
    uint32_t other = main_a;
    std::thread t([&] { other = currentThreadId(); });
    t.join();
    EXPECT_NE(other, main_a);
}

TEST_F(TraceTest, ParallelScopesAllLand)
{
    SpanCollector::instance().configure(1.0);
    {
        ThreadPool pool(4);
        pool.parallelFor(64, [](size_t i) {
            SpanScope span(i % 2 ? "odd" : "even",
                           SpanScope::Root::IfEnabled);
        });
    }
    EXPECT_EQ(SpanCollector::instance().size(), 64u);
}

TEST_F(TraceTest, RootSpanLandsInAFullBuffer)
{
    SpanCollector &collector = SpanCollector::instance();
    collector.configure(1.0);
    TraceSpan child;
    child.parent = 1;
    child.name = "cell";
    while (collector.dropped() == 0)
        collector.record(child);
    const size_t full = collector.size();

    // The root closes last, after its children filled the buffer.
    TraceSpan root;
    root.name = "campaign";
    collector.record(root);
    EXPECT_EQ(collector.size(), full + 1);
    EXPECT_EQ(collector.snapshot().back().name, "campaign");

    // The headroom takes roots only, and it is bounded too.
    collector.record(child);
    EXPECT_EQ(collector.dropped(), 2u);
    while (collector.dropped() == 2)
        collector.record(root);
    EXPECT_EQ(collector.size(), 65536u);
    EXPECT_GT(full, 60000u);
}

TEST_F(TraceTest, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape("cr\rtab\t"), "cr\\rtab\\t");
    EXPECT_EQ(jsonEscape(std::string("\x01")), "\\u0001");
}

/** Delimiters balance outside string literals, and no array holds an
 * empty element. */
void
expectWellFormed(const std::string &json)
{
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find("[,"), std::string::npos);
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++braces;
        else if (c == '}')
            --braces;
        else if (c == '[')
            ++brackets;
        else if (c == ']')
            --brackets;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST_F(TraceTest, ChromeTraceShape)
{
    SpanCollector::instance().configure(1.0);
    {
        SpanScope span("sched \"quoted\"", SpanScope::Root::IfEnabled);
        span.arg("fn", "main").arg("ops", int64_t{12});
        SpanScope peer("fill", SpanScope::Root::No, "replica:2");
    }
    const std::string json =
        chromeTraceJson(SpanCollector::instance().snapshot());

    // The Chrome trace "JSON object format": a traceEvents array of
    // complete ("X") events, one metadata-named process per service.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("sched \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"fn\":\"main\",\"ops\":12}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"treegion\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"replica:2\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"),
              std::string::npos);
    expectWellFormed(json);
}

TEST_F(TraceTest, EmptyTraceIsStillValid)
{
    EXPECT_EQ(chromeTraceJson({}),
              "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

/** if (x < 5) x + 1 else x - 1, then return x. */
ir::Function
diamond()
{
    using B = ir::Builder;
    ir::Function fn("diamond");
    B b(fn);
    const ir::BlockId entry = b.newBlock();
    const ir::BlockId left = b.newBlock();
    const ir::BlockId right = b.newBlock();
    const ir::BlockId join = b.newBlock();
    fn.setEntry(entry);
    b.setInsertPoint(entry);
    const ir::Reg x = b.movi(3);
    b.condBr(ir::CmpKind::LT, B::R(x), B::I(5), left, right);
    b.setInsertPoint(left);
    b.binary(ir::Opcode::ADD, B::R(x), B::I(1));
    b.bru(join);
    b.setInsertPoint(right);
    b.binary(ir::Opcode::SUB, B::R(x), B::I(1));
    b.bru(join);
    b.setInsertPoint(join);
    b.ret(B::R(x));
    return fn;
}

TEST_F(TraceTest, StageSpansCarryRegionAndOpCounts)
{
    ir::Function fn = diamond();
    SpanCollector::instance().configure(1.0);
    sched::PipelineResult result;
    {
        SpanScope root("run", SpanScope::Root::IfEnabled);
        result = sched::runPipeline(fn, sched::PipelineOptions{});
    }
    int64_t ops = 0;
    for (const auto &[root, rs] : result.schedule.regions)
        ops += static_cast<int64_t>(rs.ops.size());
    ASSERT_GT(ops, 0);

    // Each stage's count rides on that stage's span.
    const auto countArg = [](const TraceSpan &s, const char *key) {
        for (const SpanArg &a : s.args) {
            if (a.key == key && a.type == SpanArg::Type::Int)
                return a.i;
        }
        return int64_t{-1};
    };
    size_t formation = 0, schedule = 0;
    for (const TraceSpan &s : SpanCollector::instance().snapshot()) {
        if (s.name == "formation") {
            ++formation;
            EXPECT_EQ(countArg(s, "regions"),
                      static_cast<int64_t>(
                          result.regions.regions().size()));
        } else if (s.name == "schedule") {
            ++schedule;
            EXPECT_EQ(countArg(s, "ops"), ops);
        }
    }
    EXPECT_EQ(formation, 1u);
    EXPECT_EQ(schedule, 1u);
}

TEST_F(TraceTest, JobSpansJoinTheCallersTraceAtAnyThreadCount)
{
    const ir::Function fn = diamond();
    std::vector<sched::PipelineJob> jobs(6);
    for (sched::PipelineJob &job : jobs)
        job.fn = &fn;
    SpanCollector &collector = SpanCollector::instance();
    collector.configure(1.0);
    for (const size_t threads : {1u, 4u}) {
        collector.clear();
        SpanContext caller;
        {
            SpanScope root("batch", SpanScope::Root::IfEnabled);
            ASSERT_TRUE(root.live());
            caller = root.context();
            sched::runPipelineParallel(jobs, threads);
        }
        size_t job_spans = 0;
        for (const TraceSpan &s : collector.snapshot()) {
            if (s.name != "job")
                continue;
            ++job_spans;
            EXPECT_EQ(s.trace_hi, caller.trace_hi) << threads;
            EXPECT_EQ(s.trace_lo, caller.trace_lo) << threads;
            EXPECT_EQ(s.parent, caller.span) << threads;
        }
        EXPECT_EQ(job_spans, jobs.size()) << threads;
    }
}

} // namespace
} // namespace treegion::support
