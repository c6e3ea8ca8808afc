/**
 * @file
 * Unit tests for the support utilities.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bitvector.h"
#include "support/arena.h"
#include "support/inline_vector.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/string_utils.h"
#include "support/table.h"

namespace treegion::support {
namespace {

using tg_test::BitVector;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnit)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoolProbabilityRoughlyRespected)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(17);
    std::vector<double> w = {0.0, 1.0, 0.0, 3.0};
    for (int i = 0; i < 1000; ++i) {
        const size_t idx = rng.nextWeighted(w);
        EXPECT_TRUE(idx == 1 || idx == 3);
    }
}

TEST(BitVector, SetTestReset)
{
    BitVector bv(130);
    EXPECT_TRUE(bv.none());
    bv.set(0);
    bv.set(64);
    bv.set(129);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(129));
    EXPECT_FALSE(bv.test(1));
    EXPECT_EQ(bv.count(), 3u);
    bv.reset(64);
    EXPECT_FALSE(bv.test(64));
    EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector, SetAllRespectsSize)
{
    BitVector bv(70);
    bv.setAll();
    EXPECT_EQ(bv.count(), 70u);
}

TEST(BitVector, UnionReportsChange)
{
    BitVector a(100), b(100);
    b.set(42);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_FALSE(a.unionWith(b));
    EXPECT_TRUE(a.test(42));
}

TEST(BitVector, SubtractAndIntersect)
{
    BitVector a(64), b(64);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);
    BitVector inter = a;
    EXPECT_TRUE(inter.intersectWith(b));
    EXPECT_EQ(inter.count(), 1u);
    EXPECT_TRUE(inter.test(2));
    EXPECT_TRUE(a.subtract(b));
    EXPECT_TRUE(a.test(1));
    EXPECT_FALSE(a.test(2));
}

TEST(BitVector, ForEachSetAscending)
{
    BitVector bv(200);
    bv.set(3);
    bv.set(77);
    bv.set(199);
    EXPECT_EQ(bv.toIndices(), (std::vector<size_t>{3, 77, 199}));
}

TEST(InlineVector, HoldsUpToItsCapacityInPlace)
{
    InlineVector<int, 3> v;
    EXPECT_TRUE(v.empty());
    for (int i = 1; i <= 3; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.front(), 1);
    EXPECT_EQ(v.back(), 3);
    EXPECT_EQ(std::vector<int>(v.rbegin(), v.rend()),
              (std::vector<int>{3, 2, 1}));
    static_assert(sizeof(v) == 4 * sizeof(int), "no heap pointer");
    EXPECT_DEATH(v.push_back(4), "assertion failed");
}

TEST(InlineVector, CopiesAndComparesTheLiveElements)
{
    const InlineVector<int, 3> a = {1, 2};
    InlineVector<int, 3> b = a;
    EXPECT_EQ(a, b);
    b[1] = 5;
    EXPECT_NE(a, b);
    b = {1, 2, 3};
    EXPECT_NE(a, b);
    b = {1, 2};  // the stale third slot is not compared
    EXPECT_EQ(a, b);
    InlineVector<int, 3> moved = std::move(b);
    EXPECT_EQ(moved, a);
}

TEST(SmallVector, SpillsPastTwoTargets)
{
    SmallVector<uint32_t, 2> v = {7, 8};
    const void *in_place = v.data();
    EXPECT_EQ(static_cast<const void *>(&v), in_place);
    v.push_back(9);  // an MWBR's third case
    EXPECT_NE(static_cast<const void *>(v.data()), in_place);
    for (uint32_t i = 10; i < 47; ++i)
        v.push_back(i);
    ASSERT_EQ(v.size(), 40u);
    for (uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(v[i], 7 + i);
    EXPECT_EQ(v.back(), 46u);
}

TEST(SmallVector, CopyAndMoveKeepTheElements)
{
    const SmallVector<uint32_t, 2> small = {1, 2};
    const SmallVector<uint32_t, 2> big = {1, 2, 3, 4, 5};
    SmallVector<uint32_t, 2> a = small;
    SmallVector<uint32_t, 2> b = big;
    EXPECT_EQ(a, small);
    EXPECT_EQ(b, big);
    EXPECT_NE(b.data(), big.data());
    EXPECT_NE(a, b);

    SmallVector<uint32_t, 2> c = std::move(b);  // takes the heap array
    EXPECT_EQ(c, big);
    EXPECT_TRUE(b.empty());
    b = std::move(a);  // an in-place source
    EXPECT_EQ(b, small);
    EXPECT_TRUE(a.empty());
    c = small;  // a spilled target takes an in-place value
    EXPECT_EQ(c, small);
    a = big;
    c = a;
    EXPECT_EQ(c, big);
    c = std::move(c);
    EXPECT_EQ(c, big);
}

TEST(Accumulator, Basic)
{
    Accumulator acc;
    acc.add(2.0);
    acc.add(4.0);
    acc.add(6.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 6.0);
}

TEST(Accumulator, MergeMatchesSequentialAdds)
{
    Accumulator a, b, all;
    for (const double v : {1.0, 5.0, 9.0}) {
        a.add(v);
        all.add(v);
    }
    for (const double v : {2.0, 4.0}) {
        b.add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());

    // Merging an empty accumulator changes nothing, either way.
    Accumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), all.count());
    empty.merge(a);
    EXPECT_EQ(empty.count(), all.count());
    EXPECT_DOUBLE_EQ(empty.min(), all.min());
}

TEST(Histogram, CountSumMinMax)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    h.add(3.0);
    h.add(1.0);
    h.add(2.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(Histogram, PercentilesAreBucketAccurate)
{
    // Log-bucketed at 4 sub-buckets per octave: each bucket spans
    // x2^(1/4), so any percentile is within ~19% of the true value
    // and always clamped to the observed range.
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.2);
    EXPECT_NEAR(h.p95(), 950.0, 950.0 * 0.2);
    EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.2);
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(100.0), 1000.0);
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
}

TEST(Histogram, SingleValueHasFlatPercentiles)
{
    Histogram h;
    h.add(42.0);
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(Histogram, ExtremesLandInOverflowBuckets)
{
    Histogram h;
    h.add(0.0);     // below the smallest bucket
    h.add(1e300);   // above the largest
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 1e300);
    // Percentiles stay clamped to observed values.
    EXPECT_GE(h.p50(), 0.0);
    EXPECT_LE(h.p99(), 1e300);
}

TEST(Histogram, ToJsonCarriesCountAndExtremes)
{
    Histogram h;
    h.add(1.0);
    h.add(2.0);
    h.add(3.0);
    const std::string json = h.toJson();
    EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mean\":2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"min\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"max\":3"), std::string::npos) << json;
    for (const char *key : {"\"p50\":", "\"p95\":", "\"p99\":"})
        EXPECT_NE(json.find(key), std::string::npos) << json;

    const Histogram empty;
    EXPECT_NE(empty.toJson().find("\"count\":0"), std::string::npos);
}

TEST(Histogram, MergeMatchesCombinedStream)
{
    Histogram a, b, all;
    for (int i = 1; i <= 100; ++i) {
        ((i % 2) ? a : b).add(static_cast<double>(i));
        all.add(static_cast<double>(i));
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    // Same buckets either way, so identical percentiles.
    EXPECT_DOUBLE_EQ(a.p50(), all.p50());
    EXPECT_DOUBLE_EQ(a.p95(), all.p95());
    EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

TEST(GeoMean, Basic)
{
    GeoMean gm;
    gm.add(2.0);
    gm.add(8.0);
    EXPECT_NEAR(gm.value(), 4.0, 1e-9);
}

TEST(GeoMean, EmptyIsOne)
{
    GeoMean gm;
    EXPECT_DOUBLE_EQ(gm.value(), 1.0);
}

TEST(StringUtils, Split)
{
    const auto parts = splitString("a,bb,,c", ',');
    EXPECT_EQ(parts, (std::vector<std::string>{"a", "bb", "c"}));
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, StartsWith)
{
    EXPECT_TRUE(startsWith("block bb3", "block"));
    EXPECT_FALSE(startsWith("bb", "block"));
}

TEST(StringUtils, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(MetricsRegistry, CountersAndHistograms)
{
    MetricsRegistry metrics;
    EXPECT_EQ(metrics.counter("absent"), 0u);
    metrics.add("requests");
    metrics.add("requests", 4);
    metrics.set("gauge", 17);
    EXPECT_EQ(metrics.counter("requests"), 5u);
    EXPECT_EQ(metrics.counter("gauge"), 17u);

    metrics.observe("latency_ms", 10.0);
    metrics.observe("latency_ms", 20.0);
    EXPECT_EQ(metrics.histogram("latency_ms").count(), 2u);
    EXPECT_EQ(metrics.histogram("absent").count(), 0u);

    const std::string json = metrics.toJson();
    EXPECT_NE(json.find("\"requests\":5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    metrics.clear();
    EXPECT_EQ(metrics.counter("requests"), 0u);
    EXPECT_EQ(metrics.histogram("latency_ms").count(), 0u);
}

TEST(MetricsRegistry, ConcurrentUpdatesDontLoseCounts)
{
    MetricsRegistry metrics;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                metrics.add("hits");
                metrics.observe("v", 1.0);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(metrics.counter("hits"), 4000u);
    EXPECT_EQ(metrics.histogram("v").count(), 4000u);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"a", Table::fmt(1.5, 1)});
    t.addRow({"long-name", Table::fmt(12LL)});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("long-name"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("name,value"), std::string::npos);
}

// ---------------------------------------------------------------------
// Arena

TEST(Arena, AllocatesAlignedAndTracksUsage)
{
    Arena arena(64);
    auto *a = arena.allocArray<int32_t>(4);
    auto *b = arena.allocZeroed<int64_t>(3);
    auto *c = arena.allocFilled<int32_t>(2, -7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(int32_t), 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(int64_t), 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(b[i], 0);
    EXPECT_EQ(c[0], -7);
    EXPECT_EQ(c[1], -7);
    EXPECT_GE(arena.used(), 4 * sizeof(int32_t) + 3 * sizeof(int64_t) +
                                2 * sizeof(int32_t));
    EXPECT_GE(arena.capacity(), arena.used());
}

TEST(Arena, ResetRetainsBlocksAndRecordsHighWater)
{
    Arena arena(128);
    (void)arena.allocArray<char>(4000);  // forces growth
    const size_t used_first = arena.used();
    const size_t cap_first = arena.capacity();
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_GE(arena.highWater(), used_first);
    // Replaying the same allocation reuses retained blocks: capacity
    // must not grow.
    (void)arena.allocArray<char>(4000);
    EXPECT_EQ(arena.capacity(), cap_first);
}

TEST(Arena, VectorGrowsAndTruncates)
{
    Arena arena;
    ArenaVector<uint32_t> v(arena);
    for (uint32_t i = 0; i < 100; ++i)
        v.push_back(i);
    ASSERT_EQ(v.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(v[i], i);
    v.resize(10);
    EXPECT_EQ(v.size(), 10u);
    v.resize(12, 7u);
    EXPECT_EQ(v.size(), 12u);
    EXPECT_EQ(v[9], 9u);
    EXPECT_EQ(v[11], 7u);
    v.clear();
    EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------
// Bench JSON schemas (BENCH_cluster.json and BENCH_memsched.json, the
// --json output of throughput_cluster and throughput_memsched). The
// schema is part of the repo's perf-tracking contract: CI's
// perf-smoke job and humans appending entries both rely on these
// exact keys, units and config names. Changing any of them requires a
// version bump of the "schema" tag.

/** Minimal JSON value (enough for the bench schema). */
struct Json
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    operator[](const std::string &key) const
    {
        static const Json null;
        auto it = obj.find(key);
        return it == obj.end() ? null : it->second;
    }
};

/** Tiny recursive-descent JSON parser (asserts on malformed input). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parse()
    {
        const Json v = value();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        EXPECT_EQ(peek(), c);
        ++pos_;
    }

    Json
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': {
            Json v;
            v.kind = Json::Kind::Str;
            v.str = string();
            return v;
          }
          case 't':
          case 'f': {
            Json v;
            v.kind = Json::Kind::Bool;
            v.b = text_[pos_] == 't';
            pos_ += v.b ? 4 : 5;
            return v;
          }
          default: return number();
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            EXPECT_NE(text_[pos_], '\\') << "escapes not in schema";
            out += text_[pos_++];
        }
        expect('"');
        return out;
    }

    Json
    number()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                strchr("+-.eE", text_[pos_])))
            ++pos_;
        Json v;
        v.kind = Json::Kind::Num;
        EXPECT_GT(pos_, start) << "expected a number";
        v.num = std::strtod(text_.c_str() + start, nullptr);
        return v;
    }

    Json
    array()
    {
        expect('[');
        Json v;
        v.kind = Json::Kind::Arr;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    Json
    object()
    {
        expect('{');
        Json v;
        v.kind = Json::Kind::Obj;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            const std::string key = string();
            expect(':');
            v.obj.emplace(key, value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

Json
loadClusterBenchHistory()
{
    std::ifstream in(TREEGION_CLUSTER_BENCH_JSON);
    EXPECT_TRUE(in.good()) << "missing " << TREEGION_CLUSTER_BENCH_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonParser(ss.str()).parse();
}

/** The config names throughput_cluster emits, in emission order. */
const char *const kClusterConfigNames[] = {
    "cold-1r", "warm-1r", "cold-2r", "warm-2r", "cold-4r", "warm-4r",
};

TEST(ClusterBenchSchema, HistoryIsArrayOfV1Entries)
{
    const Json hist = loadClusterBenchHistory();
    ASSERT_EQ(hist.kind, Json::Kind::Arr);
    ASSERT_FALSE(hist.arr.empty());
    for (const Json &entry : hist.arr) {
        ASSERT_EQ(entry.kind, Json::Kind::Obj);
        EXPECT_EQ(entry["schema"].str, "treegion-cluster-bench/v1");
        EXPECT_FALSE(entry["label"].str.empty());
        const Json &workload = entry["workload"];
        ASSERT_EQ(workload.kind, Json::Kind::Obj);
        EXPECT_EQ(workload["name"].str, "pinned-service-time");
        EXPECT_GT(workload["clients"].num, 0.0);
        EXPECT_GT(workload["keys"].num, 0.0);
        EXPECT_GT(workload["delay_ms"].num, 0.0)
            << "capacity must be pinned for cross-machine comparison";
        const Json &configs = entry["configs"];
        ASSERT_EQ(configs.kind, Json::Kind::Arr);
        ASSERT_EQ(configs.arr.size(), std::size(kClusterConfigNames));
        for (size_t i = 0; i < configs.arr.size(); ++i) {
            const Json &c = configs.arr[i];
            EXPECT_EQ(c["name"].str, kClusterConfigNames[i]);
            EXPECT_GT(c["replicas"].num, 0.0);
            EXPECT_GT(c["wall_s"].num, 0.0);
            EXPECT_NEAR(c["reqs_per_s"].num,
                        c["requests"].num / c["wall_s"].num,
                        0.01 * c["reqs_per_s"].num);
        }
    }
}

Json
loadMemschedBenchHistory()
{
    std::ifstream in(TREEGION_MEMSCHED_BENCH_JSON);
    EXPECT_TRUE(in.good()) << "missing " << TREEGION_MEMSCHED_BENCH_JSON;
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonParser(ss.str()).parse();
}

/** The frontier points throughput_memsched emits, in emission order. */
const char *const kMemschedConfigNames[] = {
    "fifo", "budget-75", "budget-50", "budget-35",
};

TEST(MemschedBenchSchema, HistoryIsArrayOfV1Entries)
{
    const Json hist = loadMemschedBenchHistory();
    ASSERT_EQ(hist.kind, Json::Kind::Arr);
    ASSERT_FALSE(hist.arr.empty());
    for (const Json &entry : hist.arr) {
        ASSERT_EQ(entry.kind, Json::Kind::Obj);
        EXPECT_EQ(entry["schema"].str, "treegion-memsched-bench/v1");
        EXPECT_FALSE(entry["label"].str.empty());
        EXPECT_GT(entry["jobs"].num, 0.0);
        EXPECT_GT(entry["threads"].num, 1.0)
            << "budgeted admission is only exercised concurrently";
        const Json &configs = entry["configs"];
        ASSERT_EQ(configs.kind, Json::Kind::Arr);
        ASSERT_EQ(configs.arr.size(),
                  std::size(kMemschedConfigNames));
        for (size_t i = 0; i < configs.arr.size(); ++i) {
            const Json &c = configs.arr[i];
            EXPECT_EQ(c["name"].str, kMemschedConfigNames[i]);
            EXPECT_GT(c["peak_bytes"].num, 0.0);
            EXPECT_GT(c["makespan_s"].num, 0.0);
            EXPECT_NEAR(c["jobs_per_s"].num,
                        entry["jobs"].num / c["makespan_s"].num,
                        0.01 * c["jobs_per_s"].num);
        }
        // The unbudgeted baseline leads; budgets tighten after it.
        EXPECT_EQ(configs.arr[0]["budget_bytes"].num, 0.0);
        for (size_t i = 2; i < configs.arr.size(); ++i) {
            EXPECT_LT(configs.arr[i]["budget_bytes"].num,
                      configs.arr[i - 1]["budget_bytes"].num);
        }
    }
}

TEST(MemschedBenchSchema, FrontierMeetsTheAcceptanceBar)
{
    // The committed baseline must demonstrate ISSUE 8's bar: at the
    // tightest budget, peak memory drops >= 30% below unbudgeted
    // FIFO while the makespan inflates <= 15%.
    const Json hist = loadMemschedBenchHistory();
    ASSERT_EQ(hist.kind, Json::Kind::Arr);
    ASSERT_FALSE(hist.arr.empty());
    const Json &configs = hist.arr.back()["configs"];
    const Json &fifo = configs.arr.front();
    const Json &tightest = configs.arr.back();
    EXPECT_LE(tightest["peak_bytes"].num,
              0.70 * fifo["peak_bytes"].num)
        << "committed memsched baseline lost its peak reduction";
    EXPECT_LE(tightest["makespan_s"].num,
              1.15 * fifo["makespan_s"].num)
        << "committed memsched baseline pays too much makespan";
}

TEST(ClusterBenchSchema, WarmScalingMeetsTheAcceptanceBar)
{
    // The committed baseline must demonstrate >= 3x warm throughput
    // at 4 replicas vs 1: sharding has to pay for its routing.
    const Json hist = loadClusterBenchHistory();
    ASSERT_EQ(hist.kind, Json::Kind::Arr);
    ASSERT_FALSE(hist.arr.empty());
    const Json &configs = hist.arr.back()["configs"];
    double warm_1r = 0.0, warm_4r = 0.0;
    for (const Json &c : configs.arr) {
        if (c["name"].str == "warm-1r")
            warm_1r = c["reqs_per_s"].num;
        if (c["name"].str == "warm-4r")
            warm_4r = c["reqs_per_s"].num;
    }
    ASSERT_GT(warm_1r, 0.0);
    EXPECT_GE(warm_4r / warm_1r, 3.0)
        << "committed cluster baseline lost its scaling headroom";
}

} // namespace
} // namespace treegion::support
