/**
 * @file
 * Decision-remark tests: kind/pass naming, JSON schema round-trip and
 * rejection, stream collection and metrics folding, and — against
 * real pipeline runs — that every remark kind is emitted, that counts
 * agree with the scheduler's own statistics, that tail-dup refusals
 * are reported exactly once per refused edge, and that a count-only
 * stream counts exactly what a full stream records without changing
 * the compile.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "region/formation.h"
#include "region/graphviz.h"
#include "sched/pipeline.h"
#include "sched/priority.h"
#include "support/metrics.h"
#include "support/remarks.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"

namespace treegion::support {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Reg;

// ---- names and schema ----------------------------------------------

TEST(RemarkKinds, NamesRoundTripAndPassesAreKnown)
{
    const std::set<std::string> passes = {"formation", "tail-dup",
                                          "sched", "perf"};
    std::set<std::string> seen;
    for (const RemarkKind kind : kAllRemarkKinds) {
        const std::string name = remarkKindName(kind);
        EXPECT_TRUE(seen.insert(name).second) << name << " repeated";
        RemarkKind parsed;
        ASSERT_TRUE(parseRemarkKind(name, parsed)) << name;
        EXPECT_EQ(parsed, kind);
        EXPECT_TRUE(passes.count(remarkPassName(kind)))
            << remarkPassName(kind);
    }
    RemarkKind out;
    EXPECT_FALSE(parseRemarkKind("bogus-kind", out));
    EXPECT_FALSE(parseRemarkKind("", out));
}

Remark
sampleRemark()
{
    Remark r;
    r.kind = RemarkKind::TailDupRefused;
    r.function = "odd \"name\"\nwith\tescapes\\";
    r.block = 7;
    r.op = 123;
    r.args.push_back({"reason", RemarkArg::Type::Str, 0, 0.0,
                      "merge-limit"});
    r.args.push_back({"preds", RemarkArg::Type::Int, -5, 0.0, ""});
    r.args.push_back({"cap", RemarkArg::Type::Float, 0, 0.1, ""});
    r.args.push_back({"big", RemarkArg::Type::Float, 0, 1.25e300, ""});
    return r;
}

TEST(RemarkJson, RoundTripIsLossless)
{
    const Remark r = sampleRemark();
    const std::string line = r.toJson();
    Remark back;
    std::string error;
    ASSERT_TRUE(parseRemarkJson(line, back, &error)) << error;
    EXPECT_EQ(back, r);
    // Floats printed with %.17g are bit-exact through strtod.
    EXPECT_EQ(back.args[2].f, 0.1);
    EXPECT_EQ(back.args[3].f, 1.25e300);
    // Re-serialization is canonical.
    EXPECT_EQ(back.toJson(), line);
}

TEST(RemarkJson, OptionalAnchorsStayAbsent)
{
    Remark r;
    r.kind = RemarkKind::RegionFormed;
    r.function = "f";
    const std::string line = r.toJson();
    EXPECT_EQ(line.find("\"block\""), std::string::npos);
    EXPECT_EQ(line.find("\"op\""), std::string::npos);
    EXPECT_EQ(line.find("\"args\""), std::string::npos);
    Remark back;
    ASSERT_TRUE(parseRemarkJson(line, back));
    EXPECT_EQ(back, r);
}

TEST(RemarkJson, RejectsSchemaViolations)
{
    const struct
    {
        const char *line;
        const char *why;
    } cases[] = {
        {"{\"pass\":\"sched\",\"kind\":\"not-a-kind\",\"fn\":\"f\"}",
         "unknown kind"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\"}", "missing fn"},
        {"{\"kind\":\"renamed\",\"fn\":\"f\"}", "missing pass"},
        {"{\"pass\":\"perf\",\"kind\":\"renamed\",\"fn\":\"f\"}",
         "pass/kind mismatch"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\"} x",
         "trailing garbage"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"block\":\"seven\"}",
         "block must be an integer"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"block\":-2}",
         "block must be non-negative"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"surprise\":1}",
         "unknown top-level key"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"args\":{\"x\":{}}}",
         "nested args value"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"a\","
         "\"fn\":\"b\"}",
         "repeated fn"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"args\":{\"x\":1},\"args\":{\"y\":2}}",
         "repeated args"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":7}",
         "fn must be a string"},
        {"{\"pass\":\"sched\",\"kind\":\"renamed\",\"fn\":\"f\","
         "\"args\":3}",
         "args must be an object"},
        {"not json at all", "not an object"},
        {"", "empty line"},
    };
    for (const auto &c : cases) {
        Remark out;
        std::string error;
        EXPECT_FALSE(parseRemarkJson(c.line, out, &error))
            << c.why << ": " << c.line;
        EXPECT_FALSE(error.empty()) << c.why;
    }
}

// ---- stream and metrics --------------------------------------------

TEST(RemarkStream, StampsFunctionAndFoldsCounters)
{
    RemarkStream stream;
    stream.setFunction("f");
    {
        RemarkScope scope(&stream);
        ASSERT_TRUE(remarksEnabled());
        remark(RemarkKind::Renamed).block(1).op(2).arg("from", "r1");
        remark(RemarkKind::Renamed).block(1).op(3).arg("from", "r2");
        remark(RemarkKind::Speculated).op(4);
    }
    EXPECT_FALSE(remarksEnabled());
    ASSERT_EQ(stream.size(), 3u);
    for (const Remark &r : stream.remarks())
        EXPECT_EQ(r.function, "f");

    MetricsRegistry metrics;
    stream.foldInto(metrics);
    EXPECT_EQ(metrics.counter("remarks_renamed"), 2u);
    EXPECT_EQ(metrics.counter("remarks_speculated"), 1u);
    EXPECT_EQ(metrics.counter("remarks_total"), 3u);
}

TEST(RemarkStream, CountOnlyCountsWithoutBuildingRemarks)
{
    RemarkStream stream(RemarkStream::Mode::CountOnly);
    {
        RemarkScope scope(&stream);
        // Still enabled: dedupe-gated sites must count as before.
        ASSERT_TRUE(remarksEnabled());
        auto r = remark(RemarkKind::Renamed);
        EXPECT_FALSE(r.live());
        r.block(1).op(2).arg("from", "r1");
        remark(RemarkKind::Renamed).arg("to", std::string("r9"));
        remark(RemarkKind::ExitCost).arg("cost", 1.5);
    }
    EXPECT_EQ(stream.size(), 0u);
    EXPECT_EQ(stream.count(RemarkKind::Renamed), 2u);
    EXPECT_EQ(stream.count(RemarkKind::ExitCost), 1u);
    EXPECT_EQ(stream.count(RemarkKind::Elided), 0u);
    EXPECT_EQ(stream.total(), 3u);

    MetricsRegistry metrics;
    stream.foldInto(metrics);
    EXPECT_EQ(metrics.counter("remarks_renamed"), 2u);
    EXPECT_EQ(metrics.counter("remarks_exit_cost"), 1u);
    EXPECT_EQ(metrics.counter("remarks_total"), 3u);
    // Kinds never emitted get no counter, exactly as before.
    EXPECT_EQ(metrics.counters().count("remarks_elided"), 0u);

    stream.clear();
    EXPECT_EQ(stream.total(), 0u);
}

TEST(RemarkStream, BuilderIsInertWithoutAScope)
{
    // No scope installed: emission sites are no-ops, not crashes.
    remark(RemarkKind::Elided).block(1).op(2).arg("twin", 3);
    EXPECT_EQ(currentRemarkStream(), nullptr);
}

TEST(RemarkScope, NestsAndRestores)
{
    RemarkStream outer, inner;
    RemarkScope a(&outer);
    {
        RemarkScope b(&inner);
        remark(RemarkKind::RegionFormed).block(0);
    }
    remark(RemarkKind::RegionFormed).block(1);
    EXPECT_EQ(inner.size(), 1u);
    EXPECT_EQ(outer.size(), 1u);
    EXPECT_EQ(inner.remarks()[0].block, 0);
    EXPECT_EQ(outer.remarks()[0].block, 1);
}

// ---- pipeline emission ---------------------------------------------

struct RemarkRun
{
    sched::PipelineResult result;
    RemarkStream stream;
    size_t dup_blocks = 0;  ///< blocks the run tail-duplicated
};

/** Run the pipeline on a clone of @p fn, collecting remarks. */
RemarkRun
compileWithRemarks(const Function &fn,
                   const sched::PipelineOptions &options)
{
    RemarkRun run;
    Function clone = fn.clone();
    {
        RemarkScope scope(&run.stream);
        run.result = sched::runPipeline(clone, options);
    }
    for (const BlockId id : clone.blockIds())
        if (clone.block(id).originalId() != id)
            ++run.dup_blocks;
    return run;
}

std::map<RemarkKind, size_t>
countByKind(const RemarkStream &stream)
{
    std::map<RemarkKind, size_t> counts;
    for (const Remark &r : stream.remarks())
        ++counts[r.kind];
    return counts;
}

/** Diamond with a shared tail: a -> (b|c) -> tail -> ret. */
Function
sharedTailDiamond()
{
    Function fn("f");
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    const BlockId b = bu.newBlock();
    const BlockId c = bu.newBlock();
    const BlockId tail = bu.newBlock();
    fn.setEntry(a);

    bu.setInsertPoint(a);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);

    bu.setInsertPoint(b);
    bu.store(base, 2, Builder::I(1));
    bu.bru(tail);

    bu.setInsertPoint(c);
    bu.store(base, 2, Builder::I(2));
    bu.bru(tail);

    bu.setInsertPoint(tail);
    const Reg y = bu.load(base, 2);
    bu.ret(Builder::R(y));

    fn.block(a).setWeight(10);
    fn.block(a).edgeWeights() = {6, 4};
    fn.block(b).setWeight(6);
    fn.block(b).edgeWeights() = {6};
    fn.block(c).setWeight(4);
    fn.block(c).edgeWeights() = {4};
    fn.block(tail).setWeight(10);
    return fn;
}

TEST(PipelineRemarks, RefusalReasonsAreReported)
{
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;

    // expansion-limit: with a 1.0 ratio, any duplication overflows.
    {
        sched::PipelineOptions o = options;
        o.tail_dup.expansion_limit = 1.0;
        const RemarkRun run = compileWithRemarks(sharedTailDiamond(), o);
        bool found = false;
        for (const Remark &r : run.stream.remarks()) {
            if (r.kind != RemarkKind::TailDupRefused)
                continue;
            for (const RemarkArg &arg : r.args)
                found |= arg.key == "reason" &&
                         arg.s == "expansion-limit";
        }
        EXPECT_TRUE(found);
    }

    // path-limit: one path allowed, the diamond needs two.
    {
        sched::PipelineOptions o = options;
        o.tail_dup.path_limit = 1;
        const RemarkRun run = compileWithRemarks(sharedTailDiamond(), o);
        bool found = false;
        for (const Remark &r : run.stream.remarks()) {
            if (r.kind != RemarkKind::TailDupStopped)
                continue;
            for (const RemarkArg &arg : r.args)
                found |= arg.key == "reason" && arg.s == "path-limit";
        }
        EXPECT_TRUE(found);
    }

    // max-blocks: a one-block budget stops before any selection.
    {
        sched::PipelineOptions o = options;
        o.tail_dup.max_region_blocks = 1;
        const RemarkRun run = compileWithRemarks(sharedTailDiamond(), o);
        bool found = false;
        for (const Remark &r : run.stream.remarks()) {
            if (r.kind != RemarkKind::TailDupStopped)
                continue;
            for (const RemarkArg &arg : r.args)
                found |= arg.key == "reason" && arg.s == "max-blocks";
        }
        EXPECT_TRUE(found);
    }

    // merge-limit: a 5-way merge against the default limit of 4.
    {
        Function fn("wide");
        Builder bu(fn);
        const BlockId entry = bu.newBlock();
        std::vector<BlockId> arms;
        for (int i = 0; i < 5; ++i)
            arms.push_back(bu.newBlock());
        const BlockId merge = bu.newBlock();
        const BlockId after = bu.newBlock();
        fn.setEntry(entry);

        bu.setInsertPoint(entry);
        const Reg base = bu.movi(0);
        const Reg sel = bu.load(base, 1);
        bu.mwbr(sel, arms);
        for (const BlockId arm : arms) {
            bu.setInsertPoint(arm);
            bu.bru(merge);
        }
        bu.setInsertPoint(merge);
        bu.bru(after);
        bu.setInsertPoint(after);
        bu.ret(Builder::I(0));

        fn.block(entry).setWeight(10);
        fn.block(entry).edgeWeights() = {2, 2, 2, 2, 2};
        for (const BlockId arm : arms) {
            fn.block(arm).setWeight(2);
            fn.block(arm).edgeWeights() = {2};
        }
        fn.block(merge).setWeight(10);
        fn.block(merge).edgeWeights() = {10};
        fn.block(after).setWeight(10);

        const RemarkRun run = compileWithRemarks(fn, options);
        bool found = false;
        for (const Remark &r : run.stream.remarks()) {
            if (r.kind != RemarkKind::TailDupRefused)
                continue;
            for (const RemarkArg &arg : r.args)
                found |=
                    arg.key == "reason" && arg.s == "merge-limit";
        }
        EXPECT_TRUE(found);
    }

    // repeats-along-path: a loop body already on the path is never
    // duplicated below itself (that would be unrolling).
    {
        Function fn("loop");
        Builder bu(fn);
        const BlockId entry = bu.newBlock();
        const BlockId body = bu.newBlock();
        const BlockId exit = bu.newBlock();
        fn.setEntry(entry);

        bu.setInsertPoint(entry);
        const Reg base = bu.movi(0);
        // Padding: the loop body (3 ops) must fit the 2.0x expansion
        // budget of the entry region, or the clone that makes the
        // repeat visible is itself refused first.
        bu.movi(1);
        bu.movi(2);
        bu.movi(3);
        bu.bru(body);
        bu.setInsertPoint(body);
        const Reg v = bu.load(base, 1);
        bu.condBr(CmpKind::LT, Builder::R(v), Builder::I(5), body,
                  exit);
        bu.setInsertPoint(exit);
        bu.ret(Builder::I(0));

        fn.block(entry).setWeight(1);
        fn.block(entry).edgeWeights() = {1};
        fn.block(body).setWeight(10);
        fn.block(body).edgeWeights() = {9, 1};
        fn.block(exit).setWeight(1);

        const RemarkRun run = compileWithRemarks(fn, options);
        bool found = false;
        for (const Remark &r : run.stream.remarks()) {
            if (r.kind != RemarkKind::TailDupRefused)
                continue;
            for (const RemarkArg &arg : r.args)
                found |= arg.key == "reason" &&
                         arg.s == "repeats-along-path";
        }
        EXPECT_TRUE(found);
    }
}

TEST(PipelineRemarks, EveryRemarkIsSchemaValid)
{
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    const RemarkRun run = compileWithRemarks(sharedTailDiamond(), options);
    ASSERT_GT(run.stream.size(), 0u);
    for (const Remark &r : run.stream.remarks()) {
        Remark back;
        std::string error;
        ASSERT_TRUE(parseRemarkJson(r.toJson(), back, &error))
            << r.toJson() << ": " << error;
        EXPECT_EQ(back, r);
    }
}

/** Load and profile examples/sum_loop.tir (as treegionc would). */
std::unique_ptr<ir::Module>
loadSumLoop()
{
    std::ifstream file(std::string(TREEGION_EXAMPLES_DIR) +
                       "/sum_loop.tir");
    if (!file)
        return nullptr;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string error;
    auto mod = ir::parseModule(buffer.str(), &error);
    if (mod) {
        for (const auto &fn : mod->functions())
            workloads::profileFunction(*fn, mod->memWords());
    }
    return mod;
}

TEST(PipelineRemarks, SumLoopLinesReserializeByteForByte)
{
    auto mod = loadSumLoop();
    ASSERT_NE(mod, nullptr);
    size_t lines = 0;
    for (const sched::RegionScheme scheme :
         {sched::RegionScheme::BasicBlock, sched::RegionScheme::Slr,
          sched::RegionScheme::Superblock, sched::RegionScheme::Treegion,
          sched::RegionScheme::TreegionTailDup,
          sched::RegionScheme::Hyperblock}) {
        sched::PipelineOptions options;
        options.scheme = scheme;
        const RemarkRun run =
            compileWithRemarks(mod->function("main"), options);
        std::istringstream stream(run.stream.toJsonLines());
        std::string line;
        while (std::getline(stream, line)) {
            Remark back;
            std::string error;
            ASSERT_TRUE(parseRemarkJson(line, back, &error))
                << error << ": " << line;
            EXPECT_EQ(back.toJson(), line);
            ++lines;
        }
    }
    EXPECT_GT(lines, 0u);
}

TEST(PipelineRemarks, SumLoopCoversEveryKindOnce)
{
    auto mod = loadSumLoop();
    ASSERT_NE(mod, nullptr);

    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    const RemarkRun run = compileWithRemarks(mod->function("main"), options);
    const auto counts = countByKind(run.stream);
    for (const RemarkKind kind : kAllRemarkKinds) {
        EXPECT_TRUE(counts.count(kind))
            << "kind " << remarkKindName(kind)
            << " never emitted for sum_loop";
    }
}

TEST(PipelineRemarks, CountsMatchSchedulerStatistics)
{
    auto mod = loadSumLoop();
    ASSERT_NE(mod, nullptr);

    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    const RemarkRun run = compileWithRemarks(mod->function("main"), options);
    auto counts = countByKind(run.stream);

    // Every speculated / renamed / elided op appears as exactly one
    // remark: the remark counts equal the scheduler's own statistics.
    EXPECT_EQ(counts[RemarkKind::Speculated],
              run.result.total_sched_stats.speculated_ops);
    EXPECT_EQ(counts[RemarkKind::Renamed],
              run.result.total_sched_stats.renamed_defs);
    EXPECT_EQ(counts[RemarkKind::Elided],
              run.result.total_sched_stats.elided_ops);
    // ...and every cloned block has exactly one tail-duplicated remark.
    EXPECT_EQ(counts[RemarkKind::TailDuplicated], run.dup_blocks);

    // Each tail-dup refusal is reported exactly once per (edge,
    // reason), despite the expansion loop re-scanning candidates.
    std::set<std::string> refusals;
    for (const Remark &r : run.stream.remarks()) {
        if (r.kind != RemarkKind::TailDupRefused)
            continue;
        EXPECT_TRUE(refusals.insert(r.toJson()).second)
            << "duplicate refusal remark: " << r.toJson();
    }
    EXPECT_GT(refusals.size(), 0u);
}

TEST(PipelineRemarks, DisabledCollectionIsFree)
{
    auto mod = loadSumLoop();
    ASSERT_NE(mod, nullptr);
    // No scope: the pipeline must run remark-free (and not crash on
    // any emission site).
    ir::Function clone = mod->function("main").clone();
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    const auto result = sched::runPipeline(clone, options);
    EXPECT_GT(result.estimated_time, 0.0);
    EXPECT_EQ(currentRemarkStream(), nullptr);
}

// ---- count-only streams --------------------------------------------

/** The examples and the frozen golden inputs, profiled as treegionc
 * profiles them. */
std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
loadCorpus()
{
    namespace fs = std::filesystem;
    std::vector<fs::path> paths;
    for (const char *dir :
         {TREEGION_EXAMPLES_DIR, TREEGION_GOLDEN_DIR "/inputs"}) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() == ".tir")
                paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>> out;
    for (const fs::path &path : paths) {
        std::ifstream file(path);
        std::ostringstream text;
        text << file.rdbuf();
        std::string error;
        auto mod = ir::parseModule(text.str(), &error);
        EXPECT_TRUE(mod) << path << ": " << error;
        if (!mod)
            continue;
        for (const auto &fn : mod->functions())
            workloads::profileFunction(*fn, mod->memWords());
        out.emplace_back(path.filename().string(), std::move(mod));
    }
    return out;
}

/** Everything a compile produced: the transformed function and the
 * full schedule, bit for bit. */
std::string
compileDump(const Function &fn, const sched::PipelineResult &result,
            int width)
{
    std::ostringstream printed;
    ir::printFunction(printed, fn);
    std::string out = printed.str();
    out += strprintf("time %.17g expansion %.17g\n", result.estimated_time,
                     result.code_expansion);
    for (const auto &[root, rs] : result.schedule.regions) {
        out += strprintf("region bb%u len=%d renamed=%zu copies=%zu "
                         "spec=%zu elided=%zu\n",
                         root, rs.length, rs.stats.renamed_defs,
                         rs.stats.exit_copies, rs.stats.speculated_ops,
                         rs.stats.elided_ops);
        out += rs.str(width);
    }
    return out;
}

TEST(CountOnlyRemarks, MatchFullStreamsAndLeaveCompilesUnchanged)
{
    const auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 11u);  // sum_loop + 10 frozen inputs
    size_t compiles = 0;
    for (const auto &[name, mod] : corpus) {
        const Function &fn = *mod->functions().front();
        for (const sched::RegionScheme scheme :
             {sched::RegionScheme::BasicBlock, sched::RegionScheme::Slr,
              sched::RegionScheme::Superblock,
              sched::RegionScheme::Treegion,
              sched::RegionScheme::TreegionTailDup,
              sched::RegionScheme::Hyperblock}) {
            for (const sched::Heuristic heuristic : sched::kAllHeuristics) {
                sched::PipelineOptions options;
                options.scheme = scheme;
                options.model = sched::MachineModel::custom(4);
                options.sched.heuristic = heuristic;
                SCOPED_TRACE(name + " " +
                             sched::encodePipelineOptions(options));

                auto run = [&](RemarkStream *stream) {
                    Function clone = fn.clone();
                    RemarkScope scope(stream);
                    const sched::PipelineResult result =
                        sched::runPipeline(clone, options);
                    return compileDump(clone, result, 4);
                };
                RemarkStream full;
                RemarkStream counted(RemarkStream::Mode::CountOnly);
                const std::string bare = run(nullptr);
                EXPECT_EQ(run(&full), bare);
                EXPECT_EQ(run(&counted), bare);

                const auto expected = countByKind(full);
                for (const RemarkKind kind : kAllRemarkKinds) {
                    const auto it = expected.find(kind);
                    EXPECT_EQ(counted.count(kind),
                              it == expected.end() ? 0u : it->second)
                        << remarkKindName(kind);
                    EXPECT_EQ(full.count(kind), counted.count(kind))
                        << remarkKindName(kind);
                }
                EXPECT_EQ(counted.total(), full.size());
                EXPECT_EQ(counted.size(), 0u);
                ++compiles;
            }
        }
    }
    EXPECT_EQ(compiles, corpus.size() * 6 * 4);
}

// ---- graphviz annotation (satellite) -------------------------------

TEST(GraphvizRemarks, TailDuplicatedBlocksAreAnnotated)
{
    Function fn = sharedTailDiamond();
    region::TailDupLimits limits;
    region::RegionSet set = region::formTreegionsTailDup(fn, limits);

    std::ostringstream os;
    region::writeDot(os, fn, set, {});
    const std::string dot = os.str();
    // The duplicated tail is labeled with its original and filled
    // distinctly; region boundaries use a heavy border.
    EXPECT_NE(dot.find("(dup of bb"), std::string::npos) << dot;
    EXPECT_NE(dot.find("fillcolor=\"#ffe9a8\""), std::string::npos);
    EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos);
    EXPECT_NE(dot.find("(root bb"), std::string::npos);
}

} // namespace
} // namespace treegion::support
