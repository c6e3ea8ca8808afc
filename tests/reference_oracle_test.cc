/**
 * @file
 * The DDG and liveness checked against brute-force references.
 *
 * DDG: exit-branch control dependence is a height rule, not stored
 * edges (sched/ddg.h). Every height must equal the longest path over
 * the stored edges plus an explicit latency-1 edge from each exit
 * branch to every op homed strictly below its block (found here by
 * plain reachability over the region tree), with the same back-edge
 * floor pass. Edge lists must hold one edge per (other end,
 * slot_ordered).
 * Inputs: examples/ and the frozen golden inputs under every region
 * scheme at 4U and 8U, plus tree with materialized PBRs (the extra
 * dependence edges).
 *
 * Priority and placement: sortByPriority's counting passes must give
 * exactly the order of the comparator they replaced, kept here as the
 * oracle, on every region of the same inputs and on hand-built keys;
 * placed ops must come out in strictly ascending (cycle, slot) order,
 * with and without dominator parallelism.
 *
 * Liveness: the dense pass is compared bit for bit with the original
 * hash-map round-robin fixpoint, kept here as the oracle, on the SPEC
 * proxies before and after the CFG-mutating formations and on
 * generator functions with loops, MWBR and unreachable blocks.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/liveness.h"
#include "bitvector.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "region/formation.h"
#include "sched/ddg.h"
#include "sched/hyperblock_lowering.h"
#include "sched/list_scheduler.h"
#include "sched/lowering.h"
#include "sched/pipeline.h"
#include "sched/priority.h"
#include "sched/region_index.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

namespace fs = std::filesystem;
using ir::BlockId;
using sched::RegionScheme;

constexpr RegionScheme kSchemes[] = {
    RegionScheme::BasicBlock, RegionScheme::Slr,
    RegionScheme::Superblock, RegionScheme::Treegion,
    RegionScheme::TreegionTailDup, RegionScheme::Hyperblock};

region::RegionSet
formRegions(ir::Function &fn, const sched::PipelineOptions &options)
{
    switch (options.scheme) {
      case RegionScheme::BasicBlock:
        return region::formBasicBlockRegions(fn);
      case RegionScheme::Slr:
        return region::formSlrs(fn);
      case RegionScheme::Superblock:
        return region::formSuperblocks(fn, options.superblock);
      case RegionScheme::Treegion:
        return region::formTreegions(fn);
      case RegionScheme::TreegionTailDup:
        return region::formTreegionsTailDup(fn, options.tail_dup);
      case RegionScheme::Hyperblock:
        return region::formHyperblocks(fn, options.hyperblock);
    }
    return {};
}

sched::LoweredRegion
lowerFor(ir::Function &fn, const region::Region &r,
         const analysis::Liveness &live,
         const sched::PipelineOptions &options)
{
    if (r.kind() == region::RegionKind::Hyperblock)
        return sched::lowerHyperblock(fn, r, live);
    sched::LowerOptions lower;
    lower.materialize_pbr = options.sched.materialize_pbr;
    return sched::lowerRegion(fn, r, live, lower);
}

/** Every scheme at 4U and 8U. */
std::vector<sched::PipelineOptions>
schemeConfigs()
{
    std::vector<sched::PipelineOptions> configs;
    for (const RegionScheme scheme : kSchemes) {
        for (const int width : {4, 8}) {
            sched::PipelineOptions options;
            options.scheme = scheme;
            options.model = sched::MachineModel::custom(width);
            configs.push_back(options);
        }
    }
    return configs;
}

// ---------------------------------------------------------------
// DDG reference
// ---------------------------------------------------------------

/** Heights by brute force: stored edges + explicit control edges. */
std::vector<int>
referenceHeights(const sched::LoweredRegion &lowered,
                 const sched::Ddg &ddg)
{
    const size_t n = lowered.ops.size();
    struct Edge
    {
        size_t to;
        int latency;
    };
    std::vector<std::vector<Edge>> succs(n);
    for (size_t i = 0; i < n; ++i) {
        for (const sched::DdgEdge &e : ddg.succs(i))
            succs[i].push_back({e.other, e.latency});
    }
    for (size_t i = 0; i < n; ++i) {
        if (lowered.ops[i].kind != sched::LoweredKind::ExitBranch)
            continue;
        const BlockId home = lowered.ops[i].home;
        // Blocks strictly below home: reachable through at least one
        // in-region edge.
        std::vector<BlockId> below;
        std::vector<BlockId> work;
        auto push_succs = [&](BlockId b) {
            const sched::RegionTree &tree = lowered.tree;
            const uint32_t pos = tree.position(b);
            if (pos == sched::RegionTree::kNone)
                return;
            for (const uint32_t succ : tree.succs(pos)) {
                const BlockId s = tree.block(succ);
                if (std::find(below.begin(), below.end(), s) ==
                    below.end()) {
                    below.push_back(s);
                    work.push_back(s);
                }
            }
        };
        push_succs(home);
        while (!work.empty()) {
            const BlockId b = work.back();
            work.pop_back();
            push_succs(b);
        }
        for (size_t t = 0; t < n; ++t) {
            if (std::find(below.begin(), below.end(),
                          lowered.ops[t].home) != below.end())
                succs[i].push_back({t, 1});
        }
    }

    std::vector<int> floors(n, 0), heights(n, 0);
    auto solve = [&] {
        // Longest path by relaxation until nothing changes (the graph
        // is a DAG, so this terminates).
        for (size_t i = 0; i < n; ++i)
            heights[i] = std::max(lowered.ops[i].op.latency(), floors[i]);
        for (bool changed = true; changed;) {
            changed = false;
            for (size_t i = 0; i < n; ++i) {
                for (const Edge &e : succs[i]) {
                    const int h = e.latency + heights[e.to];
                    if (h > heights[i]) {
                        heights[i] = h;
                        changed = true;
                    }
                }
            }
        }
    };
    solve();
    int tallest = 0;
    for (const int h : heights)
        tallest = std::max(tallest, h);
    bool any_backedge = false;
    for (const sched::LoweredExit &exit : lowered.exits) {
        if (!exit.is_ret && exit.target == lowered.root) {
            floors[exit.op_index] = tallest + 1;
            any_backedge = true;
        }
    }
    if (any_backedge)
        solve();
    return heights;
}

/** Structural checks of one DDG; @return edges checked. */
size_t
checkDdg(const sched::LoweredRegion &lowered, const std::string &where)
{
    const sched::Ddg ddg(lowered);
    const size_t n = ddg.size();
    EXPECT_EQ(n, lowered.ops.size()) << where;

    auto key = [](const sched::DdgEdge &e) {
        return 2 * size_t{e.other} + (e.slot_ordered ? 1 : 0);
    };
    size_t succ_total = 0;
    for (size_t i = 0; i < n; ++i) {
        std::vector<size_t> keys;
        for (const sched::DdgEdge &e : ddg.succs(i))
            keys.push_back(key(e));
        std::sort(keys.begin(), keys.end());
        EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) ==
                    keys.end())
            << where << ": duplicate succ edge of node " << i;
        succ_total += ddg.succs(i).size();
    }

    const std::vector<int> expected = referenceHeights(lowered, ddg);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ddg.height(i), expected[i])
            << where << ": height of node " << i;
    }
    return succ_total;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** examples/ plus the frozen golden inputs, profiled. */
std::vector<std::unique_ptr<ir::Module>>
referencePrograms()
{
    std::vector<fs::path> paths;
    for (const char *dir :
         {TREEGION_EXAMPLES_DIR, TREEGION_GOLDEN_DIR "/inputs"}) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() == ".tir")
                paths.push_back(entry.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::unique_ptr<ir::Module>> mods;
    for (const fs::path &path : paths) {
        std::string error;
        auto mod = ir::parseModule(readFile(path), &error);
        EXPECT_TRUE(mod) << path << ": " << error;
        if (!mod)
            continue;
        for (const auto &fn : mod->functions())
            workloads::profileFunction(*fn, mod->memWords());
        mods.push_back(std::move(mod));
    }
    return mods;
}

TEST(DdgReference, HeightsEdgesAndMirrorsMatchBruteForce)
{
    const auto mods = referencePrograms();
    ASSERT_EQ(mods.size(), 11u);  // sum_loop + 10 frozen inputs
    size_t regions = 0, edges = 0;
    for (const auto &mod : mods) {
        for (const auto &src : mod->functions()) {
            std::vector<sched::PipelineOptions> configs = schemeConfigs();
            sched::PipelineOptions pbr;
            pbr.sched.materialize_pbr = true;
            configs.push_back(pbr);

            for (const sched::PipelineOptions &options : configs) {
                const std::string where =
                    src->name() + " " +
                    sched::encodePipelineOptions(options);
                ir::Function fn = src->clone();
                const region::RegionSet set = formRegions(fn, options);
                const analysis::Liveness live(fn);
                for (const region::Region &r : set.regions()) {
                    sched::LoweredRegion lowered =
                        lowerFor(fn, r, live, options);
                    edges += checkDdg(lowered, where + " @" +
                                                   std::to_string(r.root()));
                    ++regions;
                    const sched::RegionSchedule rs =
                        sched::scheduleLoweredRegion(
                            fn, std::move(lowered), options.model,
                            options.sched);
                    EXPECT_GT(rs.length, 0) << where;
                }
            }
        }
    }
    EXPECT_GT(regions, 1000u);
    EXPECT_GT(edges, 10000u);
}

// ---------------------------------------------------------------
// Priority order and placement
// ---------------------------------------------------------------

/** The comparator sortByPriority's counting passes replaced: keys
 * descending under @p heuristic, ties in lowering order. */
std::vector<uint32_t>
comparatorOrder(const sched::PriorityKeys *keys, size_t n,
                sched::Heuristic heuristic)
{
    using sched::Heuristic;
    auto cmp = [&](uint32_t a, uint32_t b) {
        const sched::PriorityKeys &ka = keys[a];
        const sched::PriorityKeys &kb = keys[b];
        switch (heuristic) {
          case Heuristic::DependenceHeight:
            if (ka.height != kb.height)
                return ka.height > kb.height;
            break;
          case Heuristic::ExitCount:
            if (ka.exit_count != kb.exit_count)
                return ka.exit_count > kb.exit_count;
            if (ka.height != kb.height)
                return ka.height > kb.height;
            break;
          case Heuristic::GlobalWeight:
            if (ka.weight != kb.weight)
                return ka.weight > kb.weight;
            if (ka.height != kb.height)
                return ka.height > kb.height;
            break;
          case Heuristic::WeightedCount:
            if (ka.weight != kb.weight)
                return ka.weight > kb.weight;
            if (ka.exit_count != kb.exit_count)
                return ka.exit_count > kb.exit_count;
            if (ka.height != kb.height)
                return ka.height > kb.height;
            break;
        }
        return a < b;
    };
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), cmp);
    return order;
}

/** sortByPriority matches the comparator under every heuristic. */
void
expectComparatorOrder(const sched::PriorityKeys *keys, size_t n,
                      const std::string &where)
{
    for (const sched::Heuristic h : sched::kAllHeuristics) {
        support::Arena arena;
        const uint32_t *order = sched::sortByPriority(keys, n, h, arena);
        EXPECT_EQ(std::vector<uint32_t>(order, order + n),
                  comparatorOrder(keys, n, h))
            << where << " " << sched::heuristicName(h);
    }
}

TEST(PriorityReference, CountingPassesMatchTheComparatorOnTheCorpus)
{
    const auto mods = referencePrograms();
    size_t regions = 0;
    for (const auto &mod : mods) {
        for (const auto &src : mod->functions()) {
            for (const sched::PipelineOptions &options : schemeConfigs()) {
                const std::string where =
                    src->name() + " " +
                    sched::encodePipelineOptions(options);
                ir::Function fn = src->clone();
                const region::RegionSet set = formRegions(fn, options);
                const analysis::Liveness live(fn);
                for (const region::Region &r : set.regions()) {
                    const sched::LoweredRegion lowered =
                        lowerFor(fn, r, live, options);
                    support::Arena arena;
                    const sched::RegionIndex index(lowered, arena);
                    const sched::Ddg ddg(lowered, index, arena);
                    const sched::PriorityKeys *keys =
                        sched::computePriorityKeys(fn, lowered, index,
                                                   ddg, arena);
                    expectComparatorOrder(
                        keys, lowered.ops.size(),
                        where + " @" + std::to_string(r.root()));
                    ++regions;
                }
            }
        }
    }
    EXPECT_GT(regions, 1000u);
}

TEST(PriorityReference, HandBuiltKeysMatchTheComparator)
{
    // Dense weight ranks by brute force: the number of distinct
    // weights above each one (0.0 == -0.0, as the comparator sees).
    auto rank = [](std::vector<sched::PriorityKeys> &keys) {
        for (sched::PriorityKeys &k : keys) {
            std::vector<double> above;
            for (const sched::PriorityKeys &o : keys) {
                if (o.weight > k.weight &&
                    std::find(above.begin(), above.end(), o.weight) ==
                        above.end())
                    above.push_back(o.weight);
            }
            k.weight_rank = static_cast<uint32_t>(above.size());
        }
    };

    // Ties on every key, across more than one bitset word.
    std::vector<sched::PriorityKeys> tied(130, {4, 2, 1.5, 0});
    expectComparatorOrder(tied.data(), tied.size(), "all tied");

    // Few distinct values per key, so each tie-break level decides
    // some pairs; equal weights stand for different blocks, and 0.0
    // meets -0.0.
    const double weights[] = {0.0, -0.0, 3.0, 3.0, 0.25};
    std::vector<sched::PriorityKeys> mixed;
    for (uint32_t i = 0; i < 200; ++i) {
        const uint32_t h = i * 2654435761u;
        mixed.push_back({static_cast<int>(h >> 29), (h >> 7) % 3,
                         weights[(h >> 13) % 5], 0});
    }
    rank(mixed);
    expectComparatorOrder(mixed.data(), mixed.size(), "mixed");

    std::vector<sched::PriorityKeys> signed_zero = {
        {1, 0, -0.0, 0}, {1, 0, 0.0, 0}, {2, 0, 0.0, 0},
        {1, 0, -0.0, 0}};
    expectComparatorOrder(signed_zero.data(), signed_zero.size(),
                          "signed zero");
    expectComparatorOrder(nullptr, 0, "empty");
}

TEST(PriorityReference, EqualBlockWeightsShareARank)
{
    // a (1.0) -> b (2.0) | c (2.0); b -> d (0.0) | e (-0.0): one
    // treegion whose blocks tie in pairs.
    ir::Function fn("f");
    ir::Builder bu(fn);
    const BlockId a = bu.newBlock(), b = bu.newBlock(),
                  c = bu.newBlock(), d = bu.newBlock(),
                  e = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const ir::Reg x = bu.movi(5);
    bu.condBr(ir::CmpKind::LT, ir::Builder::R(x), ir::Builder::I(9), b,
              c);
    bu.setInsertPoint(b);
    const ir::Reg y = bu.binary(ir::Opcode::ADD, ir::Builder::R(x),
                                ir::Builder::I(1));
    bu.condBr(ir::CmpKind::GT, ir::Builder::R(y), ir::Builder::I(3), d,
              e);
    for (const BlockId leaf : {c, d, e}) {
        bu.setInsertPoint(leaf);
        bu.ret(ir::Builder::R(bu.binary(ir::Opcode::MUL,
                                        ir::Builder::R(x),
                                        ir::Builder::I(leaf))));
    }
    const std::pair<BlockId, double> weight_of[] = {
        {a, 1.0}, {b, 2.0}, {c, 2.0}, {d, 0.0}, {e, -0.0}};
    for (const auto &[id, w] : weight_of)
        fn.block(id).setWeight(w);

    const region::RegionSet set = region::formTreegions(fn);
    ASSERT_EQ(set.regions().size(), 1u);
    const analysis::Liveness live(fn);
    const sched::LoweredRegion lowered =
        sched::lowerRegion(fn, set.regions()[0], live);
    support::Arena arena;
    const sched::RegionIndex index(lowered, arena);
    const sched::Ddg ddg(lowered, index, arena);
    const sched::PriorityKeys *keys =
        sched::computePriorityKeys(fn, lowered, index, ddg, arena);
    std::unordered_map<BlockId, uint32_t> rank;
    for (size_t i = 0; i < lowered.ops.size(); ++i) {
        const auto [it, fresh] =
            rank.emplace(lowered.ops[i].home, keys[i].weight_rank);
        EXPECT_EQ(it->second, keys[i].weight_rank) << "op " << i;
    }
    ASSERT_EQ(rank.size(), 5u);
    EXPECT_EQ(rank[b], 0u);
    EXPECT_EQ(rank[c], 0u);
    EXPECT_EQ(rank[a], 1u);
    EXPECT_EQ(rank[d], 2u);
    EXPECT_EQ(rank[e], 2u);
    expectComparatorOrder(keys, lowered.ops.size(), "hand-built");

    // Unprofiled text may carry NaN weights, which no comparator
    // orders: they rank last, level with each other.
    fn.block(a).setWeight(std::nan(""));
    fn.block(d).setWeight(std::nan(""));
    const std::unordered_map<BlockId, uint32_t> nan_rank = {
        {b, 0}, {c, 0}, {e, 1}, {a, 2}, {d, 2}};
    const sched::PriorityKeys *nan_keys =
        sched::computePriorityKeys(fn, lowered, index, ddg, arena);
    for (size_t i = 0; i < lowered.ops.size(); ++i) {
        EXPECT_EQ(nan_keys[i].weight_rank,
                  nan_rank.at(lowered.ops[i].home))
            << "op " << i;
    }
}

TEST(PlacementReference, OpsAscendInCycleAndSlot)
{
    const auto mods = referencePrograms();
    size_t regions = 0;
    for (const auto &mod : mods) {
        for (const auto &src : mod->functions()) {
            for (sched::PipelineOptions options : schemeConfigs()) {
                for (const bool elide : {true, false}) {
                    options.sched.dominator_parallelism = elide;
                    const std::string where =
                        src->name() + " " +
                        sched::encodePipelineOptions(options);
                    ir::Function fn = src->clone();
                    const sched::PipelineResult result =
                        sched::runPipeline(fn, options);
                    for (const auto &[root, rs] :
                         result.schedule.regions) {
                        ASSERT_FALSE(rs.ops.empty()) << where;
                        for (size_t k = 1; k < rs.ops.size(); ++k) {
                            const sched::ScheduledOp &p = rs.ops[k - 1];
                            const sched::ScheduledOp &q = rs.ops[k];
                            EXPECT_LT(std::make_pair(p.cycle, p.slot),
                                      std::make_pair(q.cycle, q.slot))
                                << where << " @" << root << " op " << k;
                        }
                        EXPECT_EQ(rs.length, rs.ops.back().cycle + 1)
                            << where << " @" << root;
                        ++regions;
                    }
                }
            }
        }
    }
    EXPECT_GT(regions, 2000u);
}

// ---------------------------------------------------------------
// Liveness oracle
// ---------------------------------------------------------------

/**
 * The original liveness: hash maps of bit vectors, use/def from
 * Op::forEachUsedReg(), round-robin sweeps in reverse block-id order until
 * nothing changes.
 */
class MapLiveness
{
  public:
    explicit MapLiveness(ir::Function &fn)
        : num_gprs_(fn.numGprs()),
          num_regs_(static_cast<size_t>(fn.numGprs()) + fn.numPreds())
    {
        using tg_test::BitVector;
        std::unordered_map<BlockId, BitVector> use, def;
        const auto ids = fn.blockIds();
        for (const BlockId id : ids) {
            BitVector u(num_regs_), d(num_regs_);
            for (const ir::Op &op : fn.block(id).ops()) {
                op.forEachUsedReg([&](const ir::Reg r) {
                    if (r.cls == ir::RegClass::Btr)
                        return;
                    if (!d.test(index(r)))
                        u.set(index(r));
                });
                for (const ir::Reg r : op.dsts) {
                    if (r.cls != ir::RegClass::Btr)
                        d.set(index(r));
                }
            }
            use.emplace(id, std::move(u));
            def.emplace(id, std::move(d));
            live_in_.emplace(id, BitVector(num_regs_));
            live_out_.emplace(id, BitVector(num_regs_));
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
                const BlockId id = *it;
                BitVector &out = live_out_.at(id);
                for (const BlockId succ : fn.block(id).successors()) {
                    if (succ != ir::kNoBlock)
                        changed |= out.unionWith(live_in_.at(succ));
                }
                BitVector in = out;
                in.subtract(def.at(id));
                in.unionWith(use.at(id));
                if (!(in == live_in_.at(id))) {
                    live_in_.at(id) = std::move(in);
                    changed = true;
                }
            }
        }
    }

    size_t
    index(ir::Reg r) const
    {
        return r.cls == ir::RegClass::Gpr ? r.idx : num_gprs_ + r.idx;
    }

    std::unordered_map<BlockId, tg_test::BitVector> live_in_;
    std::unordered_map<BlockId, tg_test::BitVector> live_out_;

  private:
    uint32_t num_gprs_;
    size_t num_regs_;
};

/** Compare every block x register; @return blocks compared. */
size_t
expectSameLiveness(ir::Function &fn, const std::string &where)
{
    const analysis::Liveness dense(fn);
    const MapLiveness oracle(fn);
    EXPECT_EQ(dense.numRegs(),
              static_cast<size_t>(fn.numGprs()) + fn.numPreds());
    size_t blocks = 0, live = 0, mismatches = 0;
    for (const BlockId id : fn.blockIds()) {
        ++blocks;
        for (const auto cls : {ir::RegClass::Gpr, ir::RegClass::Pred}) {
            const uint32_t count = cls == ir::RegClass::Gpr
                                       ? fn.numGprs()
                                       : fn.numPreds();
            for (uint32_t idx = 0; idx < count; ++idx) {
                const ir::Reg r{cls, idx};
                const bool in = oracle.live_in_.at(id).test(
                    oracle.index(r));
                const bool out = oracle.live_out_.at(id).test(
                    oracle.index(r));
                live += in;
                if (dense.liveIn(id, r) != in ||
                    dense.liveOut(id, r) != out) {
                    if (++mismatches <= 5) {
                        ADD_FAILURE() << where << ": bb" << id << " "
                                      << r.str() << " in=" << in
                                      << " out=" << out;
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << where;
    EXPECT_GT(live, 0u) << where;
    return blocks;
}

TEST(LivenessReference, ProxiesBeforeAndAfterFormation)
{
    for (const auto &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, spec.params.mem_words);
        expectSameLiveness(fn, spec.name);
        for (const RegionScheme scheme :
             {RegionScheme::TreegionTailDup, RegionScheme::Superblock,
              RegionScheme::Hyperblock}) {
            sched::PipelineOptions options;
            options.scheme = scheme;
            ir::Function formed = fn.clone();
            formRegions(formed, options);
            expectSameLiveness(formed,
                               spec.name + "/" +
                                   sched::regionSchemeName(scheme));
        }
    }
}

TEST(LivenessReference, GeneratorFunctionsWithUnreachableBlocks)
{
    size_t with_mwbr = 0, with_loop = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        workloads::GenParams p;
        p.seed = seed;
        p.top_units = 6;
        p.p_loop = 0.35;
        p.p_switch = 0.25;
        auto mod = workloads::generateProgram("g", p);
        ir::Function &fn = mod->function("main");

        // Two blocks the entry cannot reach: u0 -> u1 -> the entry's
        // first successor. u1 reads a register u0 defines and one it
        // does not, so their live sets are non-trivial.
        const BlockId u0 = fn.createBlock();
        const BlockId u1 = fn.createBlock();
        const ir::Reg a = fn.freshGpr();
        const ir::Reg b = fn.freshGpr();
        fn.appendOp(u0, ir::makeMovi(a, 3));
        fn.appendTerminator(u0, ir::makeBru(u1));
        fn.appendOp(u1, ir::makeBinary(ir::Opcode::ADD, a,
                                       ir::Operand::makeReg(a),
                                       ir::Operand::makeReg(b)));
        fn.appendTerminator(
            u1, ir::makeBru(fn.block(fn.entry()).successors().front()));

        bool has_mwbr = false, has_loop = false;
        fn.forEachBlock([&](const ir::BasicBlock &blk) {
            const ir::Op &term = blk.terminator();
            has_mwbr |= term.opcode == ir::Opcode::MWBR;
            for (const BlockId t : term.targets)
                has_loop |= t <= blk.id();
        });
        with_mwbr += has_mwbr;
        with_loop += has_loop;

        const std::string where = "seed " + std::to_string(seed);
        expectSameLiveness(fn, where);
        const analysis::Liveness dense(fn);
        EXPECT_TRUE(dense.liveIn(u1, b)) << where;
        EXPECT_TRUE(dense.liveIn(u0, b)) << where;
        EXPECT_FALSE(dense.liveIn(u0, a)) << where;
    }
    EXPECT_GE(with_mwbr, 4u);
    EXPECT_GE(with_loop, 4u);
}

} // namespace
} // namespace treegion
