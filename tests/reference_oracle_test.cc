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
 * Out-of-order timing: the ring-buffer ROB must reproduce every field
 * of the scanning model it replaced, kept here as the oracle (deque
 * ROB, full completion scans): architectural result, cycles and all
 * four OooStats, on examples/, the golden inputs and fuzz/corpus/
 * under every scheme at 4U and 8U, three inputs each, on ooo-small,
 * ooo-wide and a starved config that stalls rename, squashes and
 * wraps the ring.
 *
 * Liveness: the dense pass is compared bit for bit with the original
 * hash-map round-robin fixpoint, kept here as the oracle, on the SPEC
 * proxies before and after the CFG-mutating formations and on
 * generator functions with loops, MWBR and unreachable blocks.
 */

#include <algorithm>
#include <cmath>
#include <deque>
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
#include "ooo/ooo_sim.h"
#include "region/formation.h"
#include "sched/ddg.h"
#include "sched/hyperblock_lowering.h"
#include "sched/list_scheduler.h"
#include "sched/lowering.h"
#include "sched/pipeline.h"
#include "sched/priority.h"
#include "sched/region_index.h"
#include "vliw/interpreter.h"
#include "vliw/machine_state.h"
#include "vliw/op_semantics.h"
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

/** The .tir programs of @p dirs, profiled. */
std::vector<std::unique_ptr<ir::Module>>
loadPrograms(std::initializer_list<const char *> dirs)
{
    std::vector<fs::path> paths;
    for (const char *dir : dirs) {
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

/** examples/ plus the frozen golden inputs, profiled. */
std::vector<std::unique_ptr<ir::Module>>
referencePrograms()
{
    return loadPrograms(
        {TREEGION_EXAMPLES_DIR, TREEGION_GOLDEN_DIR "/inputs"});
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
// Out-of-order timing oracle
// ---------------------------------------------------------------

/**
 * The out-of-order model before its ROB became a ring, kept as the
 * timing oracle: a std::deque ROB whose every entry the completion
 * stage visits each cycle, two heap vectors per dispatched op, and a
 * hash map of each region's exits, fetched in RegionSchedule::ops
 * order.
 */
namespace scanning {

using ir::Op;
using ir::Opcode;
using ir::RegClass;
using ooo::OooConfig;
using ooo::OooResult;
using ooo::OooStats;
using sched::RegionSchedule;
using sched::ScheduledExit;
using sched::ScheduledOp;
using vliw::sem::BranchOutcome;

using PhysId = uint32_t;

/** One physical register: a value plus a Tomasulo ready bit. */
struct PhysReg
{
    int64_t value = 0;
    bool ready = true;
};

/**
 * One physical register file (GPR or predicate class) with its
 * architectural rename map and free list. The architectural file is
 * virtual-register sized; the physical file adds config headroom.
 */
struct PhysFile
{
    std::vector<PhysReg> regs;
    std::vector<PhysId> map;   ///< architectural index -> physical
    std::vector<PhysId> free;  ///< free-list stack

    void
    init(uint32_t arch_count, int headroom)
    {
        regs.assign(arch_count + static_cast<uint32_t>(headroom), {});
        map.resize(arch_count);
        for (uint32_t i = 0; i < arch_count; ++i)
            map[i] = i;
        for (uint32_t i = arch_count; i < regs.size(); ++i)
            free.push_back(i);
    }
};

/** A destination rename performed at dispatch. */
struct Rename
{
    ir::Reg arch;
    PhysId phys;  ///< freshly allocated physical register
    PhysId prev;  ///< previous mapping (freed at retire, restored on
                  ///< squash, and the copy-through source when a
                  ///< conditional write is suppressed)
};

/** A source operand resolved at dispatch. */
struct SrcMap
{
    ir::Reg arch;
    PhysId phys;
};

/** One reorder-buffer entry. */
struct RobEntry
{
    const ScheduledOp *sop = nullptr;
    size_t op_index = 0;  ///< index into RegionSchedule::ops
    uint32_t row = 0;     ///< schedule row (cycle) within the region

    std::vector<Rename> renames;
    std::vector<SrcMap> src_map;

    bool issued = false;
    bool completed = false;
    bool mem_done = false;  ///< memory effect performed (LD/ST)
    uint64_t complete_cycle = 0;

    bool resolved = false;  ///< branch outcome known
    BranchOutcome outcome;
    const ScheduledExit *exit = nullptr;  ///< non-null when the branch
                                          ///< fires a region exit
};

/** Per-region fetch stream plus exit lookup, precomputed. */
struct RegionStream
{
    const RegionSchedule *rs = nullptr;
    /** exits by (op index in RegionSchedule::ops). */
    std::unordered_map<size_t, std::vector<const ScheduledExit *>> exits;
};

/**
 * Map a fired branch to its exit record, or nullptr for an MWBR case
 * edge that falls through internally (target == kNoBlock). Mirrors
 * the in-order simulator's resolution exactly.
 */
const ScheduledExit *
resolveExit(const RegionStream &stream, size_t op_index, const Op &op,
            size_t slot)
{
    auto eit = stream.exits.find(op_index);
    if (op.opcode == Opcode::MWBR) {
        if (op.targets[slot] == ir::kNoBlock)
            return nullptr;  // internal fall-through case edge
        TG_ASSERT(eit != stream.exits.end());
        for (const ScheduledExit *cand : eit->second) {
            if (cand->target_slot == slot)
                return cand;
        }
        TG_PANIC("MWBR slot %zu has no exit record", slot);
    }
    TG_ASSERT(eit != stream.exits.end());
    return eit->second.front();
}

/**
 * Whether @p op's destination writes are conditional, making the
 * rename a read-modify-write: the previous mapping must be readable
 * so a suppressed write copies the old value through. CMPP, PSET,
 * PCLR and LD write unconditionally; CMPPA/CMPPO are keyed on their
 * comparison; every other guarded writer is keyed on its guard.
 */
bool
conditionalWriter(const Op &op)
{
    if (op.opcode == Opcode::CMPPA || op.opcode == Opcode::CMPPO)
        return true;
    if (!op.guard)
        return false;
    switch (op.opcode) {
      case Opcode::CMPP:
      case Opcode::PSET:
      case Opcode::PCLR:
      case Opcode::LD:
        return false;
      default:
        return !op.dsts.empty();
    }
}

OooResult
runScanning(ir::Function &fn, const sched::FunctionSchedule &sched,
            std::vector<int64_t> memory, const OooConfig &config)
{
    OooResult result;
    vliw::VliwResult &arch = result.arch;
    OooStats &stats = result.stats;

    // Memory lives in a MachineState (register files unused) so the
    // dismissible wrap semantics are byte-identical to the other
    // engines.
    vliw::MachineState mem_state(0, 0, std::move(memory));

    PhysFile gprs;
    PhysFile preds;
    gprs.init(fn.numGprs(), config.phys_gpr_headroom);
    preds.init(fn.numPreds(), config.phys_pred_headroom);

    auto file = [&](RegClass cls) -> PhysFile & {
        return cls == RegClass::Pred ? preds : gprs;
    };
    auto clamp = [](ir::Reg r, int64_t value) {
        return r.cls == RegClass::Pred ? (value ? 1 : 0) : value;
    };

    // Precompute fetch streams. RegionSchedule::ops is already sorted
    // by (cycle, slot) — exactly fetch order.
    std::unordered_map<BlockId, RegionStream> streams;
    for (const auto &[root, rs] : sched.regions) {
        RegionStream &stream = streams[root];
        stream.rs = &rs;
        for (const ScheduledExit &exit : rs.exits)
            stream.exits[exit.op_index].push_back(&exit);
    }

    BlockId cur = sched.entry;
    const RegionStream *stream = nullptr;
    size_t fetch_pos = 0;

    auto enterRegion = [&](BlockId root) {
        auto it = streams.find(root);
        if (it == streams.end())
            TG_PANIC("no region schedule rooted at bb%u", root);
        cur = root;
        stream = &it->second;
        fetch_pos = 0;
        arch.trace.push_back(root);
        ++arch.regions_executed;
    };
    enterRegion(cur);

    std::deque<RobEntry> rob;
    uint64_t head_seq = 0;  ///< sequence number of rob.front()
    std::vector<uint64_t> iq;  ///< dispatched, unissued (age order)

    auto entryAt = [&](uint64_t seq) -> RobEntry & {
        return rob[static_cast<size_t>(seq - head_seq)];
    };

    struct Exiting
    {
        bool active = false;
        uint32_t row = 0;
        const ScheduledExit *exit = nullptr;
        int64_t ret_value = 0;
    } exiting;

    // Squash every ROB entry younger than sequence @p keep_end:
    // restore the rename map youngest-first, refill the free lists,
    // drop the entries from the window.
    auto squashYoungerThan = [&](uint64_t keep_end) {
        while (head_seq + rob.size() > keep_end) {
            RobEntry &e = rob.back();
            TG_ASSERT(!(e.sop->op.isStore() && e.mem_done) &&
                      "squashed a store that wrote memory");
            for (auto it = e.renames.rbegin(); it != e.renames.rend();
                 ++it) {
                PhysFile &f = file(it->arch.cls);
                f.map[it->arch.idx] = it->prev;
                f.free.push_back(it->phys);
            }
            ++stats.squashed;
            rob.pop_back();
        }
        std::erase_if(iq,
                      [&](uint64_t seq) { return seq >= keep_end; });
    };

    for (;;) {
        if (arch.cycles >= config.limits.max_cycles) {
            // Budget exhausted: halt with completed = false (never
            // abort) so campaigns can't hang on either backend.
            arch.memory = mem_state.takeMemory();
            return result;
        }
        ++arch.cycles;

        // ---- Completion: results finishing now become readable
        // (tag broadcast; wakeup is the ready-bit check at select).
        for (RobEntry &e : rob) {
            if (e.issued && !e.completed &&
                e.complete_cycle <= arch.cycles) {
                e.completed = true;
                for (const Rename &r : e.renames)
                    file(r.arch.cls).regs[r.phys].ready = true;
            }
        }

        // ---- Retire: in order, up to retire_width.
        int retired_now = 0;
        while (retired_now < config.retire_width && !rob.empty() &&
               rob.front().completed) {
            RobEntry &e = rob.front();
            if (e.exit != nullptr) {
                TG_ASSERT(!exiting.active &&
                          "two exits fired in one cycle");
                exiting.active = true;
                exiting.row = e.row;
                exiting.exit = e.exit;
                exiting.ret_value = e.outcome.ret_value;
                // Ops beyond the exit row were fetched down a dead
                // path; the exit row itself retires in full (MultiOp
                // rows execute whole).
                uint64_t keep_end = head_seq + 1;
                while (keep_end - head_seq < rob.size() &&
                       entryAt(keep_end).row <= e.row)
                    ++keep_end;
                squashYoungerThan(keep_end);
            }
            for (const Rename &r : e.renames)
                file(r.arch.cls).free.push_back(r.prev);
            ++stats.retired;
            ++arch.ops_executed;
            rob.pop_front();
            ++head_seq;
            ++retired_now;
        }

        // The exit row executes in full (MultiOp rows are atomic in
        // the architectural model): any of its ops the front-end had
        // not fetched when the branch retired must still be fetched,
        // executed and retired before the region boundary.
        auto exitRowUnfetched = [&]() {
            return fetch_pos < stream->rs->ops.size() &&
                   static_cast<uint32_t>(
                       stream->rs->ops[fetch_pos].cycle) <=
                       exiting.row;
        };

        bool redirected = false;
        if (exiting.active && rob.empty() && !exitRowUnfetched()) {
            // Region boundary: reconciliation copies are one parallel
            // MultiOp (read all, then write all).
            vliw::sem::CopyScratch scratch;
            arch.copies_applied += vliw::sem::applyExitCopies(
                exiting.exit->copies,
                [&](ir::Reg r) {
                    return r.cls == RegClass::Btr
                               ? 0
                               : file(r.cls)
                                     .regs[file(r.cls).map[r.idx]]
                                     .value;
                },
                [&](ir::Reg r, int64_t value) {
                    if (r.cls == RegClass::Btr)
                        return;
                    file(r.cls).regs[file(r.cls).map[r.idx]].value =
                        clamp(r, value);
                },
                scratch);
            if (exiting.exit->is_ret) {
                arch.completed = true;
                arch.ret_value = exiting.ret_value;
                arch.memory = mem_state.takeMemory();
                return result;
            }
            const BlockId target = exiting.exit->target;
            exiting = {};
            enterRegion(target);
            redirected = true;  // one-cycle fetch redirect bubble
        }

        // A drained machine with nothing left to fetch and no exit in
        // flight means the region ran off its end — a scheduler bug,
        // same panic as the in-order engine.
        if (rob.empty() && !exiting.active && !redirected &&
            fetch_pos >= stream->rs->ops.size())
            TG_PANIC("region bb%u fell through without an exit", cur);

        // ---- Select/execute: issue ready ops oldest-first.
        int issued_now = 0;
        for (auto it = iq.begin();
             it != iq.end() && issued_now < config.issue_width;) {
            RobEntry &e = entryAt(*it);
            const Op &op = e.sop->op;

            bool ready = true;
            for (const SrcMap &s : e.src_map) {
                if (!file(s.arch.cls).regs[s.phys].ready)
                    ready = false;
            }
            if (conditionalWriter(op)) {
                // Read-modify-write: the previous mapping is an
                // implicit source (copy-through on suppression).
                for (const Rename &r : e.renames) {
                    if (!file(r.arch.cls).regs[r.prev].ready)
                        ready = false;
                }
            }
            if (!ready) {
                ++it;
                continue;
            }

            // Conservative memory discipline: total memory order in
            // fetch order, and stores only once squash-proof.
            if (op.isMemory()) {
                bool allowed = true;
                for (uint64_t seq = head_seq; seq < *it && allowed;
                     ++seq) {
                    const RobEntry &older = entryAt(seq);
                    const Op &oop = older.sop->op;
                    if (op.isLoad()) {
                        if (oop.isStore() && !older.mem_done)
                            allowed = false;
                    } else {
                        if (oop.isMemory() && !older.mem_done)
                            allowed = false;
                        if (oop.isBranch() && older.row < e.row &&
                            (!older.resolved || older.exit != nullptr))
                            allowed = false;
                    }
                }
                if (!allowed) {
                    ++it;
                    continue;
                }
            }

            // Execute: shared op semantics against the renamed
            // physical sources.
            auto read = [&](ir::Reg r) -> int64_t {
                if (r.cls == RegClass::Btr)
                    return 0;
                for (const SrcMap &s : e.src_map) {
                    if (s.arch == r)
                        return file(r.cls).regs[s.phys].value;
                }
                TG_PANIC("op reads unrenamed register %s",
                         r.str().c_str());
            };
            int max_delay = 1;
            if (op.isBranch()) {
                e.outcome = vliw::sem::evalBranch(op, read);
                if (e.outcome.kind ==
                    BranchOutcome::Kind::kMalformedMwbr)
                    TG_PANIC("MWBR selector matches no case");
                e.resolved = true;
                if (e.outcome.kind == BranchOutcome::Kind::kFire) {
                    e.exit = resolveExit(*stream, e.op_index, op,
                                         e.outcome.slot);
                }
            } else {
                std::vector<bool> wrote(e.renames.size(), false);
                vliw::sem::execDataOp(
                    op, read, mem_state,
                    [&](ir::Reg dst, int64_t value, int delay) {
                        for (size_t k = 0; k < e.renames.size(); ++k) {
                            if (e.renames[k].arch == dst) {
                                file(dst.cls)
                                    .regs[e.renames[k].phys]
                                    .value = clamp(dst, value);
                                wrote[k] = true;
                                max_delay = std::max(max_delay, delay);
                                return;
                            }
                        }
                        TG_PANIC("op writes unrenamed register %s",
                                 dst.str().c_str());
                    });
                // Suppressed conditional writes copy the previous
                // mapping through, so the new physical register
                // always holds the architectural value.
                for (size_t k = 0; k < e.renames.size(); ++k) {
                    if (!wrote[k]) {
                        PhysFile &f = file(e.renames[k].arch.cls);
                        f.regs[e.renames[k].phys].value =
                            f.regs[e.renames[k].prev].value;
                    }
                }
                if (op.isMemory())
                    e.mem_done = true;
            }
            e.issued = true;
            e.complete_cycle =
                arch.cycles + static_cast<uint64_t>(max_delay);
            ++issued_now;
            it = iq.erase(it);
        }

        // ---- Fetch/rename/dispatch: in (row, slot) order. While an
        // exit drains, only the remainder of its row may be fetched.
        if (!redirected && (!exiting.active || exitRowUnfetched())) {
            int fetched = 0;
            while (fetched < config.fetch_width &&
                   fetch_pos < stream->rs->ops.size()) {
                const ScheduledOp &sop = stream->rs->ops[fetch_pos];
                const Op &op = sop.op;
                if (exiting.active &&
                    static_cast<uint32_t>(sop.cycle) > exiting.row)
                    break;  // past the exit row; dead path

                size_t need_gprs = 0;
                size_t need_preds = 0;
                for (ir::Reg dst : op.dsts) {
                    if (dst.cls == RegClass::Gpr)
                        ++need_gprs;
                    else if (dst.cls == RegClass::Pred)
                        ++need_preds;
                }
                if (rob.size() >=
                        static_cast<size_t>(config.rob_size) ||
                    iq.size() >=
                        static_cast<size_t>(config.window_size) ||
                    gprs.free.size() < need_gprs ||
                    preds.free.size() < need_preds) {
                    ++stats.rename_stalls;
                    break;
                }

                RobEntry e;
                e.sop = &sop;
                e.op_index = fetch_pos;
                e.row = static_cast<uint32_t>(sop.cycle);
                op.forEachUsedReg([&](ir::Reg r) {
                    if (r.cls == RegClass::Btr)
                        return;
                    e.src_map.push_back(
                        {r, file(r.cls).map[r.idx]});
                });
                for (ir::Reg dst : op.dsts) {
                    if (dst.cls == RegClass::Btr)
                        continue;  // BTRs carry no semantics
                    PhysFile &f = file(dst.cls);
                    const PhysId phys = f.free.back();
                    f.free.pop_back();
                    f.regs[phys] = {0, false};
                    e.renames.push_back({dst, phys, f.map[dst.idx]});
                    f.map[dst.idx] = phys;
                }
                const uint64_t seq = head_seq + rob.size();
                rob.push_back(std::move(e));
                iq.push_back(seq);
                ++fetch_pos;
                ++fetched;
            }
        }

        stats.window_cycle_sum += rob.size();
    }
}

} // namespace scanning

/** @return the first field in which @p got differs from @p want,
 * or "" when every field of the two results is equal. */
std::string
oooDifference(const ooo::OooResult &want, const ooo::OooResult &got)
{
    const vliw::VliwResult &w = want.arch, &g = got.arch;
    const std::pair<const char *, bool> fields[] = {
        {"completed", g.completed == w.completed},
        {"ret_value", g.ret_value == w.ret_value},
        {"memory", g.memory == w.memory},
        {"trace", g.trace == w.trace},
        {"cycles", g.cycles == w.cycles},
        {"regions_executed", g.regions_executed == w.regions_executed},
        {"copies_applied", g.copies_applied == w.copies_applied},
        {"ops_executed", g.ops_executed == w.ops_executed},
        {"retired", got.stats.retired == want.stats.retired},
        {"squashed", got.stats.squashed == want.stats.squashed},
        {"rename_stalls",
         got.stats.rename_stalls == want.stats.rename_stalls},
        {"window_cycle_sum",
         got.stats.window_cycle_sum == want.stats.window_cycle_sum},
    };
    for (const auto &[name, same] : fields) {
        if (!same)
            return name;
    }
    return "";
}

TEST(OooReference, TimingMatchesTheScanningModel)
{
    // One fetch, issue and retire slot, a 2-entry window, a 4-entry
    // ROB and one spare register per class: rename stalls nearly
    // every cycle, and the ring wraps every four ops.
    ooo::OooConfig starved = ooo::oooSmall();
    starved.name = "ooo-starved";
    starved.fetch_width = starved.issue_width = starved.retire_width = 1;
    starved.window_size = 2;
    starved.rob_size = 4;
    starved.phys_gpr_headroom = starved.phys_pred_headroom = 1;
    const ooo::OooConfig configs[] = {ooo::oooSmall(), ooo::oooWide(),
                                      starved};

    const auto mods = loadPrograms({TREEGION_EXAMPLES_DIR,
                                    TREEGION_GOLDEN_DIR "/inputs",
                                    TREEGION_CORPUS_DIR});
    size_t runs = 0;
    uint64_t squashed = 0, starved_stalls = 0;
    for (const auto &mod : mods) {
        for (const auto &src : mod->functions()) {
            for (const sched::PipelineOptions &options : schemeConfigs()) {
                sched::ClonedPipelineRun run =
                    sched::runPipelineOnClone(*src, options);
                for (const uint64_t seed : {1u, 2u, 3u}) {
                    const std::vector<int64_t> memory =
                        workloads::makeInputMemory(mod->memWords(),
                                                   seed, 100);
                    // A program that halts sequentially (an MWBR
                    // selector past its cases) makes both engines
                    // panic by design; there is no timing to compare.
                    if (!vliw::runSequential(*src, memory).completed)
                        continue;
                    for (const ooo::OooConfig &config : configs) {
                        const ooo::OooResult want = scanning::runScanning(
                            run.fn, run.result.schedule, memory, config);
                        const ooo::OooResult got = ooo::runOutOfOrder(
                            run.fn, run.result.schedule, memory, config);
                        ASSERT_EQ(oooDifference(want, got), "")
                            << src->name() << " "
                            << sched::encodePipelineOptions(options)
                            << " seed " << seed << " " << config.name;
                        ++runs;
                        squashed += got.stats.squashed;
                        if (&config == &configs[2])
                            starved_stalls += got.stats.rename_stalls;
                    }
                }
            }
        }
    }
    EXPECT_GT(runs, 1000u);
    EXPECT_GT(squashed, 0u);
    EXPECT_GT(starved_stalls, runs);
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
