/**
 * @file
 * Golden-schedule snapshot tests: the bit-identity anchor for the
 * scheduling hot path.
 *
 * Every input program (examples .tir files plus ten frozen fuzzer-generated
 * programs in tests/golden/inputs/) is compiled under all 4 priority
 * heuristics x both treegion schemes (tree, tree-td) x 1U/4U/8U, and
 * under the other four schemes (bb, slr, sb, hyper) with the gw
 * heuristic at 4U. The full canonical dump — estimated time, code
 * expansion, region schedules cycle x slot, every exit record with
 * its reconciliation copies — must match tests/golden/<name>.golden
 * byte for byte.
 *
 * The goldens were captured BEFORE the arena/SoA refactor of the
 * DDG/list-scheduler hot path landed, so any behavioural drift in the
 * refactored code shows up as a byte diff here.
 *
 * Regenerating goldens (only when a schedule change is intended):
 *
 *     TG_UPDATE_GOLDEN=1 ./build/tests/golden_schedule_test
 *
 * then review the diff like any other code change. The frozen fuzz
 * inputs themselves are regenerated (rarely; this invalidates all
 * goldens) with TG_GOLDEN_GEN_INPUTS=1, which redraws them from fixed
 * seeds of the fuzzer's generator envelope.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/mutate.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "sched/pipeline.h"
#include "sched/priority.h"
#include "support/rng.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

namespace fs = std::filesystem;

/** Fixed seed stream for the frozen fuzz inputs. */
constexpr uint64_t kInputSeed = 20260807;

/** Frozen-input program count. */
constexpr int kFuzzPrograms = 10;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/** The (scheme, heuristic, width) grid the goldens cover. */
std::vector<sched::PipelineOptions>
goldenConfigs()
{
    std::vector<sched::PipelineOptions> configs;
    for (const auto scheme : {sched::RegionScheme::Treegion,
                              sched::RegionScheme::TreegionTailDup}) {
        for (const sched::Heuristic heuristic : sched::kAllHeuristics) {
            for (const int width : {1, 4, 8}) {
                sched::PipelineOptions options;
                options.scheme = scheme;
                options.model = sched::MachineModel::custom(width);
                options.sched.heuristic = heuristic;
                configs.push_back(options);
            }
        }
    }
    for (const auto scheme :
         {sched::RegionScheme::BasicBlock, sched::RegionScheme::Slr,
          sched::RegionScheme::Superblock,
          sched::RegionScheme::Hyperblock}) {
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::custom(4);
        options.sched.heuristic = sched::Heuristic::GlobalWeight;
        configs.push_back(options);
    }
    return configs;
}

/** Canonical dump of one compile: full schedule + exit metadata. */
std::string
dumpCompile(const ir::Function &fn, const sched::PipelineOptions &options)
{
    auto run = sched::runPipelineOnClone(fn, options);
    const sched::PipelineResult &result = run.result;

    std::string out;
    out += support::strprintf("estimated_time %.17g\n",
                              result.estimated_time);
    out += support::strprintf("code_expansion %.17g\n",
                              result.code_expansion);

    std::vector<ir::BlockId> roots;
    for (const auto &[root, rs] : result.schedule.regions)
        roots.push_back(root);
    std::sort(roots.begin(), roots.end());
    for (const ir::BlockId root : roots) {
        const sched::RegionSchedule &rs =
            result.schedule.regions.at(root);
        out += support::strprintf(
            "region @%u len=%d renamed=%zu copies=%zu spec=%zu "
            "elided=%zu\n",
            root, rs.length, rs.stats.renamed_defs,
            rs.stats.exit_copies, rs.stats.speculated_ops,
            rs.stats.elided_ops);
        out += rs.str(options.model.issue_width);
        for (const sched::ScheduledExit &exit : rs.exits) {
            out += support::strprintf(
                "exit op=%zu slot=%zu from=%u target=%u ret=%d "
                "weight=%.17g cycle=%d copies=",
                exit.op_index, exit.target_slot, exit.from, exit.target,
                exit.is_ret ? 1 : 0, exit.weight, exit.cycle);
            for (size_t i = 0; i < exit.copies.size(); ++i) {
                if (i)
                    out += ",";
                out += exit.copies[i].dst.str() + "<-" +
                       exit.copies[i].src.str();
            }
            out += "\n";
        }
    }
    return out;
}

/** Dump every golden config of @p mod, headed by the config line. */
std::string
dumpAllConfigs(const ir::Module &mod)
{
    const ir::Function &fn = mod.function("main");
    std::string out;
    for (const sched::PipelineOptions &options : goldenConfigs()) {
        out += "### " + sched::encodePipelineOptions(options) + "\n";
        out += dumpCompile(fn, options);
    }
    return out;
}

/** Load, profile and return a golden input program. */
std::unique_ptr<ir::Module>
loadProgram(const fs::path &path)
{
    std::string error;
    auto mod = ir::parseModule(readFile(path), &error);
    EXPECT_TRUE(mod) << path << ": " << error;
    if (mod)
        workloads::profileFunction(mod->function("main"),
                                   mod->memWords());
    return mod;
}

/** All golden input programs: examples + frozen fuzz inputs. */
std::vector<fs::path>
goldenInputs()
{
    std::vector<fs::path> inputs;
    for (const char *dir :
         {TREEGION_EXAMPLES_DIR, TREEGION_GOLDEN_DIR "/inputs"}) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() == ".tir")
                inputs.push_back(entry.path());
        }
    }
    std::sort(inputs.begin(), inputs.end());
    return inputs;
}

/**
 * One-shot regeneration of the frozen fuzz inputs (see file header).
 * Draws points of the fuzzer's widened generator envelope, keeping
 * mid-sized CFGs so tail duplication and wide treegions get real
 * work without goldens ballooning.
 */
TEST(GoldenSchedule, RegenerateFrozenInputsWhenAsked)
{
    if (!std::getenv("TG_GOLDEN_GEN_INPUTS"))
        GTEST_SKIP() << "set TG_GOLDEN_GEN_INPUTS=1 to regenerate";
    support::Rng rng(kInputSeed);
    int written = 0;
    while (written < kFuzzPrograms) {
        workloads::GenParams params = fuzz::mutateParams(rng);
        params.max_blocks = 600;
        const std::string name =
            support::strprintf("fuzz%02d", written + 1);
        auto mod = workloads::generateProgram(name, params);
        const size_t blocks =
            mod->function("main").blockIds().size();
        if (blocks < 24 || blocks > 220)
            continue;  // too trivial / goldens too large
        std::ostringstream os;
        ir::printModule(os, *mod);
        writeFile(fs::path(TREEGION_GOLDEN_DIR) / "inputs" /
                      (name + ".tir"),
                  os.str());
        ++written;
    }
}

TEST(GoldenSchedule, FrozenInputsPresent)
{
    size_t fuzz_inputs = 0;
    for (const fs::path &path : goldenInputs()) {
        if (path.filename().string().rfind("fuzz", 0) == 0)
            ++fuzz_inputs;
    }
    EXPECT_EQ(fuzz_inputs, static_cast<size_t>(kFuzzPrograms))
        << "frozen fuzz inputs missing from tests/golden/inputs/";
}

TEST(GoldenSchedule, SchedulesMatchGoldens)
{
    const bool update = std::getenv("TG_UPDATE_GOLDEN") != nullptr;
    for (const fs::path &input : goldenInputs()) {
        SCOPED_TRACE(input.string());
        auto mod = loadProgram(input);
        ASSERT_TRUE(mod);
        const std::string dump = dumpAllConfigs(*mod);
        const fs::path golden =
            fs::path(TREEGION_GOLDEN_DIR) /
            (input.stem().string() + ".golden");
        if (update) {
            writeFile(golden, dump);
            continue;
        }
        ASSERT_TRUE(fs::exists(golden))
            << golden << " missing; regenerate with TG_UPDATE_GOLDEN=1 "
            << "(see file header)";
        const std::string expected = readFile(golden);
        // Byte-identical or bust: any schedule drift must be an
        // intentional, reviewed golden update.
        EXPECT_EQ(expected, dump)
            << "schedule drift vs " << golden
            << " — if intended, regenerate with TG_UPDATE_GOLDEN=1";
    }
}

} // namespace
} // namespace treegion
