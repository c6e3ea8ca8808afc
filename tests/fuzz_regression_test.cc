/**
 * @file
 * Fuzzing-harness regression tests.
 *
 * Replays every committed corpus repro (fuzz/corpus/*.tir) under its
 * recorded configuration, pins the bugs the fuzzer has found, and
 * exercises the harness itself: the tamper fault injection must turn
 * the legality oracle red, and the reducer must shrink a tampered
 * program well below the acceptance bar.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz.h"
#include "fuzz/mutate.h"
#include "fuzz/reducer.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/rng.h"
#include "vliw/interpreter.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Generator parameters for a mid-size deterministic test program. */
workloads::GenParams
testProgramParams(uint64_t seed)
{
    workloads::GenParams params;
    params.seed = seed;
    params.mem_words = 1024;
    params.top_units = 8;
    params.max_depth = 3;
    return params;
}

// Every committed repro must replay green: it documents a bug that
// has been fixed. Replay semantics depend on the recorded oracle
// (see fuzz/corpus/README.md).
TEST(FuzzRegression, CorpusReplaysClean)
{
    const fs::path dir(TREEGION_CORPUS_DIR);
    ASSERT_TRUE(fs::exists(dir)) << dir;
    size_t repros = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".tir")
            continue;
        ++repros;
        SCOPED_TRACE(entry.path().filename().string());
        const std::string text = readFile(entry.path());

        sched::PipelineOptions options;
        fuzz::OracleOptions opts;
        std::string oracle;
        std::string error;
        ASSERT_TRUE(fuzz::parseReproHeader(text, options, opts, &oracle,
                                           &error))
            << error;
        // Tamper repros are a standing fault injection, never a
        // fixed bug; they must not be committed.
        EXPECT_EQ(opts.tamper, 0);

        std::unique_ptr<ir::Module> mod = ir::parseModule(text, &error);
        ASSERT_NE(mod, nullptr) << error;
        ASSERT_TRUE(ir::verifyFunction(*mod->functions().front(),
                                       ir::VerifyLevel::Schedulable)
                        .empty());

        if (oracle == "crash") {
            // The bug was a process abort; surviving the recorded
            // input family is green.
            ir::Function &fn = *mod->functions().front();
            workloads::ProfileOptions prof;
            prof.input_seed = opts.input_seed;
            prof.runs = opts.profile_runs;
            prof.data_max = opts.data_max;
            workloads::profileFunction(fn, mod->memWords(), prof);
            for (int i = 0; i < opts.equivalence_inputs; ++i) {
                vliw::runSequential(
                    fn,
                    workloads::makeInputMemory(
                        mod->memWords(),
                        opts.input_seed + static_cast<uint64_t>(i),
                        opts.data_max));
            }
        } else if (oracle == "round-trip") {
            const fuzz::OracleFailure fail = fuzz::checkRoundTrip(*mod);
            EXPECT_FALSE(fail) << fail.oracle << ": " << fail.detail;
        } else {
            const fuzz::OracleFailure fail = fuzz::checkCell(
                *mod->functions().front(), mod->memWords(), options,
                opts);
            EXPECT_FALSE(fail) << fail.oracle << ": " << fail.detail;
        }
    }
    EXPECT_GE(repros, 1u);
}

// Pin for the crash the fuzzer found: an MWBR selector outside the
// case table used to TG_PANIC and abort the whole process. The
// interpreter now halts the run without completing, so harness
// callers (oracles, the reducer's termination gate) can reject the
// execution gracefully.
TEST(FuzzRegression, InterpreterHaltsOnUnmatchedMwbrSelector)
{
    const std::string text = readFile(
        fs::path(TREEGION_CORPUS_DIR) / "crash-mwbr-selector.tir");
    std::string error;
    std::unique_ptr<ir::Module> mod = ir::parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    ir::Function &fn = *mod->functions().front();
    // The selector is REM(data, 3) - 3, always in [-3, -1].
    const vliw::ExecResult result = vliw::runSequential(
        fn, workloads::makeInputMemory(mod->memWords(), 1000, 100));
    EXPECT_FALSE(result.completed);
    EXPECT_GT(result.ops_executed, 0u);
}

// Harness red test: the tamper fault injection corrupts one exit
// record after scheduling, which must be caught by the legality
// oracle — and only by it.
TEST(FuzzRegression, TamperInjectionFailsLegality)
{
    std::unique_ptr<ir::Module> mod =
        workloads::generateProgram("tamper", testProgramParams(7));
    const ir::Function &fn = *mod->functions().front();

    const sched::PipelineOptions options;
    fuzz::OracleOptions opts;
    const fuzz::OracleFailure clean =
        fuzz::checkCell(fn, mod->memWords(), options, opts);
    EXPECT_FALSE(clean) << clean.oracle << ": " << clean.detail;

    opts.tamper = 1;
    const fuzz::OracleFailure tampered =
        fuzz::checkCell(fn, mod->memWords(), options, opts);
    EXPECT_EQ(tampered.oracle, "legality") << tampered.detail;
}

// Acceptance bar: the reducer must shrink an injected bug to at most
// 25% of the original op count, and the minimized module must still
// be valid pipeline input failing the same oracle.
TEST(FuzzRegression, ReducerShrinksTamperedBugBelowQuarter)
{
    std::unique_ptr<ir::Module> mod =
        workloads::generateProgram("seeded", testProgramParams(7));

    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::BasicBlock;
    options.model = sched::MachineModel::custom(1);
    options.sched.heuristic = sched::Heuristic::DependenceHeight;
    options.sched.dominator_parallelism = false;
    fuzz::OracleOptions opts;
    opts.tamper = 1;

    const fuzz::OraclePredicate pred =
        [&](const ir::Module &candidate) {
            return fuzz::checkCell(*candidate.functions().front(),
                                   candidate.memWords(), options, opts);
        };
    ASSERT_EQ(pred(*mod).oracle, "legality");

    const fuzz::ReduceResult res =
        fuzz::reduceModule(*mod, "legality", pred);
    EXPECT_GT(res.original_ops, 0u);
    EXPECT_LE(res.reduced_ops * 4, res.original_ops)
        << res.original_ops << " -> " << res.reduced_ops;
    EXPECT_EQ(pred(*mod).oracle, "legality");
    EXPECT_TRUE(ir::verifyFunction(*mod->functions().front(),
                                   ir::VerifyLevel::Schedulable)
                    .empty());
}

// Pin for the generator bug the fuzzer found: stores can clobber
// data cells with negative computed values, and C++ REM truncates
// toward zero, so a switch selector computed as REM(load, hot) could
// go negative and miss every MWBR case. The generator now shifts the
// remainder back into [0, hot). Store-heavy switch programs across
// many seeds must execute to completion.
TEST(FuzzRegression, GeneratorSwitchSelectorsStayInRange)
{
    // Loops matter: the clobbering store usually lands in iteration
    // N and the poisoned selector load in iteration N+1. Under the
    // unshifted selector this envelope halts runs at seeds 85, 141,
    // 149, 168 and 173 (among others).
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        workloads::GenParams params;
        params.seed = seed;
        params.mem_words = 512;
        params.top_units = 10;
        params.max_depth = 4;
        params.p_straight = 0.1;
        params.p_if = 0.1;
        params.p_ifelse = 0.1;
        params.p_switch = 0.4;
        params.p_ladder = 0.0;
        params.p_loop = 0.3;
        params.switch_width_min = 2;
        params.switch_width_max = 12;
        params.mem_frac = 0.6;
        params.store_frac = 0.8;
        params.data_max = 3;
        std::unique_ptr<ir::Module> mod =
            workloads::generateProgram("sel", params);
        workloads::ProfileOptions prof;
        prof.runs = 8;
        prof.data_max = params.data_max;
        const workloads::ProfileSummary summary = workloads::profileFunction(
            *mod->functions().front(), mod->memWords(), prof);
        EXPECT_EQ(summary.completed_runs, prof.runs)
            << "seed " << seed
            << ": a run halted (selector out of range?)";
    }
}

// The repro header must round-trip through its own parser.
TEST(FuzzRegression, ReproHeaderRoundTrips)
{
    sched::PipelineOptions options;
    options.scheme = sched::RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::custom(8);
    options.sched.heuristic = sched::Heuristic::WeightedCount;
    options.sched.dominator_parallelism = false;
    options.sched.materialize_pbr = true;
    options.tail_dup.path_limit += 3;
    fuzz::OracleOptions opts;
    opts.input_seed = 12345;
    opts.equivalence_inputs = 3;
    opts.profile_runs = 5;
    opts.data_max = 7;

    const std::string header = fuzz::makeReproHeader(
        options, opts, "equivalence", "return value mismatch");

    sched::PipelineOptions options2;
    fuzz::OracleOptions opts2;
    std::string oracle;
    std::string error;
    ASSERT_TRUE(
        fuzz::parseReproHeader(header, options2, opts2, &oracle, &error))
        << error;
    EXPECT_EQ(oracle, "equivalence");
    EXPECT_EQ(sched::encodePipelineOptions(options2),
              sched::encodePipelineOptions(options));
    EXPECT_EQ(opts2.input_seed, opts.input_seed);
    EXPECT_EQ(opts2.equivalence_inputs, opts.equivalence_inputs);
    EXPECT_EQ(opts2.profile_runs, opts.profile_runs);
    EXPECT_EQ(opts2.data_max, opts.data_max);
    EXPECT_EQ(opts2.tamper, 0);
}

// Headers written before repros carried the whole options line name
// five fields; the fields they omit keep their defaults.
TEST(FuzzRegression, ShortConfigHeaderParses)
{
    const std::string text = readFile(
        fs::path(TREEGION_CORPUS_DIR) / "crash-mwbr-selector.tir");
    sched::PipelineOptions options;
    fuzz::OracleOptions opts;
    std::string oracle;
    std::string error;
    ASSERT_TRUE(fuzz::parseReproHeader(text, options, opts, &oracle,
                                       &error))
        << error;
    EXPECT_EQ(oracle, "crash");
    sched::PipelineOptions want;
    want.scheme = sched::RegionScheme::BasicBlock;
    want.model = sched::MachineModel::custom(1);
    want.sched.heuristic = sched::Heuristic::DependenceHeight;
    want.sched.dominator_parallelism = false;
    want.sched.materialize_pbr = false;
    EXPECT_EQ(sched::encodePipelineOptions(options),
              sched::encodePipelineOptions(want));
    EXPECT_EQ(options.model.name, "1U");

    EXPECT_FALSE(fuzz::parseReproHeader(
        "# oracle=crash\n# config: scheme=bb width=1 bogus=1\n",
        options, opts, &oracle, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

// Printing and reparsing must be a fixed point across the widened
// fuzz envelope, not just the benchmark-like proxies.
TEST(FuzzRegression, RoundTripFixedPointOnMutatedEnvelope)
{
    support::Rng rng(123);
    for (int i = 0; i < 10; ++i) {
        const workloads::GenParams params = fuzz::mutateParams(rng);
        std::unique_ptr<ir::Module> mod =
            workloads::generateProgram("rt", params);
        const fuzz::OracleFailure fail = fuzz::checkRoundTrip(*mod);
        EXPECT_FALSE(fail)
            << "iteration " << i << ": " << fail.detail;
    }
}

} // namespace
} // namespace treegion
