/**
 * @file
 * Textual IR printer/parser tests, including whole-module round trips
 * of generated programs.
 */

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "workloads/spec_proxy.h"

namespace treegion::ir {
namespace {

TEST(Parser, MinimalModule)
{
    const char *text = R"(
module tiny mem=128
func @main entry=bb0 gprs=2 preds=1 {
  block bb0 weight=1 {
    r0 = MOVI 5
    r1 = ADD r0, 2
    RET r1
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->name(), "tiny");
    EXPECT_EQ(mod->memWords(), 128u);
    Function &fn = mod->function("main");
    EXPECT_EQ(fn.entry(), 0u);
    EXPECT_EQ(fn.block(0).ops().size(), 3u);
    EXPECT_TRUE(verifyFunction(fn, VerifyLevel::Schedulable).empty());
}

TEST(Parser, BranchesAndWeights)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=4 preds=2 {
  block bb0 weight=10 edges=[7,3] {
    r0 = MOVI 0
    r1 = LD [r0 + 3]
    p0 = CMPP.LT r1, 50
    BRCT p0, bb1, bb2
  }
  block bb1 weight=7 {
    RET r1
  }
  block bb2 weight=3 {
    RET 0
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    Function &fn = mod->function("main");
    EXPECT_DOUBLE_EQ(fn.block(0).weight(), 10.0);
    ASSERT_EQ(fn.block(0).edgeWeights().size(), 2u);
    EXPECT_DOUBLE_EQ(fn.block(0).edgeWeights()[0], 7.0);
    EXPECT_EQ(fn.block(0).terminator().opcode, Opcode::BRCT);
}

TEST(Parser, Mwbr)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI 1
    MWBR r0 [0:bb1, 1:bb2]
  }
  block bb1 weight=0 {
    RET 1
  }
  block bb2 weight=0 {
    RET 2
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    const Op &term = mod->function("main").block(0).terminator();
    EXPECT_EQ(term.opcode, Opcode::MWBR);
    EXPECT_EQ(term.targets, (Op::Targets{1, 2}));
    EXPECT_EQ(term.caseValues, (std::vector<int64_t>{0, 1}));
}

TEST(Parser, ReportsErrors)
{
    std::string error;
    EXPECT_EQ(parseModule("nonsense", &error), nullptr);
    EXPECT_FALSE(error.empty());

    EXPECT_EQ(parseModule("module m mem=64\nfunc @f entry=bb0 {\n"
                          "  block bb0 weight=0 {\n    FROB r1\n  }\n}\n",
                          &error),
              nullptr);
    EXPECT_NE(error.find("unknown opcode"), std::string::npos);
}

// An op has room for the opcode table's largest counts (2
// destinations, 3 sources); more is a parse error, never an abort.
TEST(Parser, RejectsOpsPastTheOperandCapacity)
{
    auto parseOp = [](const std::string &op, std::string &error) {
        return parseModule("module m mem=64\n"
                           "func @main entry=bb0 gprs=4 preds=3 {\n"
                           "  block bb0 weight=0 {\n    " +
                               op + "\n    RET 0\n  }\n}\n",
                           &error);
    };
    std::string error;
    EXPECT_EQ(parseOp("p0,p1,p2 = CMPP.LT r0, 1", error), nullptr);
    EXPECT_NE(error.find("line 4: too many destinations"),
              std::string::npos)
        << error;
    EXPECT_EQ(parseOp("r0 = ADD r1, r2, r3, 4", error), nullptr);
    EXPECT_NE(error.find("line 4: too many operands"), std::string::npos)
        << error;
    EXPECT_EQ(parseOp("ST [r0 + 1], r1, r2", error), nullptr);
    EXPECT_FALSE(error.empty());

    // At capacity parses; the verifier judges the count per opcode.
    auto mod = parseOp("r0 = ADD r1, r2, r3", error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->function("main").block(0).ops()[0].srcs.size(), 3u);
    EXPECT_FALSE(
        verifyFunction(mod->function("main"), VerifyLevel::Structural)
            .empty());
}

/**
 * sum_loop.tir (the first function only) with @p from replaced by
 * @p to, parsed; the error names the line and the whole token.
 */
std::string
headerError(const std::string &from, const std::string &to)
{
    std::string text = R"(module sum_loop mem=1024
func @main entry=bb0 gprs=16 preds=4 {
  block bb0 weight=1 edges=[1] {
    r0 = MOVI 0
    BRU bb2
  }
  block bb2 weight=1 {
    RET r0
  }
}
)";
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::string error;
    EXPECT_EQ(parseModule(text, &error), nullptr) << to;
    return error;
}

// A header number is a whole decimal token. strtoull used to read the
// digits it could and drop the rest: entry=bbzz was bb0, block bb2x
// defined bb2 and gprs=1x0 declared one GPR.
TEST(Parser, EntryMustBeADecimalBlockId)
{
    EXPECT_EQ(headerError("entry=bb0", "entry=bbzz"),
              "line 2: expected a decimal number in 'entry=bbzz'");
    EXPECT_EQ(headerError("entry=bb0", "entry=bb0x"),
              "line 2: expected a decimal number in 'entry=bb0x'");
    EXPECT_EQ(headerError("entry=bb0", "entry=bb"),
              "line 2: expected a decimal number in 'entry=bb'");
    EXPECT_EQ(headerError("entry=bb0", "entry=bb+0"),
              "line 2: expected a decimal number in 'entry=bb+0'");
}

TEST(Parser, BlockHeaderMustBeADecimalBlockId)
{
    EXPECT_EQ(headerError("block bb2 weight", "block bb2x weight"),
              "line 7: expected a decimal number in 'bb2x'");
    EXPECT_EQ(headerError("block bb2 weight", "block bb weight"),
              "line 7: expected a decimal number in 'bb'");
    EXPECT_EQ(headerError("block bb2 weight", "block bb-2 weight"),
              "line 7: expected a decimal number in 'bb-2'");
}

TEST(Parser, GprsMustBeADecimalCount)
{
    EXPECT_EQ(headerError("gprs=16", "gprs=1x0"),
              "line 2: expected a decimal number in 'gprs=1x0'");
    EXPECT_EQ(headerError("gprs=16", "gprs="),
              "line 2: expected a decimal number in 'gprs='");
    EXPECT_EQ(headerError("gprs=16", "gprs=-1"),
              "line 2: expected a decimal number in 'gprs=-1'");
    // Counts past 2^32 - 1 used to wrap: gprs=4294967312 was 16.
    EXPECT_EQ(headerError("gprs=16", "gprs=4294967312"),
              "line 2: 'gprs=4294967312' is out of range");
}

TEST(Parser, PredsMustBeADecimalCount)
{
    EXPECT_EQ(headerError("preds=4", "preds=4p"),
              "line 2: expected a decimal number in 'preds=4p'");
    EXPECT_EQ(headerError("preds=4", "preds= 4"),
              "line 2: expected a decimal number in 'preds='");
    EXPECT_EQ(headerError("preds=4", "preds=99999999999999999999999"),
              "line 2: 'preds=99999999999999999999999' is out of range");
}

TEST(Parser, MemMustBeADecimalWordCount)
{
    EXPECT_EQ(headerError("mem=1024", "mem=1k"),
              "line 1: expected a decimal number in 'mem=1k'");
    EXPECT_EQ(headerError("mem=1024", "mem=0x400"),
              "line 1: expected a decimal number in 'mem=0x400'");

    // Whole tokens still parse, and weights keep strtod's reading.
    std::string error;
    auto mod = parseModule("module m mem=0300\n"
                           "func @f entry=bb00 gprs=01 preds=0 {\n"
                           "  block bb0 weight=1.5e1x {\n"
                           "    RET 0\n  }\n}\n",
                           &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->memWords(), 300u);
    EXPECT_EQ(mod->function("f").numGprs(), 1u);
    EXPECT_EQ(mod->function("f").block(0).weight(), 15.0);
}

TEST(Parser, RejectsBranchToUndefinedBlock)
{
    std::string error;
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=1 preds=0 {
  block bb0 weight=0 {
    BRU bb7
  }
}
)";
    EXPECT_EQ(parseModule(text, &error), nullptr);
    EXPECT_NE(error.find("undefined block"), std::string::npos);
}

// Block ids index dense tables, so every id in the text must be
// below kMaxBlockIds; past it is a parse error naming the line,
// raised before any block is created for it.
TEST(Parser, RejectsBlockIdsPastTheLimit)
{
    auto parse = [](const std::string &entry, const std::string &header,
                    const std::string &term, std::string &error) {
        return parseModule("module m mem=64\n"
                           "func @main entry=" + entry +
                               " gprs=1 preds=0 {\n"
                               "  block " + header + " weight=0 {\n"
                               "    " + term + "\n  }\n}\n",
                           &error);
    };
    const std::string last = "bb" + std::to_string(kMaxBlockIds - 1);
    const std::string past = "bb" + std::to_string(kMaxBlockIds);
    const std::string huge = "bb99999999999999999999";
    struct Case
    {
        std::string entry, header, term, bad;
        int line;
    };
    const Case cases[] = {
        {"bb0", "bb0", "BRU bb3000000", "bb3000000", 4},
        {"bb0", "bb0", "BRU " + past, past, 4},
        {"bb0", "bb0", "BRU " + huge, huge, 4},
        {"bb0", "bb0", "MWBR r0 [0:bb0 1:bb4294967296]", "bb4294967296",
         4},
        {"bb4294967295", "bb4294967295", "RET 0", "bb4294967295", 2},
        {"bb0", "bb4294967295", "RET 0", "bb4294967295", 3},
        {"bb0", past, "RET 0", past, 3},
    };
    for (const Case &c : cases) {
        std::string error;
        EXPECT_EQ(parse(c.entry, c.header, c.term, error), nullptr)
            << c.term;
        EXPECT_NE(error.find("line " + std::to_string(c.line) +
                             ": block id " + c.bad + " is out of range"),
                  std::string::npos)
            << error;
    }

    // The largest id below the limit still parses.
    std::string error;
    auto mod = parse(last, last, "RET 0", error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->function("main").entry(), kMaxBlockIds - 1);
}

/** @p count functions, each with the single block bb@p id. */
std::string
functionsEndingAt(int count, BlockId id)
{
    std::string text = "module m mem=64\n";
    for (int i = 0; i < count; ++i) {
        text += "func @f" + std::to_string(i) + " entry=bb" +
                std::to_string(id) + " gprs=1 preds=0 {\n  block bb" +
                std::to_string(id) + " weight=0 {\n    RET 0\n  }\n}\n";
    }
    return text;
}

TEST(Parser, RejectsModulesPastTheBlockIdBudget)
{
    // Each function's table is as large as its largest id, so the
    // bound caps the sum over the module: 200 functions ending in
    // bb65535 once took 116 MB of tables.
    std::string error;
    EXPECT_EQ(parseModule(functionsEndingAt(200, kMaxBlockIds - 1),
                          &error),
              nullptr);
    EXPECT_EQ(error, "line 8: block id bb65535 takes the module past "
                     "65536 block ids");

    // Tables that add up to the bound exactly still parse.
    auto mod = parseModule(functionsEndingAt(2, kMaxBlockIds / 2 - 1),
                           &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->functions().size(), 2u);
    EXPECT_EQ(parseModule(functionsEndingAt(3, kMaxBlockIds / 2 - 1),
                          &error),
              nullptr);
    EXPECT_EQ(error, "line 13: block id bb32767 takes the module past "
                     "65536 block ids");

    // A branch target reserves a table slot too.
    std::string text = functionsEndingAt(1, kMaxBlockIds - 2);
    text += "func @g entry=bb0 gprs=1 preds=0 {\n  block bb0 weight=0 "
            "{\n    BRU bb1\n  }\n}\n";
    EXPECT_EQ(parseModule(text, &error), nullptr);
    EXPECT_EQ(error,
              "line 9: block id bb1 takes the module past 65536 block "
              "ids");
}

TEST(Parser, NegativeImmediates)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI -42
    r1 = ADD r0, -1
    RET r1
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->function("main").block(0).ops()[0].srcs[0].imm, -42);
}

/** Parse @p text, print, reparse, print; both prints must match. */
void
expectRoundTripFixedPoint(const char *text)
{
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    const std::string once = moduleToString(*mod);
    auto reparsed = parseModule(once, &error);
    ASSERT_NE(reparsed, nullptr) << error;
    EXPECT_EQ(once, moduleToString(*reparsed));
}

// An MWBR's cases past the two in-place targets spill to the heap and
// print back unchanged.
TEST(Parser, RoundTripWideMwbr)
{
    std::string text = "module m mem=64\n"
                       "func @main entry=bb0 gprs=1 preds=0 {\n"
                       "  block bb0 weight=0 {\n"
                       "    r0 = MOVI 3\n    MWBR r0 [";
    for (int i = 0; i < 40; ++i)
        text += (i ? ", " : "") + std::to_string(i) + ":bb" +
                std::to_string(1 + i % 3);
    text += "]\n  }\n";
    for (int b = 1; b <= 3; ++b) {
        text += "  block bb" + std::to_string(b) +
                " weight=0 {\n    RET " + std::to_string(b) + "\n  }\n";
    }
    text += "}\n";
    expectRoundTripFixedPoint(text.c_str());

    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    const Op &term = mod->function("main").block(0).terminator();
    ASSERT_EQ(term.targets.size(), 40u);
    ASSERT_EQ(term.caseValues.size(), 40u);
    EXPECT_EQ(term.targets[39], 1u);
    EXPECT_EQ(term.caseValues[39], 39);
    EXPECT_TRUE(verifyFunction(mod->function("main"),
                               VerifyLevel::Schedulable)
                    .empty());
}

// Edge inputs exercised by the differential fuzzer's round-trip
// oracle. None of these ever failed (the fuzz campaigns found no
// printer/parser mismatch); they are pinned so that stays true.
TEST(Parser, RoundTripExtremeImmediates)
{
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI -9223372036854775808
    r1 = ADD r0, -9223372036854775807
    RET r1
  }
}
)");
}

TEST(Parser, RoundTripNegativeMemoryOffsets)
{
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=3 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI 32
    r1 = LD [r0 + -4]
    ST [r0 + -8], r1
    RET r1
  }
}
)");
}

TEST(Parser, RoundTripFractionalWeights)
{
    // %.6g printing must be a fixed point even for weights that are
    // not exactly representable or exceed six significant digits.
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=1 {
  block bb0 weight=0.30000000000000004 edges=[0.1,0.2] {
    p0 = CMPP.LT r0, 5
    BRCT p0 bb1, bb2
  }
  block bb1 weight=1234567.25 {
    BRU bb2
  }
  block bb2 weight=1e9 {
    r1 = MOVI 0
    RET r1
  }
}
)");
}

TEST(Parser, AcceptsCrlfTabsAndComments)
{
    // Repro files carry "# " header lines, and foreign editors
    // introduce CRLF endings and tab indentation; none of it may
    // change the parse.
    const char *base = R"(
# treegion-fuzz repro
module m mem=64
# comment between declarations
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    # comment inside a block
    r0 = MOVI 7
    r1 = ADD r0, 1
    RET r1
  }
}
)";
    std::string error;
    auto plain = parseModule(base, &error);
    ASSERT_NE(plain, nullptr) << error;

    std::string mangled;
    for (const char *p = base; *p; ++p) {
        if (*p == '\n')
            mangled += '\r';
        mangled += *p;
    }
    size_t pos;
    while ((pos = mangled.find("  ")) != std::string::npos)
        mangled.replace(pos, 2, "\t");
    auto parsed = parseModule(mangled, &error);
    ASSERT_NE(parsed, nullptr) << error;
    EXPECT_EQ(moduleToString(*plain), moduleToString(*parsed));
}

TEST(Parser, RoundTripGeneratedProxies)
{
    // Print-then-parse every SPECint95 proxy and check the round trip
    // is a fixpoint (second print equals the first).
    for (const auto &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        const std::string once = moduleToString(*mod);
        std::string error;
        auto reparsed = parseModule(once, &error);
        ASSERT_NE(reparsed, nullptr) << spec.name << ": " << error;
        const std::string twice = moduleToString(*reparsed);
        EXPECT_EQ(once, twice) << spec.name;
        ir::Function &fn = reparsed->function("main");
        EXPECT_TRUE(
            verifyFunction(fn, VerifyLevel::Schedulable).empty())
            << spec.name;
    }
}

} // namespace
} // namespace treegion::ir
