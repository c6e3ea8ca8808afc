/**
 * @file
 * Unit tests for the IR layer: opcodes, ops, blocks, functions,
 * builder, verifier, cloning.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ir/builder.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/verifier.h"

namespace treegion::ir {
namespace {

TEST(Opcode, MetadataMatchesPaperLatencies)
{
    EXPECT_EQ(opcodeInfo(Opcode::ADD).latency, 1);
    EXPECT_EQ(opcodeInfo(Opcode::LD).latency, 2);
    EXPECT_EQ(opcodeInfo(Opcode::FMUL).latency, 3);
    EXPECT_EQ(opcodeInfo(Opcode::FDIV).latency, 9);
    EXPECT_TRUE(opcodeInfo(Opcode::BRCT).isBranch);
    EXPECT_TRUE(opcodeInfo(Opcode::LD).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::ST).isStore);
}

TEST(Opcode, ParseRoundTrip)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const Opcode op = static_cast<Opcode>(i);
        Opcode parsed;
        ASSERT_TRUE(parseOpcode(opcodeName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode dummy;
    EXPECT_FALSE(parseOpcode("NOSUCH", dummy));
}

TEST(Opcode, EvalCmpAllKinds)
{
    EXPECT_TRUE(evalCmp(CmpKind::EQ, 3, 3));
    EXPECT_TRUE(evalCmp(CmpKind::NE, 3, 4));
    EXPECT_TRUE(evalCmp(CmpKind::LT, -1, 0));
    EXPECT_TRUE(evalCmp(CmpKind::LE, 2, 2));
    EXPECT_TRUE(evalCmp(CmpKind::GT, 5, 4));
    EXPECT_TRUE(evalCmp(CmpKind::GE, 5, 5));
    EXPECT_FALSE(evalCmp(CmpKind::LT, 1, 1));
}

TEST(Opcode, NegateCmpKindIsInvolution)
{
    for (CmpKind k : {CmpKind::EQ, CmpKind::NE, CmpKind::LT,
                      CmpKind::LE, CmpKind::GT, CmpKind::GE}) {
        EXPECT_EQ(negateCmpKind(negateCmpKind(k)), k);
        // The negation must be the logical complement.
        for (int64_t a = -2; a <= 2; ++a) {
            for (int64_t b = -2; b <= 2; ++b) {
                EXPECT_NE(evalCmp(k, a, b),
                          evalCmp(negateCmpKind(k), a, b));
            }
        }
    }
}

TEST(Opcode, EvalAluDismissible)
{
    EXPECT_EQ(evalAlu(Opcode::FDIV, 10, 0), 0);
    EXPECT_EQ(evalAlu(Opcode::FDIV, INT64_MIN, -1), 0);
    EXPECT_EQ(evalAlu(Opcode::REM, 10, 0), 0);
    EXPECT_EQ(evalAlu(Opcode::REM, 10, 3), 1);
    EXPECT_EQ(evalAlu(Opcode::SHL, 1, 64 + 3), 8);  // masked shift
}

TEST(Op, UsedRegsIncludesGuard)
{
    Op op = makeStore(gpr(1), 4, Operand::makeReg(gpr(2)));
    op.guard = pred(3);
    std::vector<Reg> uses;
    op.forEachUsedReg([&](Reg r) { uses.push_back(r); });
    EXPECT_EQ(uses.size(), 3u);
    EXPECT_EQ(uses[2], pred(3));
}

TEST(Op, RenameUsesAndDefs)
{
    Op op = makeBinary(Opcode::ADD, gpr(5), Operand::makeReg(gpr(1)),
                       Operand::makeReg(gpr(1)));
    op.renameUses(gpr(1), gpr(9));
    EXPECT_EQ(op.srcs[0].reg, gpr(9));
    EXPECT_EQ(op.srcs[1].reg, gpr(9));
}

TEST(Op, StrFormats)
{
    EXPECT_EQ(makeMovi(gpr(1), -5).str(), "r1 = MOVI -5");
    EXPECT_EQ(makeLoad(gpr(2), gpr(0), 8).str(), "r2 = LD [r0 + 8]");
    EXPECT_EQ(makeStore(gpr(0), 4, Operand::makeImm(7)).str(),
              "ST [r0 + 4], 7");
    EXPECT_EQ(makeBrct(pred(1), 3, 4).str(), "BRCT p1, bb3, bb4");
    EXPECT_EQ(makeBru(9).str(), "BRU bb9");
    Op cmpp = makeCmpp(CmpKind::GT, pred(1), pred(2),
                       Operand::makeReg(gpr(1)), Operand::makeReg(gpr(2)));
    EXPECT_EQ(cmpp.str(), "p1,p2 = CMPP.GT r1, r2");
}

TEST(Function, CreateBlocksAndEdges)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.condBr(CmpKind::LT, Builder::I(0), Builder::I(1), b, c);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(1));
    builder.setInsertPoint(c);
    builder.ret(Builder::I(2));

    EXPECT_EQ(fn.block(a).successors(), (Op::Targets{b, c}));
    EXPECT_EQ(fn.predsOf(b), (std::vector<BlockId>{a}));
    EXPECT_FALSE(fn.isMergePoint(b));
}

TEST(Function, MergePointDetection)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    const BlockId join = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.condBr(CmpKind::LT, Builder::I(0), Builder::I(1), b, c);
    builder.setInsertPoint(b);
    builder.bru(join);
    builder.setInsertPoint(c);
    builder.bru(join);
    builder.setInsertPoint(join);
    builder.ret(Builder::I(0));
    EXPECT_TRUE(fn.isMergePoint(join));
    EXPECT_FALSE(fn.isMergePoint(b));
}

TEST(Function, RetargetEdgeUpdatesPreds)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(0));
    builder.setInsertPoint(c);
    builder.ret(Builder::I(0));

    fn.retargetEdge(a, b, c);
    EXPECT_EQ(fn.predsOf(c), (std::vector<BlockId>{a}));
    EXPECT_TRUE(fn.predsOf(b).empty());
}

TEST(Function, CloneBlockSharesDupGroup)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.movi(3);
    builder.ret(Builder::I(0));

    const BlockId copy = fn.cloneBlock(a);
    EXPECT_EQ(fn.block(copy).originalId(), a);
    EXPECT_EQ(fn.block(copy).ops().size(), fn.block(a).ops().size());
    EXPECT_NE(fn.block(copy).ops()[0].dupGroup, 0u);
    EXPECT_EQ(fn.block(copy).ops()[0].dupGroup,
              fn.block(a).ops()[0].dupGroup);
    // Fresh op ids on the clone.
    EXPECT_NE(fn.block(copy).ops()[0].id, fn.block(a).ops()[0].id);
}

TEST(Function, CloneFunctionDeepCopies)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    const Reg r = builder.movi(3);
    builder.ret(Builder::R(r));

    Function copy = fn.clone();
    copy.block(a).setWeight(123.0);
    EXPECT_EQ(fn.block(a).weight(), 0.0);
    EXPECT_EQ(copy.entry(), fn.entry());
    EXPECT_EQ(copy.totalOps(), fn.totalOps());
}

TEST(Function, RemoveUnreachableBlocks)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId dead1 = fn.createBlock();
    const BlockId dead2 = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(0));
    builder.setInsertPoint(dead1);
    builder.bru(dead2);
    builder.setInsertPoint(dead2);
    builder.bru(dead1);

    const auto removed = fn.removeUnreachableBlocks();
    EXPECT_EQ(removed.size(), 2u);
    EXPECT_FALSE(fn.hasBlock(dead1));
    EXPECT_FALSE(fn.hasBlock(dead2));
    EXPECT_TRUE(fn.hasBlock(a));
}

TEST(Verifier, AcceptsWellFormed)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    const Reg x = builder.movi(1);
    builder.ret(Builder::R(x));
    EXPECT_TRUE(verifyFunction(fn, VerifyLevel::Schedulable).empty());
}

TEST(Verifier, RejectsMissingTerminator)
{
    // The schedulable checks must report, not abort on, a block that
    // the structural pass already found without a terminator.
    for (const VerifyLevel level :
         {VerifyLevel::Structural, VerifyLevel::Schedulable}) {
        Function fn("f");
        const BlockId a = fn.createBlock();
        fn.setEntry(a);
        fn.appendOp(a, makeMovi(gpr(0), 1));
        const auto problems = verifyFunction(fn, level);
        ASSERT_FALSE(problems.empty());
        EXPECT_NE(problems[0].find("no terminator"), std::string::npos);
    }
}

TEST(Verifier, RejectsBranchToDeadBlock)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    fn.appendTerminator(b, makeRet(Operand::makeImm(0)));
    // Manually break the CFG.
    fn.block(a).terminator().targets[0] = 77;
    fn.invalidatePreds();
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_FALSE(problems.empty());
}

TEST(Verifier, RejectsGuardInSequentialIR)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Op movi = makeMovi(gpr(0), 1);
    movi.guard = pred(0);
    fn.reserveRegs(1, 1, 0);
    fn.appendOp(a, std::move(movi));
    fn.appendTerminator(a, makeRet(Operand::makeImm(0)));
    const auto structural = verifyFunction(fn, VerifyLevel::Structural);
    EXPECT_TRUE(structural.empty());
    const auto sched = verifyFunction(fn, VerifyLevel::Schedulable);
    ASSERT_FALSE(sched.empty());
}

TEST(Verifier, RejectsUnreachableBlock)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId dead = fn.createBlock();
    fn.setEntry(a);
    fn.appendTerminator(a, makeRet(Operand::makeImm(0)));
    fn.appendTerminator(dead, makeRet(Operand::makeImm(0)));
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("unreachable"), std::string::npos);
}

/** @p path's text with its first @p from replaced by @p to. */
std::string
mutatedFile(const std::string &path, const std::string &from,
            const std::string &to)
{
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    std::string out = text.str();
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << path << " lacks " << from;
    if (at != std::string::npos)
        out.replace(at, from.size(), to);
    return out;
}

TEST(Verifier, RejectsRegistersPastTheDeclaredCounts)
{
    // Both used to abort the process in the register files sized by
    // gprs=: a source past the count, and a header without gprs= (so
    // every GPR is out of range).
    const struct
    {
        std::string text;
        const char *problem;
    } cases[] = {
        {mutatedFile(TREEGION_GOLDEN_DIR "/inputs/fuzz08.tir",
                     "r86 = OR r28, r43", "r86 = OR r248, r43"),
         "source r248 is out of range (gprs=187)"},
        {mutatedFile(TREEGION_EXAMPLES_DIR "/sum_loop.tir",
                     "entry=bb0 gprs=16", "entry=bb0"),
         "destination r0 is out of range (gprs=0)"},
    };
    for (const auto &c : cases) {
        std::string error;
        auto mod = parseModule(c.text, &error);
        ASSERT_TRUE(mod) << error;
        for (const VerifyLevel level :
             {VerifyLevel::Structural, VerifyLevel::Schedulable}) {
            const auto problems =
                verifyFunction(*mod->functions().front(), level);
            bool named = false;
            for (const std::string &p : problems)
                named |= p.find(c.problem) != std::string::npos;
            EXPECT_TRUE(named) << c.problem;
        }
    }
}

TEST(Verifier, ChecksPredicateAndGuardIndices)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    fn.reserveRegs(2, 1, 0);
    Op movi = makeMovi(gpr(1), 1);
    movi.guard = pred(3);
    fn.appendOp(a, std::move(movi));
    fn.appendOp(a, makeCmpp(CmpKind::LT, pred(0), pred(1),
                            Operand::makeReg(gpr(1)),
                            Operand::makeImm(2)));
    // A BTR has no declared count, so btr(9) is fine.
    fn.appendOp(a, makePbr(btr(9), a));
    fn.appendTerminator(a, makeRet(Operand::makeReg(gpr(2))));
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    const auto has = [&](const char *text) {
        for (const std::string &p : problems) {
            if (p.find(text) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("guard p3 is out of range (preds=1)"));
    EXPECT_TRUE(has("destination p1 is out of range (preds=1)"));
    EXPECT_FALSE(has("destination p0"));
    EXPECT_TRUE(has("source r2 is out of range (gprs=2)"));
    EXPECT_FALSE(has("b9"));
    EXPECT_EQ(problems.size(), 3u);
}

TEST(Verifier, ReportsDuplicateOpIdsOnEitherSideOfTheCounter)
{
    // The verifier keeps a bit per op id below the function's counter;
    // ids a hand edit put past it are still checked for repeats.
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    fn.reserveRegs(4, 0, 0);
    for (uint32_t r = 0; r < 4; ++r)
        fn.appendOp(a, makeMovi(gpr(r), r));
    fn.appendTerminator(a, makeRet(Operand::makeImm(0)));
    ASSERT_EQ(fn.numOpIds(), 5u);
    std::vector<Op> &ops = fn.block(a).ops();
    ops[1].id = 0;     // repeats op0
    ops[2].id = 900;   // past the counter, once
    ops[3].id = 4000;  // past the counter...
    ops[4].id = 4000;  // ...twice
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_EQ(problems[0], "bb0 op0 (r1 = MOVI 1): duplicate op id");
    EXPECT_EQ(problems[1], "bb0 op4000 (RET 0): duplicate op id");
}

TEST(Verifier, SchedulableProblemsFollowTheStructuralOnes)
{
    // The checks share one pass over the blocks, but the problems keep
    // their order: every block's structural ones, reachability, then
    // every block's schedulable ones.
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId dead = fn.createBlock();
    fn.setEntry(a);
    fn.reserveRegs(2, 2, 0);
    Op guarded = makeMovi(gpr(0), 1);
    guarded.guard = pred(0);
    fn.appendOp(a, guarded);
    fn.appendTerminator(a, makeBru(b));
    fn.appendOp(b, makeMovi(gpr(5), 1));
    fn.appendTerminator(b, makeRet(Operand::makeImm(0)));
    fn.appendTerminator(dead, makeBrct(pred(1), a, b));
    const auto problems = verifyFunction(fn, VerifyLevel::Schedulable);
    ASSERT_EQ(problems.size(), 5u);
    EXPECT_EQ(problems[0], "bb1 op2 (r5 = MOVI 1): destination r5 is out "
                           "of range (gprs=2)");
    EXPECT_EQ(problems[1], "bb2 unreachable from entry");
    EXPECT_EQ(problems[2], "bb0 op0: guards are a scheduler output, not "
                           "an input");
    EXPECT_EQ(problems[3], "bb0 op0: predicate used by a non-branch op");
    EXPECT_EQ(problems[4], "bb2: branch condition p1 not defined by a "
                           "CMPP in the same block");
}

TEST(Module, FunctionsByName)
{
    Module mod("m");
    mod.createFunction("a");
    mod.createFunction("b");
    EXPECT_TRUE(mod.hasFunction("a"));
    EXPECT_FALSE(mod.hasFunction("c"));
    EXPECT_EQ(mod.function("b").name(), "b");
}

} // namespace
} // namespace treegion::ir
