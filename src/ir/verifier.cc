#include "ir/verifier.h"

#include <algorithm>
#include <cstdint>

#include "support/string_utils.h"

namespace treegion::ir {

namespace {

using support::strprintf;

/** Test and set bit @p i of @p words; @return its old value. */
bool
testAndSet(uint64_t *words, size_t i)
{
    const uint64_t bit = uint64_t{1} << (i % 64);
    const bool was = (words[i / 64] & bit) != 0;
    words[i / 64] |= bit;
    return was;
}

/**
 * One pass over a function with dense scratch: a bit per op id below
 * the function's op-id counter, then a bit per block id. Ids at or
 * past the counter (hand-built ops) go to a list, so a repeat among
 * them is still a duplicate.
 */
class Verifier
{
  public:
    Verifier(Function &fn, VerifyLevel level)
        : fn_(fn), level_(level), op_words_((fn.numOpIds() + 63) / 64),
          bits_(op_words_ + (fn.numBlockIds() + 63) / 64, 0)
    {
    }

    std::vector<std::string>
    run()
    {
        if (fn_.entry() == kNoBlock || !fn_.hasBlock(fn_.entry())) {
            err("missing entry block");
            return problems_;
        }
        // One pass over the ops: a block's schedulable checks run while
        // its ops are at hand, and their problems are held back to
        // follow the reachability ones.
        fn_.forEachBlock([&](const BasicBlock &b) {
            checkBlock(b);
            if (level_ == VerifyLevel::Schedulable)
                checkSchedulable(b);
        });
        checkReachability();
        for (std::string &msg : schedulable_problems_)
            problems_.push_back(std::move(msg));
        return problems_;
    }

  private:
    void
    err(std::string msg)
    {
        problems_.push_back(std::move(msg));
    }

    void
    schedErr(std::string msg)
    {
        schedulable_problems_.push_back(std::move(msg));
    }

    void
    checkBlock(const BasicBlock &b)
    {
        const auto where = [&](const Op &op) {
            return strprintf("bb%u op%u (%s)", b.id(), op.id,
                             op.str().c_str());
        };

        if (!b.hasTerminator()) {
            err(strprintf("bb%u: no terminator", b.id()));
            return;
        }

        for (size_t i = 0; i < b.ops().size(); ++i) {
            const Op &op = b.ops()[i];
            const bool is_last = (i + 1 == b.ops().size());
            if (op.isBranch() != is_last)
                err(where(op) + ": branch op must be the terminator");
            if (op.home != b.id())
                err(where(op) + ": op.home does not match its block");
            if (!noteOpId(op.id))
                err(where(op) + ": duplicate op id");
            checkOpShape(b, op);
        }

        const Op &term = b.terminator();
        for (BlockId target : term.targets) {
            if (target == kNoBlock)
                err(strprintf("bb%u: fallthru target outside a region "
                              "schedule", b.id()));
            else if (!fn_.hasBlock(target))
                err(strprintf("bb%u: branch to dead block bb%u", b.id(),
                              target));
        }
        if (!b.edgeWeights().empty() &&
            b.edgeWeights().size() != term.targets.size()) {
            err(strprintf("bb%u: edge weight count %zu != target count "
                          "%zu", b.id(), b.edgeWeights().size(),
                          term.targets.size()));
        }
    }

    void
    checkOpShape(const BasicBlock &b, const Op &op)
    {
        const OpcodeInfo &info = opcodeInfo(op.opcode);
        const auto where = [&]() {
            return strprintf("bb%u op%u (%s)", b.id(), op.id,
                             op.str().c_str());
        };

        // Destination count and classes.
        if (op.opcode == Opcode::CMPP) {
            if (op.dsts.empty() || op.dsts.size() > 2)
                err(where() + ": CMPP needs 1 or 2 destinations");
            for (const Reg &d : op.dsts) {
                if (d.cls != RegClass::Pred)
                    err(where() + ": CMPP destination must be predicate");
            }
        } else if (op.opcode == Opcode::PSET ||
                   op.opcode == Opcode::PCLR ||
                   op.opcode == Opcode::CMPPA ||
                   op.opcode == Opcode::CMPPO) {
            if (op.dsts.size() != 1 ||
                op.dsts[0].cls != RegClass::Pred) {
                err(where() + ": predicate-define needs one predicate "
                              "destination");
            }
        } else if (static_cast<int>(op.dsts.size()) != info.numDsts) {
            err(where() + ": wrong destination count");
        }
        if (op.opcode == Opcode::PBR && !op.dsts.empty() &&
            op.dsts[0].cls != RegClass::Btr) {
            err(where() + ": PBR destination must be a BTR");
        }
        if (!op.dsts.empty() && op.opcode != Opcode::CMPP &&
            op.opcode != Opcode::PSET && op.opcode != Opcode::PCLR &&
            op.opcode != Opcode::CMPPA && op.opcode != Opcode::CMPPO &&
            op.opcode != Opcode::PBR && op.dsts[0].cls != RegClass::Gpr) {
            err(where() + ": destination must be a GPR");
        }

        // Source count and classes.
        if (static_cast<int>(op.srcs.size()) != info.numSrcs)
            err(where() + ": wrong source count");
        if (op.opcode == Opcode::MOVI && !op.srcs.empty() &&
            !op.srcs[0].isImm()) {
            err(where() + ": MOVI source must be immediate");
        }
        if ((op.isLoad() || op.isStore()) && op.srcs.size() >= 2) {
            if (!op.srcs[0].isReg() || op.srcs[0].reg.cls != RegClass::Gpr)
                err(where() + ": memory base must be a GPR");
            if (!op.srcs[1].isImm())
                err(where() + ": memory offset must be immediate");
        }
        if ((op.opcode == Opcode::BRCT || op.opcode == Opcode::BRCF) &&
            !op.srcs.empty() &&
            (!op.srcs[0].isReg() ||
             op.srcs[0].reg.cls != RegClass::Pred)) {
            err(where() + ": branch condition must be a predicate");
        }
        if (op.guard && op.guard->cls != RegClass::Pred)
            err(where() + ": guard must be a predicate register");

        // GPR and predicate indices must stay below the declared
        // gprs=/preds= counts, which size every register file
        // downstream (liveness, the profiler, both simulators). BTRs
        // have no declared count.
        const auto checkIndex = [&](const Reg &r, const char *role) {
            const bool is_gpr = r.cls == RegClass::Gpr;
            if (!is_gpr && r.cls != RegClass::Pred)
                return;
            const uint32_t limit =
                is_gpr ? fn_.numGprs() : fn_.numPreds();
            if (r.idx >= limit)
                err(where() + strprintf(": %s %s is out of range "
                                        "(%s=%u)",
                                        role, r.str().c_str(),
                                        is_gpr ? "gprs" : "preds",
                                        limit));
        };
        for (const Reg &d : op.dsts)
            checkIndex(d, "destination");
        for (const Operand &src : op.srcs) {
            if (src.isReg())
                checkIndex(src.reg, "source");
        }
        if (op.guard)
            checkIndex(*op.guard, "guard");

        // Branch target arity.
        switch (op.opcode) {
          case Opcode::BRU:
            if (op.targets.size() != 1)
                err(where() + ": BRU needs exactly one target");
            break;
          case Opcode::BRCT:
          case Opcode::BRCF:
            if (op.targets.empty() || op.targets.size() > 2)
                err(where() + ": BRCT/BRCF need 1 or 2 targets");
            break;
          case Opcode::MWBR:
            if (op.targets.empty())
                err(where() + ": MWBR needs targets");
            if (op.targets.size() != op.caseValues.size())
                err(where() + ": MWBR case/target count mismatch");
            break;
          case Opcode::RET:
            if (!op.targets.empty())
                err(where() + ": RET takes no targets");
            break;
          case Opcode::PBR:
            if (op.targets.size() != 1)
                err(where() + ": PBR needs exactly one target");
            break;
          default:
            if (!op.targets.empty())
                err(where() + ": non-branch op with targets");
            break;
        }
    }

    /** Record op id @p id; @return false when it was seen before. */
    bool
    noteOpId(OpId id)
    {
        if (id < fn_.numOpIds())
            return !testAndSet(bits_.data(), id);
        if (std::find(stray_ids_.begin(), stray_ids_.end(), id) !=
            stray_ids_.end())
            return false;
        stray_ids_.push_back(id);
        return true;
    }

    void
    checkReachability()
    {
        // Marked when pushed, so the stack never holds more than one
        // entry per block id.
        uint64_t *seen = bits_.data() + op_words_;
        std::vector<BlockId> stack;
        stack.reserve(fn_.numBlockIds());
        testAndSet(seen, fn_.entry());
        stack.push_back(fn_.entry());
        while (!stack.empty()) {
            const BlockId id = stack.back();
            stack.pop_back();
            for (BlockId succ : fn_.block(id).successors()) {
                if (fn_.hasBlock(succ) && !testAndSet(seen, succ))
                    stack.push_back(succ);
            }
        }
        fn_.forEachBlock([&](const BasicBlock &b) {
            if (!(seen[b.id() / 64] >> (b.id() % 64) & 1))
                err(strprintf("bb%u unreachable from entry", b.id()));
        });
    }

    /** Scheduler input preconditions. */
    void
    checkSchedulable(const BasicBlock &b)
    {
        if (!b.hasTerminator())
            return;  // checkBlock already reported it
        // A conditional branch's condition must be some CMPP's
        // destination index in this block.
        const Op &term = b.terminator();
        const bool conditional =
            term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF;
        const Reg cond = term.srcs.empty() ? Reg{} : term.srcs[0].reg;
        bool cond_defined = false;
        for (const Op &op : b.ops()) {
            if (op.guard) {
                schedErr(strprintf("bb%u op%u: guards are a scheduler "
                              "output, not an input", b.id(), op.id));
            }
            if (op.opcode == Opcode::PBR || op.opcode == Opcode::PSET ||
                op.opcode == Opcode::PCLR ||
                op.opcode == Opcode::CMPPA ||
                op.opcode == Opcode::CMPPO) {
                schedErr(strprintf("bb%u op%u: %s is a scheduler output",
                              b.id(), op.id,
                              std::string(opcodeName(op.opcode))
                                  .c_str()));
            }
            if (op.opcode == Opcode::CMPP) {
                if (op.dsts.size() != 1) {
                    schedErr(strprintf("bb%u op%u: sequential CMPP must have "
                                  "one destination", b.id(), op.id));
                }
                for (const Reg &d : op.dsts)
                    cond_defined |= d.idx == cond.idx;
            }
            // Predicate uses may only be block terminator conditions.
            if (!op.isBranch()) {
                op.forEachUsedReg([&](const Reg &use) {
                    if (use.cls == RegClass::Pred)
                        schedErr(strprintf("bb%u op%u: predicate used by a "
                                      "non-branch op", b.id(), op.id));
                });
            }
        }
        if (conditional) {
            if (term.targets.size() != 2) {
                schedErr(strprintf("bb%u: sequential conditional branch "
                              "needs taken and fall targets", b.id()));
            }
            if (!cond_defined) {
                schedErr(strprintf("bb%u: branch condition p%u not defined "
                              "by a CMPP in the same block", b.id(),
                              cond.idx));
            }
        }
        if (term.opcode == Opcode::MWBR) {
            for (size_t i = 0; i < term.caseValues.size(); ++i) {
                if (term.caseValues[i] != static_cast<int64_t>(i))
                    schedErr(strprintf("bb%u: sequential MWBR cases must be "
                                  "dense 0..n-1", b.id()));
            }
        }
    }

    Function &fn_;
    VerifyLevel level_;
    std::vector<std::string> problems_;
    std::vector<std::string> schedulable_problems_;
    size_t op_words_;              ///< words of op-id bits in bits_
    std::vector<uint64_t> bits_;   ///< op-id bits, then block-id bits
    std::vector<OpId> stray_ids_;  ///< op ids past the counter
};

} // namespace

std::vector<std::string>
verifyFunction(Function &fn, VerifyLevel level)
{
    return Verifier(fn, level).run();
}

} // namespace treegion::ir
