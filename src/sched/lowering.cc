#include "sched/lowering.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "sched/rename_table.h"
#include "support/logging.h"
#include "support/remarks.h"

namespace treegion::sched {

using ir::BlockId;
using ir::kNoBlock;
using ir::Op;
using ir::Opcode;
using ir::Reg;

namespace {

/** One path condition: cmp(a, b) with renamed operands. */
struct Cond
{
    ir::CmpKind kind;
    ir::Operand a;
    ir::Operand b;
};

class Lowerer
{
  public:
    Lowerer(ir::Function &fn, const region::Region &r,
            const analysis::Liveness &live, const LowerOptions &options)
        : fn_(fn), region_(r), live_(live), options_(options)
    {
        out_.root = r.root();
    }

    LoweredRegion
    run()
    {
        lowerBlock(region_.root());
        // Record the region's internal tree for the DDG.
        for (const ir::BlockId id : region_.blocks())
            out_.succs_in_region[id] = region_.childrenOf(id);
        return std::move(out_);
    }

  private:
    /** Rewrite an op's register reads through the rename table. */
    void
    applyRenames(Op &op) const
    {
        for (ir::Operand &src : op.srcs) {
            if (src.isReg()) {
                if (const Reg *renamed = map_.find(src.reg))
                    src.reg = *renamed;
            }
        }
        // Guards are synthesized path predicates, never renamed
        // program registers; nothing to do for op.guard.
    }

    /** Rename every destination of @p op to a fresh register. */
    void
    renameDests(Op &op, BlockId home)
    {
        for (Reg &dst : op.dsts) {
            Reg fresh;
            switch (dst.cls) {
              case ir::RegClass::Gpr:
                fresh = fn_.freshGpr();
                break;
              case ir::RegClass::Pred:
                fresh = fn_.freshPred();
                break;
              case ir::RegClass::Btr:
                fresh = fn_.freshBtr();
                break;
            }
            if (auto r = support::remark(support::RemarkKind::Renamed);
                r.live()) {
                // op.id is still the original op's id here; emit()
                // assigns the lowered clone a fresh one later.
                r.block(home)
                    .op(op.id)
                    .arg("from", dst.str())
                    .arg("to", fresh.str());
            }
            map_.set(dst, fresh);
            dst = fresh;
            ++out_.renamed_defs;
        }
    }

    /** Reconciliation copies for an exit into @p target. */
    std::vector<ExitCopy>
    copiesFor(BlockId target)
    {
        std::vector<ExitCopy> copies;
        map_.forEachPresent([&](Reg orig, Reg renamed) {
            if (orig == renamed)
                return;
            if (orig.cls == ir::RegClass::Btr)
                return;
            if (live_.liveIn(target, orig))
                copies.push_back({orig, renamed});
        });
        std::sort(copies.begin(), copies.end(),
                  [](const ExitCopy &a, const ExitCopy &b) {
                      return std::make_pair(a.dst.cls, a.dst.idx) <
                             std::make_pair(b.dst.cls, b.dst.idx);
                  });
        return copies;
    }

    /** Append a lowered op; @return its index. */
    size_t
    emit(Op op, BlockId home, LoweredKind kind, bool pinned = false)
    {
        op.id = fn_.freshOpId();
        LoweredOp lop;
        lop.op = std::move(op);
        lop.home = home;
        lop.kind = kind;
        lop.pinned = pinned;
        out_.ops.push_back(std::move(lop));
        return out_.ops.size() - 1;
    }

    /**
     * Materialize the conjunction of @p conds as one predicate
     * register: a PSET initializer plus one and-type compare per
     * condition. All compares read renamed data directly, so the
     * predicate is ready one level after the slowest condition
     * operand regardless of path depth (wired-AND critical path
     * reduction).
     *
     * @return the predicate register, or nullopt when @p conds is
     * empty (constant true)
     */
    std::optional<Reg>
    materializePred(const std::vector<Cond> &conds, BlockId home)
    {
        if (conds.empty())
            return std::nullopt;
        const Reg p = fn_.freshPred();
        Op pset;
        pset.opcode = Opcode::PSET;
        pset.dsts = {p};
        emit(std::move(pset), home, LoweredKind::PredDef);
        for (const Cond &cond : conds) {
            Op and_op;
            and_op.opcode = Opcode::CMPPA;
            and_op.cmp = cond.kind;
            and_op.dsts = {p};
            and_op.srcs = {cond.a, cond.b};
            emit(std::move(and_op), home, LoweredKind::PredDef);
        }
        return p;
    }

    /** The block's own path predicate, materialized at most once. */
    std::optional<Reg>
    blockPred(BlockId id)
    {
        auto it = block_pred_.find(id);
        if (it != block_pred_.end())
            return it->second;
        auto p = materializePred(conds_, id);
        block_pred_.emplace(id, p);
        return p;
    }

    /** Emit an exit branch, its optional PBR, and the exit record. */
    void
    emitExit(Op branch, BlockId home, size_t target_slot, BlockId target,
             bool is_ret, double weight)
    {
        if (options_.materialize_pbr && !is_ret && target != kNoBlock) {
            Op pbr = ir::makePbr(fn_.freshBtr(), target);
            pbr.guard = branch.guard;
            const size_t pbr_idx = emit(std::move(pbr), home,
                                        LoweredKind::Computation);
            const size_t br_idx = emit(std::move(branch), home,
                                       LoweredKind::ExitBranch);
            out_.extra_deps.emplace_back(pbr_idx, br_idx);
            recordExit(br_idx, home, target_slot, target, is_ret,
                       weight);
            return;
        }
        const size_t br_idx =
            emit(std::move(branch), home, LoweredKind::ExitBranch);
        recordExit(br_idx, home, target_slot, target, is_ret, weight);
    }

    void
    recordExit(size_t op_index, BlockId from, size_t target_slot,
               BlockId target, bool is_ret, double weight)
    {
        LoweredExit exit;
        exit.op_index = op_index;
        exit.target_slot = target_slot;
        exit.from = from;
        exit.target = target;
        exit.is_ret = is_ret;
        exit.weight = weight;
        if (!is_ret && target != kNoBlock)
            exit.copies = copiesFor(target);
        out_.exits.push_back(std::move(exit));
    }

    /**
     * Emit a conditional exit along the current path conditions to
     * @p target (plain BRU when the condition set is empty, i.e. an
     * exit from the root).
     */
    void
    emitCondExit(BlockId home, size_t target_slot, BlockId target,
                 double weight)
    {
        const auto p = materializePred(conds_, home);
        Op branch = p ? ir::makeBrct(*p, target, kNoBlock)
                      : ir::makeBru(target);
        emitExit(std::move(branch), home, target_slot, target, false,
                 weight);
    }

    /** Profile weight of target slot @p slot of @p b. */
    static double
    edgeWeight(const ir::BasicBlock &b, size_t slot)
    {
        const auto &weights = b.edgeWeights();
        return slot < weights.size() ? weights[slot] : 0.0;
    }

    /** Recurse into internal child @p target, isolating renames. */
    void
    lowerChild(BlockId target)
    {
        const size_t mark = map_.mark();
        lowerBlock(target);
        map_.rollback(mark);
    }

    /**
     * Lower block @p id, then recurse into its internal children.
     * The rename table (map_) and path-condition stack (conds_) hold
     * the state inherited from the parent path; recursion isolates
     * sibling paths via mark/rollback and push/pop.
     */
    void
    lowerBlock(BlockId id)
    {
        ir::BasicBlock &b = fn_.block(id);
        const Op &term = b.terminator();

        // The CMPP feeding a conditional terminator is folded into
        // the path conditions instead of being emitted; capture its
        // operands (renamed as of its program point).
        Reg cond_reg{};
        bool has_cond = false;
        if (term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF) {
            cond_reg = term.srcs[0].reg;
            has_cond = true;
        }
        std::optional<Cond> branch_cond;

        // Body ops.
        for (size_t i = 0; i + 1 < b.ops().size(); ++i) {
            const Op &orig = b.ops()[i];
            if (has_cond && orig.opcode == Opcode::CMPP &&
                !orig.dsts.empty() && orig.dsts[0] == cond_reg) {
                Op probe = orig;
                applyRenames(probe);
                branch_cond = Cond{probe.cmp, probe.srcs[0],
                                   probe.srcs[1]};
                continue;
            }
            Op op = orig;
            applyRenames(op);
            renameDests(op, id);
            const bool pinned = op.isStore();
            if (pinned)
                op.guard = blockPred(id);
            emit(std::move(op), id, LoweredKind::Computation, pinned);
        }

        // Terminator.
        switch (term.opcode) {
          case Opcode::RET: {
            Op ret = term;
            applyRenames(ret);
            ret.guard = blockPred(id);
            emitExit(std::move(ret), id, 0, kNoBlock, true, b.weight());
            break;
          }
          case Opcode::BRU: {
            const BlockId target = term.targets[0];
            if (region_.isInternalEdge(fn_, id, 0)) {
                // The branch dissolves; the child inherits this
                // block's conditions unchanged.
                lowerChild(target);
            } else {
                // Reuses the block predicate (shared with any guarded
                // stores in this block).
                const auto p = blockPred(id);
                Op branch = p ? ir::makeBrct(*p, target, kNoBlock)
                              : ir::makeBru(target);
                emitExit(std::move(branch), id, 0, target, false,
                         edgeWeight(b, 0));
            }
            break;
          }
          case Opcode::BRCT:
          case Opcode::BRCF: {
            TG_ASSERT(branch_cond &&
                      "terminator condition defined in another block");
            // BRCF takes its branch when the compare is false.
            Cond taken = *branch_cond;
            if (term.opcode == Opcode::BRCF)
                taken.kind = ir::negateCmpKind(taken.kind);
            Cond fall = taken;
            fall.kind = ir::negateCmpKind(fall.kind);
            const Cond edge_cond[2] = {taken, fall};
            for (size_t slot = 0; slot < term.targets.size(); ++slot) {
                const BlockId target = term.targets[slot];
                conds_.push_back(edge_cond[slot]);
                if (region_.isInternalEdge(fn_, id, slot)) {
                    lowerChild(target);
                } else {
                    emitCondExit(id, slot, target, edgeWeight(b, slot));
                }
                conds_.pop_back();
            }
            break;
          }
          case Opcode::MWBR: {
            Op sel_probe = term;
            applyRenames(sel_probe);
            const ir::Operand selector = sel_probe.srcs[0];

            Op mwbr = term;
            mwbr.srcs = {selector};
            bool any_exit = false;
            std::vector<std::pair<size_t, BlockId>> exit_cases;
            for (size_t slot = 0; slot < term.targets.size(); ++slot) {
                const BlockId target = term.targets[slot];
                if (region_.isInternalEdge(fn_, id, slot)) {
                    // Internal case: the child's path adds the
                    // selector-match condition; the MWBR case falls
                    // through.
                    mwbr.targets[slot] = kNoBlock;
                    conds_.push_back(
                        Cond{ir::CmpKind::EQ, selector,
                             ir::Operand::makeImm(
                                 term.caseValues[slot])});
                    lowerChild(target);
                    conds_.pop_back();
                } else {
                    any_exit = true;
                    exit_cases.emplace_back(slot, target);
                }
            }
            if (any_exit) {
                mwbr.guard = blockPred(id);
                const size_t br_idx =
                    emit(std::move(mwbr), id, LoweredKind::ExitBranch);
                for (const auto &[slot, target] : exit_cases) {
                    recordExit(br_idx, id, slot, target, false,
                               edgeWeight(b, slot));
                }
            }
            break;
          }
          default:
            TG_PANIC("unexpected terminator %s",
                     std::string(ir::opcodeName(term.opcode)).c_str());
        }
    }

    ir::Function &fn_;
    const region::Region &region_;
    const analysis::Liveness &live_;
    const LowerOptions &options_;
    LoweredRegion out_;
    RenameTable map_;
    std::vector<Cond> conds_;  ///< path conditions, root to here
    std::unordered_map<BlockId, std::optional<Reg>> block_pred_;
};

} // namespace

LoweredRegion
lowerRegion(ir::Function &fn, const region::Region &r,
            const analysis::Liveness &live, const LowerOptions &options)
{
    return Lowerer(fn, r, live, options).run();
}

} // namespace treegion::sched
