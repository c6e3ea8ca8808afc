#include "sched/lowering.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "sched/hyperblock_lowering.h"

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

/**
 * What both lowerings share: the output, one journaled rename table
 * for the whole walk, fresh destinations, in-place op emission, body
 * lowering, predicate conjunctions and exit records with their
 * reconciliation copies.
 */
class LowererBase
{
  protected:
    LowererBase(ir::Function &fn, const region::Region &r,
                const analysis::Liveness &live, bool remark_renames)
        : fn_(fn), region_(r), live_(live),
          remark_renames_(remark_renames)
    {
        out_.root = r.root();
    }

    /** @p src with a register read through the rename table. */
    ir::Operand
    renamed(ir::Operand src) const
    {
        if (src.isReg()) {
            if (const Reg *r = table_.find(src.reg))
                src.reg = *r;
        }
        return src;
    }

    /** Rewrite an op's register reads through the rename table. */
    void
    applyRenames(Op &op) const
    {
        for (ir::Operand &src : op.srcs)
            src = renamed(src);
        // Guards are synthesized path predicates, never renamed
        // program registers; nothing to do for op.guard.
    }

    /**
     * Rename every destination of @p op to a fresh register; remarks
     * (tree lowering only) name the original op @p orig_id.
     */
    void
    renameDests(Op &op, BlockId home, ir::OpId orig_id)
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
            if (remark_renames_) {
                if (auto r = support::remark(support::RemarkKind::Renamed);
                    r.live()) {
                    r.block(home)
                        .op(orig_id)
                        .arg("from", dst.str())
                        .arg("to", fresh.str());
                }
            }
            table_.set(dst, fresh);
            dst = fresh;
            ++out_.renamed_defs;
        }
    }

    /** Reconciliation copies for an exit into @p target. */
    std::vector<ExitCopy>
    copiesFor(BlockId target)
    {
        std::vector<ExitCopy> copies;
        table_.forEachPresent([&](Reg orig, Reg renamed) {
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

    /**
     * Append a lowered op, built in place from @p op and given a fresh
     * id; @return its index.
     */
    template <typename O>
    size_t
    emit(O &&op, BlockId home, LoweredKind kind, bool pinned = false)
    {
        out_.ops.emplace_back(std::forward<O>(op), home, kind, pinned);
        out_.ops.back().op.id = fn_.freshOpId();
        return out_.ops.size() - 1;
    }

    void
    recordExit(size_t op_index, BlockId from, size_t target_slot,
               BlockId target, bool is_ret, double weight)
    {
        out_.exits.push_back({op_index, target_slot, from, target, is_ret,
                              weight,
                              is_ret || target == kNoBlock
                                  ? std::vector<ExitCopy>{}
                                  : copiesFor(target)});
    }

    /**
     * Materialize the conjunction of @p base (when given) and @p conds
     * as one fresh predicate register: a PSET initializer plus one
     * and-type compare per term, the base first. All compares read
     * renamed data directly, so the predicate is ready one level after
     * the slowest operand regardless of path depth (wired-AND critical
     * path reduction).
     *
     * @return the predicate register, or nullopt (constant true) when
     * there is nothing to conjoin
     */
    std::optional<Reg>
    conjunction(std::optional<Reg> base, std::span<const Cond> conds,
                BlockId home)
    {
        if (!base && conds.empty())
            return std::nullopt;
        const Reg p = fn_.freshPred();
        Op pset;
        pset.opcode = Opcode::PSET;
        pset.dsts = {p};
        emit(std::move(pset), home, LoweredKind::PredDef);
        auto conjoin = [&](const Cond &cond) {
            Op and_op;
            and_op.opcode = Opcode::CMPPA;
            and_op.cmp = cond.kind;
            and_op.dsts = {p};
            and_op.srcs = {cond.a, cond.b};
            emit(std::move(and_op), home, LoweredKind::PredDef);
        };
        if (base) {
            conjoin({ir::CmpKind::NE, ir::Operand::makeReg(*base),
                     ir::Operand::makeImm(0)});
        }
        for (const Cond &cond : conds)
            conjoin(cond);
        return p;
    }

    /**
     * Lower the body of block @p id: every op but its terminator, each
     * copied once, into place, then renamed. The CMPP feeding a
     * BRCT/BRCF terminator is folded into the branch condition instead
     * of being emitted; @return that condition, its operands renamed
     * as of its program point. A store is guarded by
     * @p store_guard(), called before the store is emitted.
     */
    template <typename StoreGuard>
    std::optional<Cond>
    lowerBody(BlockId id, StoreGuard &&store_guard)
    {
        const ir::BasicBlock &b = fn_.block(id);
        const Op &term = b.terminator();
        const bool has_cond =
            term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF;
        std::optional<Cond> branch_cond;
        for (size_t i = 0; i + 1 < b.ops().size(); ++i) {
            const Op &orig = b.ops()[i];
            if (has_cond && orig.opcode == Opcode::CMPP &&
                !orig.dsts.empty() && orig.dsts[0] == term.srcs[0].reg) {
                branch_cond = Cond{orig.cmp, renamed(orig.srcs[0]),
                                   renamed(orig.srcs[1])};
                continue;
            }
            const bool pinned = orig.isStore();
            const std::optional<Reg> guard =
                pinned ? store_guard() : std::nullopt;
            Op &op = out_.ops[emit(orig, id, LoweredKind::Computation,
                                   pinned)]
                         .op;
            applyRenames(op);
            renameDests(op, id, orig.id);
            if (pinned)
                op.guard = guard;
        }
        return branch_cond;
    }

    /** Profile weight of target slot @p slot of @p b. */
    static double
    edgeWeight(const ir::BasicBlock &b, size_t slot)
    {
        const auto &weights = b.edgeWeights();
        return slot < weights.size() ? weights[slot] : 0.0;
    }

    ir::Function &fn_;
    const region::Region &region_;
    const analysis::Liveness &live_;
    const bool remark_renames_;
    LoweredRegion out_;
    RenameTable table_;
};

/** The treegion / linear-region lowering (see lowering.h). */
class Lowerer : LowererBase
{
  public:
    Lowerer(ir::Function &fn, const region::Region &r,
            const analysis::Liveness &live, const LowerOptions &options)
        : LowererBase(fn, r, live, true), options_(options)
    {
        out_.tree = RegionTree(
            r.blocks(), [&](BlockId id) -> const std::vector<BlockId> & {
                return r.childrenOf(id);
            });
        size_t ops = 0, exits = 0;
        bound(0, 0, ops, exits);
        out_.ops.reserve(ops);
        out_.exits.reserve(exits);
    }

    LoweredRegion
    run()
    {
        lowerBlock(region_.root());
        return std::move(out_);
    }

  private:
    /**
     * Add upper bounds on the ops and exits lowered from the subtree
     * at tree position @p pos, @p depth path conditions deep, to
     * @p ops and @p exits: its own ops, a block predicate (PSET plus
     * one compare per condition), and per exit slot (a RET is one) a
     * predicate one condition deeper, a PBR and a branch.
     */
    void
    bound(uint32_t pos, size_t depth, size_t &ops, size_t &exits) const
    {
        const ir::BasicBlock &b = fn_.block(out_.tree.block(pos));
        const auto children = out_.tree.succs(pos);
        const size_t slots = std::max<size_t>(b.successors().size(), 1);
        const size_t out =
            slots > children.size() ? slots - children.size() : 0;
        ops += b.ops().size() + (1 + depth) + out * (depth + 4);
        exits += out;
        const bool adds_cond = b.terminator().opcode != Opcode::BRU;
        for (const uint32_t child : children)
            bound(child, depth + (adds_cond ? 1 : 0), ops, exits);
    }

    /** Emit an exit branch, its optional PBR, and the exit record. */
    void
    emitExit(Op &&branch, BlockId home, size_t target_slot, BlockId target,
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

    /**
     * Emit a conditional exit along the current path conditions to
     * @p target (plain BRU when the condition set is empty, i.e. an
     * exit from the root).
     */
    void
    emitCondExit(BlockId home, size_t target_slot, BlockId target,
                 double weight)
    {
        const auto p = conjunction(std::nullopt, conds_, home);
        Op branch = p ? ir::makeBrct(*p, target, kNoBlock)
                      : ir::makeBru(target);
        emitExit(std::move(branch), home, target_slot, target, false,
                 weight);
    }

    /** Recurse into internal child @p target, isolating renames. */
    void
    lowerChild(BlockId target)
    {
        const size_t mark = table_.mark();
        lowerBlock(target);
        table_.rollback(mark);
    }

    /**
     * Lower block @p id, then recurse into its internal children.
     * The rename table (table_) and path-condition stack (conds_) hold
     * the state inherited from the parent path; recursion isolates
     * sibling paths via mark/rollback and push/pop.
     */
    void
    lowerBlock(BlockId id)
    {
        ir::BasicBlock &b = fn_.block(id);
        const Op &term = b.terminator();

        // The block's own path predicate, materialized on first use.
        // Every use is in this call (children see their own), so the
        // memo is a local.
        std::optional<std::optional<Reg>> block_pred;
        auto blockPred = [&] {
            if (!block_pred)
                block_pred = conjunction(std::nullopt, conds_, id);
            return *block_pred;
        };

        // The branch's compare joins the path conditions; a store's
        // guard is materialized at the first store.
        const std::optional<Cond> branch_cond = lowerBody(id, blockPred);

        // Terminator.
        switch (term.opcode) {
          case Opcode::RET: {
            Op ret = term;
            applyRenames(ret);
            ret.guard = blockPred();
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
                const auto p = blockPred();
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
            const ir::Operand selector = renamed(term.srcs[0]);
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
                mwbr.guard = blockPred();
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

    const LowerOptions &options_;
    std::vector<Cond> conds_;  ///< path conditions, root to here
};

/**
 * The renaming at a block's end, captured for one outgoing internal
 * edge: (orig, renamed) pairs in table insertion order. A flat
 * snapshot of the shared RenameTable replaces the per-edge hash-map
 * copies the first implementation carried — one contiguous
 * allocation per edge instead of a rehash per accumulated rename,
 * and its order is deterministic where hash-map order was not.
 */
using RenameSnapshot = std::vector<std::pair<Reg, Reg>>;

/** One internal edge, with its predicate and the source's renaming. */
struct InEdge
{
    BlockId from;
    std::optional<Reg> pred;  ///< nullopt = constant true (root BRU)
    RenameSnapshot map;       ///< renaming at the source block's end
};

/** The hyperblock lowering (see hyperblock_lowering.h). */
class HyperLowerer : LowererBase
{
  public:
    HyperLowerer(ir::Function &fn, const region::Region &r,
                 const analysis::Liveness &live)
        : LowererBase(fn, r, live, false)
    {
        out_.tree = RegionTree(r.blocks(), [&](BlockId id) {
            return internalSuccs(id);
        });
    }

    LoweredRegion
    run()
    {
        // Topological order: a block is ready once all its in-region
        // predecessor edges have been produced. Process the root,
        // then repeatedly pick ready blocks. Per-block state is
        // indexed by tree position (the root is position 0).
        const RegionTree &tree = out_.tree;
        std::vector<uint32_t> pending_in(tree.size(), 0);
        size_t op_bound = 0;
        size_t exit_bound = 0;
        for (uint32_t pos = 0; pos < tree.size(); ++pos) {
            const BlockId id = tree.block(pos);
            for (const BlockId succ : internalSuccs(id))
                ++pending_in[tree.position(succ)];
            // Own ops; per slot at most a 3-op edge predicate and an
            // exit branch. Merges add a PCLR and one compare per edge
            // (counted below); selects are not bounded here.
            const ir::BasicBlock &b = fn_.block(id);
            const size_t slots =
                std::max<size_t>(b.successors().size(), 1);
            op_bound += b.ops().size() + 4 * slots + 1;
            exit_bound += slots;
        }
        for (const uint32_t in : pending_in)
            op_bound += in;
        out_.ops.reserve(op_bound);
        out_.exits.reserve(exit_bound);
        in_edges_.resize(tree.size());

        std::vector<uint32_t> ready = {0};
        size_t lowered = 0;
        while (!ready.empty()) {
            const uint32_t pos = ready.back();
            ready.pop_back();
            TG_ASSERT(pending_in[pos] == 0);
            ++lowered;
            lowerBlock(pos);
            // Lowering produced this block's outgoing internal
            // edges; release successors whose edges are complete
            // (one decrement per edge, so multi-edges count twice).
            for (const BlockId succ : internalSuccs(tree.block(pos))) {
                const uint32_t to = tree.position(succ);
                TG_ASSERT(pending_in[to] > 0);
                if (--pending_in[to] == 0)
                    ready.push_back(to);
            }
        }
        TG_ASSERT(lowered == tree.size());
        return std::move(out_);
    }

  private:
    /** In-region successors of @p id, one entry per edge. */
    ir::Op::Targets
    internalSuccs(BlockId id) const
    {
        ir::Op::Targets out;
        const Op &term = fn_.block(id).terminator();
        for (size_t slot = 0; slot < term.targets.size(); ++slot) {
            if (region_.isInternalEdge(fn_, id, slot))
                out.push_back(term.targets[slot]);
        }
        return out;
    }

    /** The current renaming, flattened for an outgoing edge. */
    RenameSnapshot
    snapshotRenames() const
    {
        RenameSnapshot snap;
        table_.forEachPresent([&](Reg orig, Reg renamed) {
            snap.emplace_back(orig, renamed);
        });
        return snap;
    }

    /**
     * Load the entry state of block @p id (at tree position @p pos)
     * into the shared table and @return its block predicate,
     * synthesizing merges where the block has several incoming
     * edges. The caller owns the surrounding mark()/rollback() pair.
     *
     * Merge order is deterministic: keys are visited in
     * first-appearance order across the edge snapshots (edge order
     * itself follows the deterministic topological walk), so fresh
     * register numbering and select emission no longer depend on
     * hash-table iteration order.
     */
    std::optional<Reg>
    entryState(uint32_t pos, BlockId id)
    {
        if (id == region_.root())
            return std::nullopt;
        std::vector<InEdge> &edges = in_edges_[pos];
        TG_ASSERT(!edges.empty());
        if (edges.size() == 1) {
            for (const auto &[orig, renamed] : edges[0].map)
                table_.set(orig, renamed);
            return edges[0].pred;
        }

        // Merge. Block predicate: wired-OR of the edge predicates.
        const Reg block_pred = fn_.freshPred();
        Op pclr;
        pclr.opcode = Opcode::PCLR;
        pclr.dsts = {block_pred};
        emit(std::move(pclr), id, LoweredKind::PredDef);
        for (const InEdge &edge : edges) {
            TG_ASSERT(edge.pred &&
                      "merge edge with constant-true predicate");
            Op orr;
            orr.opcode = Opcode::CMPPO;
            orr.cmp = ir::CmpKind::NE;
            orr.dsts = {block_pred};
            orr.srcs = {ir::Operand::makeReg(*edge.pred),
                        ir::Operand::makeImm(0)};
            emit(std::move(orr), id, LoweredKind::PredDef);
        }

        // Union of renamed registers, first-appearance order. The
        // table doubles as the membership set (rolled back before
        // the merged state is written).
        std::vector<Reg> keys;
        {
            const size_t m = table_.mark();
            for (const InEdge &edge : edges) {
                for (const auto &[orig, renamed] : edge.map) {
                    if (!table_.find(orig)) {
                        table_.set(orig, renamed);
                        keys.push_back(orig);
                    }
                }
            }
            table_.rollback(m);
        }
        // Every key's value on every edge (identity where an edge
        // carries no entry), via one table load per edge.
        std::vector<Reg> values(keys.size() * edges.size());
        for (size_t e = 0; e < edges.size(); ++e) {
            const size_t m = table_.mark();
            for (const auto &[orig, renamed] : edges[e].map)
                table_.set(orig, renamed);
            for (size_t k = 0; k < keys.size(); ++k) {
                const Reg *r = table_.find(keys[k]);
                values[k * edges.size() + e] = r ? *r : keys[k];
            }
            table_.rollback(m);
        }

        // Register state: keep entries on which all edges agree; for
        // live, disagreeing registers emit one guarded MOV (select)
        // per edge into a fresh register.
        for (size_t k = 0; k < keys.size(); ++k) {
            const Reg orig = keys[k];
            const Reg *row = &values[k * edges.size()];
            const Reg first = row[0];
            bool agree = true;
            for (size_t e = 1; e < edges.size(); ++e)
                agree &= (row[e] == first);
            if (agree) {
                if (first != orig)
                    table_.set(orig, first);
                continue;
            }
            if (!live_.liveIn(id, orig))
                continue;  // dead at the join: no select needed
            const Reg fresh = orig.cls == ir::RegClass::Pred
                                  ? fn_.freshPred()
                                  : fn_.freshGpr();
            for (size_t e = 0; e < edges.size(); ++e) {
                Op select = ir::makeMov(fresh, row[e]);
                select.guard = edges[e].pred;
                emit(std::move(select), id, LoweredKind::Computation);
                ++out_.renamed_defs;
            }
            table_.set(orig, fresh);
        }
        return block_pred;
    }

    void
    lowerBlock(uint32_t pos)
    {
        // Each block is processed exactly once: load its entry
        // renaming, lower through the shared table, roll everything
        // back so the next block starts from an empty table.
        const BlockId id = out_.tree.block(pos);
        const size_t block_mark = table_.mark();
        const std::optional<Reg> pp = entryState(pos, id);
        ir::BasicBlock &b = fn_.block(id);
        const Op &term = b.terminator();
        const std::optional<Cond> branch_cond =
            lowerBody(id, [&] { return pp; });

        auto push_in_edge = [&](BlockId target,
                                std::optional<Reg> pred) {
            in_edges_[out_.tree.position(target)].push_back(
                {id, pred, snapshotRenames()});
        };

        switch (term.opcode) {
          case Opcode::RET: {
            Op ret = term;
            applyRenames(ret);
            ret.guard = pp;
            const size_t idx =
                emit(std::move(ret), id, LoweredKind::ExitBranch);
            recordExit(idx, id, 0, kNoBlock, true, b.weight());
            break;
          }
          case Opcode::BRU: {
            const BlockId target = term.targets[0];
            if (region_.isInternalEdge(fn_, id, 0)) {
                push_in_edge(target, pp);
            } else {
                Op branch = pp ? ir::makeBrct(*pp, target, kNoBlock)
                               : ir::makeBru(target);
                const size_t idx = emit(std::move(branch), id,
                                        LoweredKind::ExitBranch);
                recordExit(idx, id, 0, target, false,
                           edgeWeight(b, 0));
            }
            break;
          }
          case Opcode::BRCT:
          case Opcode::BRCF: {
            TG_ASSERT(branch_cond);
            ir::CmpKind taken_kind = branch_cond->kind;
            if (term.opcode == Opcode::BRCF)
                taken_kind = ir::negateCmpKind(taken_kind);
            for (size_t slot = 0; slot < term.targets.size(); ++slot) {
                Cond cond = *branch_cond;
                cond.kind = slot == 0 ? taken_kind
                                      : ir::negateCmpKind(taken_kind);
                const BlockId target = term.targets[slot];
                const Reg edge_pred = *conjunction(pp, {&cond, 1}, id);
                if (region_.isInternalEdge(fn_, id, slot)) {
                    push_in_edge(target, edge_pred);
                } else {
                    Op branch =
                        ir::makeBrct(edge_pred, target, kNoBlock);
                    const size_t idx = emit(std::move(branch), id,
                                            LoweredKind::ExitBranch);
                    recordExit(idx, id, slot, target, false,
                               edgeWeight(b, slot));
                }
            }
            break;
          }
          case Opcode::MWBR: {
            const ir::Operand selector = renamed(term.srcs[0]);
            Op mwbr = term;
            mwbr.srcs = {selector};
            bool any_exit = false;
            std::vector<std::pair<size_t, BlockId>> exit_cases;
            for (size_t slot = 0; slot < term.targets.size(); ++slot) {
                const BlockId target = term.targets[slot];
                if (region_.isInternalEdge(fn_, id, slot)) {
                    mwbr.targets[slot] = kNoBlock;
                    const Cond match{
                        ir::CmpKind::EQ, selector,
                        ir::Operand::makeImm(term.caseValues[slot])};
                    const Reg edge_pred =
                        *conjunction(pp, {&match, 1}, id);
                    push_in_edge(target, edge_pred);
                } else {
                    any_exit = true;
                    exit_cases.emplace_back(slot, target);
                }
            }
            if (any_exit) {
                mwbr.guard = pp;
                const size_t idx =
                    emit(std::move(mwbr), id, LoweredKind::ExitBranch);
                for (const auto &[slot, target] : exit_cases) {
                    recordExit(idx, id, slot, target, false,
                               edgeWeight(b, slot));
                }
            }
            break;
          }
          default:
            TG_PANIC("unexpected terminator %s",
                     std::string(ir::opcodeName(term.opcode)).c_str());
        }
        table_.rollback(block_mark);
    }

    std::vector<std::vector<InEdge>> in_edges_;  ///< by tree position
};

} // namespace

LoweredRegion
lowerRegion(ir::Function &fn, const region::Region &r,
            const analysis::Liveness &live, const LowerOptions &options)
{
    return Lowerer(fn, r, live, options).run();
}

LoweredRegion
lowerHyperblock(ir::Function &fn, const region::Region &r,
                const analysis::Liveness &live)
{
    return HyperLowerer(fn, r, live).run();
}

} // namespace treegion::sched
