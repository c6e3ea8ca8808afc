#include "sched/hyperblock_lowering.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sched/rename_table.h"
#include "support/logging.h"

namespace treegion::sched {

using ir::BlockId;
using ir::kNoBlock;
using ir::Op;
using ir::Opcode;
using ir::Reg;

namespace {

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

class HyperLowerer
{
  public:
    HyperLowerer(ir::Function &fn, const region::Region &r,
                 const analysis::Liveness &live)
        : fn_(fn), region_(r), live_(live)
    {
        out_.root = r.root();
    }

    LoweredRegion
    run()
    {
        // Topological order: a block is ready once all its in-region
        // predecessor edges have been produced. Process the root,
        // then repeatedly pick ready blocks.
        std::unordered_map<BlockId, size_t> pending_in;
        for (const BlockId id : region_.blocks()) {
            size_t count = 0;
            for (const BlockId pred : fn_.predsOf(id)) {
                if (region_.contains(pred) && id != region_.root())
                    ++count;
            }
            pending_in[id] = count;
        }

        std::vector<BlockId> ready = {region_.root()};
        std::unordered_set<BlockId> done;
        while (!ready.empty()) {
            const BlockId id = ready.back();
            ready.pop_back();
            if (done.count(id))
                continue;
            TG_ASSERT(pending_in.at(id) == 0 ||
                      id == region_.root());
            done.insert(id);
            lowerBlock(id);
            // Lowering produced this block's outgoing internal
            // edges; release successors whose edges are complete.
            for (const BlockId succ : internalSuccs(id)) {
                size_t &left = pending_in.at(succ);
                TG_ASSERT(left > 0);
                // One decrement per edge (multi-edges decrement once
                // per occurrence via internalSuccs multiplicity).
                --left;
                if (left == 0)
                    ready.push_back(succ);
            }
        }
        TG_ASSERT(done.size() == region_.blocks().size());

        for (const BlockId id : region_.blocks()) {
            auto &succs = out_.succs_in_region[id];
            for (const BlockId succ : internalSuccs(id)) {
                if (std::find(succs.begin(), succs.end(), succ) ==
                    succs.end()) {
                    succs.push_back(succ);
                }
            }
        }
        return std::move(out_);
    }

  private:
    /** In-region successors of @p id, one entry per edge. */
    std::vector<BlockId>
    internalSuccs(BlockId id)
    {
        std::vector<BlockId> out;
        const Op &term = fn_.block(id).terminator();
        for (size_t slot = 0; slot < term.targets.size(); ++slot) {
            if (region_.isInternalEdge(fn_, id, slot))
                out.push_back(term.targets[slot]);
        }
        return out;
    }

    /** Rewrite register sources through the current renaming. */
    void
    applyRenames(Op &op) const
    {
        for (ir::Operand &src : op.srcs) {
            if (src.isReg()) {
                if (const Reg *renamed = table_.find(src.reg))
                    src.reg = *renamed;
            }
        }
    }

    void
    renameDests(Op &op)
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
            table_.set(dst, fresh);
            dst = fresh;
            ++out_.renamed_defs;
        }
    }

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

    /** edge_pred = base AND cmp(a, b): PSET + optional AND of the
     * base predicate + the condition. */
    Reg
    andPred(std::optional<Reg> base, ir::CmpKind kind,
            const ir::Operand &a, const ir::Operand &b, BlockId home)
    {
        const Reg p = fn_.freshPred();
        Op pset;
        pset.opcode = Opcode::PSET;
        pset.dsts = {p};
        emit(std::move(pset), home, LoweredKind::PredDef);
        if (base) {
            Op chain;
            chain.opcode = Opcode::CMPPA;
            chain.cmp = ir::CmpKind::NE;
            chain.dsts = {p};
            chain.srcs = {ir::Operand::makeReg(*base),
                          ir::Operand::makeImm(0)};
            emit(std::move(chain), home, LoweredKind::PredDef);
        }
        Op cond;
        cond.opcode = Opcode::CMPPA;
        cond.cmp = kind;
        cond.dsts = {p};
        cond.srcs = {a, b};
        emit(std::move(cond), home, LoweredKind::PredDef);
        return p;
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

    std::vector<ExitCopy>
    copiesFor(BlockId target)
    {
        std::vector<ExitCopy> copies;
        table_.forEachPresent([&](Reg orig, Reg renamed) {
            if (orig == renamed || orig.cls == ir::RegClass::Btr)
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

    static double
    edgeWeight(const ir::BasicBlock &b, size_t slot)
    {
        const auto &weights = b.edgeWeights();
        return slot < weights.size() ? weights[slot] : 0.0;
    }

    /**
     * Load the entry state of @p id into the shared table and
     * @return its block predicate, synthesizing merges where the
     * block has several incoming edges. The caller owns the
     * surrounding mark()/rollback() pair.
     *
     * Merge order is deterministic: keys are visited in
     * first-appearance order across the edge snapshots (edge order
     * itself follows the deterministic topological walk), so fresh
     * register numbering and select emission no longer depend on
     * hash-table iteration order.
     */
    std::optional<Reg>
    entryState(BlockId id)
    {
        if (id == region_.root())
            return std::nullopt;
        auto it = in_edges_.find(id);
        TG_ASSERT(it != in_edges_.end() && !it->second.empty());
        std::vector<InEdge> &edges = it->second;
        if (edges.size() == 1) {
            for (const auto &[orig, renamed] : edges[0].map)
                table_.set(orig, renamed);
            const std::optional<Reg> pred = edges[0].pred;
            in_edges_.erase(it);
            return pred;
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
        in_edges_.erase(it);
        return block_pred;
    }

    void
    lowerBlock(BlockId id)
    {
        // Each block is processed exactly once: load its entry
        // renaming, lower through the shared table, roll everything
        // back so the next block starts from an empty table.
        const size_t block_mark = table_.mark();
        const std::optional<Reg> pp = entryState(id);
        ir::BasicBlock &b = fn_.block(id);
        const Op &term = b.terminator();

        Reg cond_reg{};
        bool has_cond = false;
        if (term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF) {
            cond_reg = term.srcs[0].reg;
            has_cond = true;
        }
        std::optional<std::pair<ir::CmpKind,
                                std::pair<ir::Operand, ir::Operand>>>
            branch_cond;

        for (size_t i = 0; i + 1 < b.ops().size(); ++i) {
            const Op &orig = b.ops()[i];
            if (has_cond && orig.opcode == Opcode::CMPP &&
                !orig.dsts.empty() && orig.dsts[0] == cond_reg) {
                Op probe = orig;
                applyRenames(probe);
                branch_cond = {probe.cmp, {probe.srcs[0],
                                           probe.srcs[1]}};
                continue;
            }
            Op op = orig;
            applyRenames(op);
            renameDests(op);
            const bool pinned = op.isStore();
            if (pinned)
                op.guard = pp;
            emit(std::move(op), id, LoweredKind::Computation, pinned);
        }

        auto push_in_edge = [&](BlockId target,
                                std::optional<Reg> pred) {
            in_edges_[target].push_back({id, pred, snapshotRenames()});
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
            ir::CmpKind taken_kind = branch_cond->first;
            if (term.opcode == Opcode::BRCF)
                taken_kind = ir::negateCmpKind(taken_kind);
            const ir::Operand a = branch_cond->second.first;
            const ir::Operand bb = branch_cond->second.second;
            for (size_t slot = 0; slot < term.targets.size(); ++slot) {
                const ir::CmpKind kind =
                    slot == 0 ? taken_kind
                              : ir::negateCmpKind(taken_kind);
                const BlockId target = term.targets[slot];
                const Reg edge_pred = andPred(pp, kind, a, bb, id);
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
                    mwbr.targets[slot] = kNoBlock;
                    const Reg edge_pred = andPred(
                        pp, ir::CmpKind::EQ, selector,
                        ir::Operand::makeImm(term.caseValues[slot]),
                        id);
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

    ir::Function &fn_;
    const region::Region &region_;
    const analysis::Liveness &live_;
    LoweredRegion out_;
    RenameTable table_;  ///< shared by the whole walk (journaled)
    std::unordered_map<BlockId, std::vector<InEdge>> in_edges_;
};

} // namespace

LoweredRegion
lowerHyperblock(ir::Function &fn, const region::Region &r,
                const analysis::Liveness &live)
{
    return HyperLowerer(fn, r, live).run();
}

} // namespace treegion::sched
