#include "fuzz/reducer.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "ir/verifier.h"
#include "support/logging.h"
#include "support/spans.h"
#include "vliw/interpreter.h"

namespace treegion::fuzz {

namespace {

/** Deep-copy a single-function module. */
std::unique_ptr<ir::Module>
cloneModule(const ir::Module &mod)
{
    TG_ASSERT(mod.functions().size() == 1);
    auto out = std::make_unique<ir::Module>(mod.name());
    out->setMemWords(mod.memWords());
    out->functions().push_back(std::make_unique<ir::Function>(
        mod.functions().front()->clone()));
    return out;
}

/**
 * Drop stale profile data after a CFG mutation (the oracle run
 * re-profiles from scratch; stale edge-weight vectors would trip the
 * structural verifier once a terminator changed arity).
 */
void
clearProfile(ir::Function &fn)
{
    fn.forEachBlockMut([](ir::BasicBlock &b) {
        b.setWeight(0.0);
        b.edgeWeights().clear();
    });
}

struct Ctx
{
    const std::string &oracle;
    const OraclePredicate &pred;
    const ReduceOptions &opts;
    uint64_t gate_ops;
    ReduceResult res;

    bool
    budgetLeft() const
    {
        return res.candidates < opts.max_candidates;
    }
};

/**
 * Build a candidate by applying @p mutate to a clone, and adopt it
 * into @p mod when it is still valid pipeline input and still fails
 * the same oracle. @p mutate returns false when it had no effect.
 */
bool
tryCandidate(ir::Module &mod, Ctx &ctx,
             const std::function<bool(ir::Function &)> &mutate)
{
    if (!ctx.budgetLeft())
        return false;
    std::unique_ptr<ir::Module> candidate = cloneModule(mod);
    ir::Function &fn = *candidate->functions().front();
    if (!mutate(fn))
        return false;
    fn.removeUnreachableBlocks();
    clearProfile(fn);
    if (!ir::verifyFunction(fn, ir::VerifyLevel::Schedulable).empty())
        return false;
    ++ctx.res.candidates;
    // Reject candidates that no longer terminate: collapsing a loop
    // latch onto its back edge spins forever, and an op deletion can
    // knock an MWBR selector out of range (the interpreter halts
    // without completing). Termination of generated programs is data
    // independent (counted loops), so one zero image suffices, and
    // the op budget is scaled from the original's run length.
    vliw::InterpOptions interp;
    interp.max_ops = ctx.gate_ops;
    if (!vliw::runSequential(
             fn, std::vector<int64_t>(candidate->memWords(), 0), interp)
             .completed)
        return false;
    if (ctx.pred(*candidate).oracle != ctx.oracle)
        return false;
    mod.functions().front() = std::move(candidate->functions().front());
    return true;
}

std::vector<ir::BlockId>
conditionalBlocks(const ir::Module &mod)
{
    std::vector<ir::BlockId> ids;
    mod.functions().front()->forEachBlock([&](const ir::BasicBlock &b) {
        if (b.hasTerminator() && b.terminator().targets.size() > 1)
            ids.push_back(b.id());
    });
    return ids;
}

/**
 * Collapse multi-way terminators to unconditional branches in ddmin
 * chunks; every collapse orphans the other side's subgraph, which
 * the unreachable-block sweep then deletes.
 */
bool
collapsePass(ir::Module &mod, Ctx &ctx)
{
    bool any = false;
    for (int side = 0; side < 2; ++side) {
        size_t chunk = conditionalBlocks(mod).size();
        while (chunk >= 1 && ctx.budgetLeft()) {
            const std::vector<ir::BlockId> ids = conditionalBlocks(mod);
            for (size_t start = 0; start < ids.size(); start += chunk) {
                const size_t end = std::min(start + chunk, ids.size());
                any |= tryCandidate(mod, ctx, [&](ir::Function &fn) {
                    bool changed = false;
                    for (size_t i = start; i < end; ++i) {
                        if (!fn.hasBlock(ids[i]))
                            continue;
                        const ir::Op &term =
                            fn.block(ids[i]).terminator();
                        if (term.targets.size() < 2)
                            continue;
                        const ir::BlockId target =
                            side == 0 ? term.targets.front()
                                      : term.targets.back();
                        fn.replaceTerminator(ids[i],
                                             ir::makeBru(target));
                        changed = true;
                    }
                    return changed;
                });
                if (!ctx.budgetLeft())
                    return any;
            }
            if (chunk == 1)
                break;
            chunk /= 2;
        }
    }
    return any;
}

std::vector<std::pair<ir::BlockId, ir::OpId>>
bodyOps(const ir::Module &mod)
{
    std::vector<std::pair<ir::BlockId, ir::OpId>> ops;
    mod.functions().front()->forEachBlock([&](const ir::BasicBlock &b) {
        for (size_t i = 0; i + 1 < b.ops().size(); ++i)
            ops.emplace_back(b.id(), b.ops()[i].id);
    });
    return ops;
}

/** Delete non-terminator ops in ddmin chunks. */
bool
deleteOpsPass(ir::Module &mod, Ctx &ctx)
{
    bool any = false;
    size_t chunk = bodyOps(mod).size();
    while (chunk >= 1 && ctx.budgetLeft()) {
        const auto ops = bodyOps(mod);
        if (ops.empty())
            break;
        for (size_t start = 0; start < ops.size(); start += chunk) {
            const size_t end = std::min(start + chunk, ops.size());
            any |= tryCandidate(mod, ctx, [&](ir::Function &fn) {
                bool changed = false;
                for (size_t i = start; i < end; ++i) {
                    const auto [block_id, op_id] = ops[i];
                    if (!fn.hasBlock(block_id))
                        continue;
                    auto &body = fn.block(block_id).ops();
                    for (size_t j = 0; j + 1 < body.size(); ++j) {
                        if (body[j].id == op_id) {
                            body.erase(body.begin() +
                                       static_cast<ptrdiff_t>(j));
                            changed = true;
                            break;
                        }
                    }
                }
                return changed;
            });
            if (!ctx.budgetLeft())
                return any;
        }
        if (chunk == 1)
            break;
        chunk /= 2;
    }
    return any;
}

/** Shrink immediates toward zero, one operand at a time. */
bool
shrinkImmediatesPass(ir::Module &mod, Ctx &ctx)
{
    struct ImmSite
    {
        ir::BlockId block;
        ir::OpId op;
        size_t src;
        int64_t value;
    };
    std::vector<ImmSite> sites;
    mod.functions().front()->forEachBlock([&](const ir::BasicBlock &b) {
        for (const ir::Op &op : b.ops()) {
            for (size_t s = 0; s < op.srcs.size(); ++s) {
                if (op.srcs[s].isImm() && op.srcs[s].imm != 0)
                    sites.push_back(
                        {b.id(), op.id, s, op.srcs[s].imm});
            }
        }
    });
    bool any = false;
    for (const ImmSite &site : sites) {
        for (const int64_t replacement :
             {int64_t{0}, site.value / 2}) {
            if (replacement == site.value)
                continue;
            const bool ok = tryCandidate(mod, ctx, [&](ir::Function &fn) {
                if (!fn.hasBlock(site.block))
                    return false;
                for (ir::Op &op : fn.block(site.block).ops()) {
                    if (op.id == site.op && site.src < op.srcs.size() &&
                        op.srcs[site.src].isImm()) {
                        if (op.srcs[site.src].imm == replacement)
                            return false;
                        op.srcs[site.src].imm = replacement;
                        return true;
                    }
                }
                return false;
            });
            if (!ctx.budgetLeft())
                return any;
            if (ok) {
                any = true;
                break;  // shrunk to 0; nothing further for this site
            }
        }
    }
    return any;
}

} // namespace

ReduceResult
reduceModule(ir::Module &mod, const std::string &oracle,
             const OraclePredicate &pred, const ReduceOptions &opts)
{
    support::SpanScope span("reduce", support::SpanScope::Root::IfEnabled);
    span.arg("oracle", oracle);
    TG_ASSERT(mod.functions().size() == 1);
    // Size the candidate termination gate from the original's actual
    // run length so long-but-terminating programs still reduce.
    const vliw::InterpOptions probe;
    const vliw::ExecResult base = vliw::runSequential(
        *mod.functions().front(),
        std::vector<int64_t>(mod.memWords(), 0), probe);
    const uint64_t gate_ops =
        base.completed
            ? std::max<uint64_t>(100'000, 4 * base.ops_executed)
            : probe.max_ops;
    Ctx ctx{oracle, pred, opts, gate_ops, {}};
    ctx.res.original_ops = mod.functions().front()->totalOps();
    for (int round = 0; round < opts.max_rounds; ++round) {
        bool changed = false;
        changed |= collapsePass(mod, ctx);
        changed |= deleteOpsPass(mod, ctx);
        changed |= shrinkImmediatesPass(mod, ctx);
        ++ctx.res.rounds;
        if (!changed || !ctx.budgetLeft())
            break;
    }
    ctx.res.reduced_ops = mod.functions().front()->totalOps();
    return ctx.res;
}

} // namespace treegion::fuzz
