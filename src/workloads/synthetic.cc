#include "workloads/synthetic.h"

#include <algorithm>

#include "ir/builder.h"
#include "support/logging.h"
#include "support/rng.h"

namespace treegion::workloads {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Opcode;
using ir::Operand;
using ir::Reg;
using support::Rng;

namespace {

/** ALU opcodes the body generator draws from. */
const Opcode kIntOps[] = {Opcode::ADD, Opcode::SUB, Opcode::MUL,
                          Opcode::AND, Opcode::OR,  Opcode::XOR,
                          Opcode::SHL, Opcode::SHR};
const Opcode kFpOps[] = {Opcode::FADD, Opcode::FMUL, Opcode::FDIV};

class Generator
{
  public:
    Generator(ir::Module &mod, const GenParams &params)
        : mod_(mod),
          params_(params),
          rng_(params.seed),
          fn_(mod.createFunction("main")),
          builder_(fn_)
    {
        TG_ASSERT(params.mem_words > kReservedWords + 64);
        data_words_ = params.mem_words - kReservedWords;
    }

    void
    run()
    {
        const BlockId entry = builder_.newBlock();
        fn_.setEntry(entry);
        builder_.setInsertPoint(entry);
        base_ = builder_.movi(0);

        // Seed the value pool.
        std::vector<Reg> pool;
        for (int i = 0; i < 4; ++i)
            pool.push_back(loadData(pool));
        for (int i = 0; i < 2; ++i)
            pool.push_back(builder_.movi(rng_.nextRange(1, 64)));

        for (int unit = 0; unit < params_.top_units; ++unit)
            genStructure(params_.max_depth, pool);

        // Fold a result and return it.
        emitBody(pool);
        Operand result = pick(pool);
        builder_.store(base_, accCell(), result);
        const Reg rv = builder_.load(base_, accCell());
        builder_.ret(Builder::R(rv));
    }

  private:
    int64_t accCell() const {
        return static_cast<int64_t>(params_.mem_words - 1);
    }

    int64_t
    counterCell()
    {
        const int64_t cell = static_cast<int64_t>(params_.mem_words) -
                             2 - next_counter_++;
        TG_ASSERT(next_counter_ <
                  static_cast<int>(kReservedWords) - 1);
        return cell;
    }

    int64_t
    dataOffset()
    {
        return static_cast<int64_t>(
            rng_.nextBelow(static_cast<uint64_t>(data_words_)));
    }

    /** Load a fresh data cell (always in [0, data_max)). */
    Reg
    loadData(std::vector<Reg> &)
    {
        return builder_.load(base_, dataOffset());
    }

    /** Pick an operand from the pool (or occasionally an immediate). */
    Operand
    pick(const std::vector<Reg> &pool)
    {
        if (pool.empty() || rng_.nextBool(0.15))
            return Builder::I(rng_.nextRange(1, 31));
        return Builder::R(
            pool[rng_.nextBelow(pool.size())]);
    }

    /**
     * Add @p r to the live-value pool, displacing a random entry once
     * the pool is full. The bounded pool models real integer code,
     * which keeps only a handful of values live across block
     * boundaries (so region-exit reconciliation stays small).
     */
    void
    intoPool(std::vector<Reg> &pool, Reg r)
    {
        if (pool.size() >= params_.pool_size)
            pool[rng_.nextBelow(pool.size())] = r;
        else
            pool.push_back(r);
    }

    /**
     * Emit a body of @p ops computation / memory ops.
     *
     * Ops form dependence chains (the next op usually consumes the
     * previous result), mimicking real code's limited intra-block
     * ILP; and, like real (dead-code-eliminated) compiler output,
     * no chain is left dangling: every chain terminates in a store,
     * the live-value pool, or a later use.
     */
    void
    emitBodyOps(std::vector<Reg> &pool, int ops)
    {
        Reg last{};
        bool have_last = false;
        std::vector<Reg> loose_ends;
        auto first_operand = [&]() -> Operand {
            if (have_last && rng_.nextBool(params_.chain_frac))
                return Builder::R(last);
            // Abandoning the current chain: remember its end so the
            // value is consumed before the block closes.
            if (have_last)
                loose_ends.push_back(last);
            return pick(pool);
        };
        for (int i = 0; i < ops; ++i) {
            if (rng_.nextBool(params_.mem_frac)) {
                if (rng_.nextBool(params_.store_frac)) {
                    builder_.store(base_, dataOffset(), first_operand());
                    have_last = false;
                } else {
                    if (have_last)
                        loose_ends.push_back(last);
                    last = builder_.load(base_, dataOffset());
                    have_last = true;
                }
            } else {
                const Opcode op =
                    rng_.nextBool(params_.fp_frac)
                        ? kFpOps[rng_.nextBelow(3)]
                        : kIntOps[rng_.nextBelow(8)];
                last = builder_.binary(op, first_operand(), pick(pool));
                have_last = true;
            }
        }
        if (have_last)
            loose_ends.push_back(last);
        // Terminate every chain: store the value or keep it live.
        // Storing dominates so that results computed inside branch
        // arms stay observable (pool entries that are never picked
        // again would otherwise be dead code).
        for (const Reg end : loose_ends) {
            if (rng_.nextBool(0.6))
                builder_.store(base_, dataOffset(), Builder::R(end));
            else
                intoPool(pool, end);
        }
    }

    /** Emit a standard-size block body. */
    void
    emitBody(std::vector<Reg> &pool)
    {
        emitBodyOps(pool, static_cast<int>(rng_.nextRange(
                              params_.block_ops_min,
                              params_.block_ops_max)));
    }

    /**
     * Emit a conditional branch taken with probability close to
     * @p p_taken (data cells are uniform in [0, data_max)).
     */
    void
    emitBiasedBranch(std::vector<Reg> &pool, double p_taken,
                     BlockId taken, BlockId fall)
    {
        const Reg x = loadData(pool);
        const int64_t threshold = static_cast<int64_t>(
            p_taken * static_cast<double>(params_.data_max));
        builder_.condBr(CmpKind::LT, Builder::R(x),
                        Builder::I(threshold), taken, fall);
    }

    bool
    blockBudgetLeft() const
    {
        return fn_.numBlockIds() < params_.max_blocks;
    }

    /** A short nested sequence inside an arm or body. */
    void
    genSub(int depth, std::vector<Reg> &pool)
    {
        emitBody(pool);
        if (depth > 0 && blockBudgetLeft() &&
            rng_.nextBool(params_.nest_prob)) {
            genStructure(depth, pool);
        }
    }

    void
    genStructure(int depth, std::vector<Reg> &pool)
    {
        enum { kStraight, kIf, kIfElse, kSwitch, kLadder, kLoop };
        size_t kind = kStraight;
        if (depth > 0 && blockBudgetLeft()) {
            kind = rng_.nextWeighted(
                {params_.p_straight, params_.p_if, params_.p_ifelse,
                 params_.p_switch, params_.p_ladder, params_.p_loop});
        }

        switch (kind) {
          case kStraight:
            emitBody(pool);
            break;

          case kIf: {
            emitBody(pool);
            const BlockId then_b = builder_.newBlock();
            const BlockId join = builder_.newBlock();
            const double p_then =
                rng_.nextBool() ? params_.bias : 1.0 - params_.bias;
            emitBiasedBranch(pool, p_then, then_b, join);

            builder_.setInsertPoint(then_b);
            std::vector<Reg> arm_pool = pool;
            genSub(depth - 1, arm_pool);
            builder_.bru(join);

            builder_.setInsertPoint(join);
            break;
          }

          case kIfElse: {
            emitBody(pool);
            const BlockId then_b = builder_.newBlock();
            const BlockId else_b = builder_.newBlock();
            const BlockId join = builder_.newBlock();
            const double p_then =
                rng_.nextBool() ? params_.bias : 1.0 - params_.bias;
            emitBiasedBranch(pool, p_then, then_b, else_b);

            builder_.setInsertPoint(then_b);
            std::vector<Reg> then_pool = pool;
            genSub(depth - 1, then_pool);
            builder_.bru(join);

            builder_.setInsertPoint(else_b);
            std::vector<Reg> else_pool = pool;
            genSub(depth - 1, else_pool);
            builder_.bru(join);

            builder_.setInsertPoint(join);
            break;
          }

          case kSwitch: {
            emitBody(pool);
            const int width = static_cast<int>(rng_.nextRange(
                params_.switch_width_min, params_.switch_width_max));
            // Restricting the selector to [0, hot) leaves the
            // remaining arms with zero profile weight, the shape the
            // paper observed in gcc's and perl's multiway branches.
            const int hot = static_cast<int>(rng_.nextRange(1, width));
            const Reg x = loadData(pool);
            // Data cells start in [0, data_max), but stores can
            // clobber them with negative computed values, and REM
            // truncates toward zero, so REM alone can yield a
            // negative selector that no MWBR case matches. Shift the
            // remainder into range: x REM hot is in (-hot, hot),
            // plus hot is in (0, 2*hot), REM hot lands in [0, hot).
            // For unclobbered data the selector value is unchanged.
            const Reg narrowed = builder_.binary(
                Opcode::REM, Builder::R(x), Builder::I(hot));
            const Reg shifted = builder_.binary(
                Opcode::ADD, Builder::R(narrowed), Builder::I(hot));
            const Reg sel = builder_.binary(
                Opcode::REM, Builder::R(shifted), Builder::I(hot));

            std::vector<BlockId> arms;
            for (int i = 0; i < width; ++i)
                arms.push_back(builder_.newBlock());
            const BlockId join = builder_.newBlock();
            builder_.mwbr(sel, arms);

            for (const BlockId arm : arms) {
                builder_.setInsertPoint(arm);
                std::vector<Reg> arm_pool = pool;
                // Arms are mostly shallow blocks; some go deeper, so
                // exit counts vary independently of weight.
                if (depth > 0 &&
                    rng_.nextBool(params_.switch_arm_nest_prob) &&
                    blockBudgetLeft()) {
                    genSub(depth - 1, arm_pool);
                } else {
                    emitBodyOps(arm_pool,
                                static_cast<int>(rng_.nextRange(
                                    params_.switch_arm_ops_min,
                                    params_.switch_arm_ops_max)));
                }
                builder_.bru(join);
            }
            builder_.setInsertPoint(join);
            break;
          }

          case kLadder: {
            // Early-exit ladder: each rung usually falls through to
            // the next; the common break target is the join. Produces
            // vortex-style linearized regions whose hottest exit is
            // the bottom one.
            const int len = static_cast<int>(rng_.nextRange(
                params_.ladder_len_min, params_.ladder_len_max));
            const BlockId join = builder_.newBlock();
            // A "dead" ladder never takes its early exits: all rungs
            // then carry identical profile weight (Fig. 10's
            // linearized treegion).
            const double p_break =
                rng_.nextBool(params_.ladder_dead_prob)
                    ? 0.0
                    : params_.ladder_break;
            emitBody(pool);
            for (int i = 0; i < len; ++i) {
                const BlockId next = builder_.newBlock();
                emitBiasedBranch(pool, p_break, join, next);
                builder_.setInsertPoint(next);
                emitBody(pool);
            }
            builder_.bru(join);
            builder_.setInsertPoint(join);
            break;
          }

          case kLoop: {
            // Counted loop with a register induction variable. The
            // IR permits redefinition (it is not SSA), so the latch
            // updates the counter in place like real compiled code.
            const int64_t trips = rng_.nextRange(params_.loop_trip_min,
                                                 params_.loop_trip_max);
            emitBody(pool);
            const Reg counter = builder_.movi(0);
            const BlockId header = builder_.newBlock();
            const BlockId body = builder_.newBlock();
            const BlockId exit_b = builder_.newBlock();
            builder_.bru(header);

            builder_.setInsertPoint(header);
            builder_.condBr(CmpKind::LT, Builder::R(counter),
                            Builder::I(trips), body, exit_b);

            builder_.setInsertPoint(body);
            std::vector<Reg> body_pool = pool;
            genSub(depth - 1, body_pool);
            fn_.appendOp(builder_.insertPoint(),
                         ir::makeBinary(Opcode::ADD, counter,
                                        Builder::R(counter),
                                        Builder::I(1)));
            builder_.bru(header);

            builder_.setInsertPoint(exit_b);
            break;
          }
        }
    }

    ir::Module &mod_;
    const GenParams &params_;
    Rng rng_;
    ir::Function &fn_;
    Builder builder_;
    Reg base_;
    size_t data_words_ = 0;
    int next_counter_ = 0;
};

} // namespace

std::unique_ptr<ir::Module>
generateProgram(const std::string &name, const GenParams &params)
{
    auto mod = std::make_unique<ir::Module>(name);
    mod->setMemWords(params.mem_words);
    Generator gen(*mod, params);
    gen.run();
    return mod;
}

std::vector<int64_t>
makeInputMemory(size_t mem_words, uint64_t seed, int data_max)
{
    std::vector<int64_t> memory(mem_words, 0);
    fillInputMemory(memory, seed, data_max);
    return memory;
}

void
fillInputMemory(std::vector<int64_t> &memory, uint64_t seed, int data_max)
{
    TG_ASSERT(memory.size() >= kMinInputMemWords);
    const size_t data = memory.size() - kReservedWords;
    Rng rng(seed);
    rng.fillRange(memory.data(), data, 0, data_max - 1);
    std::fill(memory.begin() + data, memory.end(), 0);
}

} // namespace treegion::workloads
