/**
 * @file
 * Opcode definitions and static metadata for the treegion IR.
 *
 * The operation repertoire follows the HPL Play-Doh specification the
 * paper's machine models assume: general-purpose ALU ops, loads and
 * stores, a two-target compare-to-predicate (CMPP), prepare-to-branch
 * (PBR) with branch-target registers, predicated branches (BRCT/BRCF),
 * an unconditional branch (BRU), a multiway branch (MWBR) for switch
 * statements, and COPY ops introduced by compile-time register
 * renaming.
 *
 * Latencies mirror the paper's models: unit latency everywhere except
 * LD (2 cycles), FMUL (3) and FDIV (9); all units are universal and
 * fully pipelined.
 */

#ifndef TREEGION_IR_OPCODE_H
#define TREEGION_IR_OPCODE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/logging.h"

namespace treegion::ir {

/** Operation codes of the IR. */
enum class Opcode : uint8_t {
    // Data movement.
    MOVI,  ///< dst = immediate
    MOV,   ///< dst = src register
    COPY,  ///< renaming reconciliation copy (identical to MOV, but
           ///< marked so the performance model can exclude it)

    // Integer ALU.
    ADD,
    SUB,
    MUL,
    AND,
    OR,
    XOR,
    SHL,
    SHR,
    REM,  ///< remainder; b == 0 yields 0 (dismissible, like FDIV)

    // Floating-point (simulated over the integer register file; they
    // exist to exercise the paper's non-unit latencies).
    FADD,
    FMUL,
    FDIV,

    // Memory.
    LD,  ///< dst = mem[base + offset]; dismissible (non-faulting)
    ST,  ///< mem[base + offset] = src; never speculated

    // Predicate definition.
    CMPP,   ///< pt[, pf] = cmp(s1, s2) ANDed with the guard predicate
    PSET,   ///< dst predicate := 1 (initializer for wired-AND)
    PCLR,   ///< dst predicate := 0 (initializer for wired-OR)
    CMPPA,  ///< and-type compare: clears dst when cmp(s1, s2) is
            ///< false, leaves it untouched otherwise. Multiple CMPPAs
            ///< targeting one predicate commute, so a path predicate
            ///< is computable in a single level (HPL-PD's wired-AND,
            ///< the critical-path-reduction technique of Schlansker
            ///< and Kathail that the paper builds on)
    CMPPO,  ///< or-type compare: sets dst when cmp(s1, s2) is true,
            ///< leaves it untouched otherwise. Used to merge the
            ///< incoming edge predicates of a hyperblock join

    // Branch-related.
    PBR,   ///< btr = block address (prepare-to-branch)
    BRU,   ///< unconditional branch
    BRCT,  ///< branch if predicate true
    BRCF,  ///< branch if predicate false
    MWBR,  ///< multiway branch on a selector register
    RET,   ///< leave the function, yielding the src register

    NumOpcodes,
};

/** Comparison kinds for CMPP. */
enum class CmpKind : uint8_t { EQ, NE, LT, LE, GT, GE };

/** Static properties of one opcode. */
struct OpcodeInfo
{
    std::string_view name;  ///< mnemonic used by printer/parser
    int latency;            ///< cycles until the result is usable
    bool isBranch;          ///< transfers control
    bool isLoad;            ///< reads memory
    bool isStore;           ///< writes memory
    int numDsts;            ///< destination count (CMPP: 1 or 2)
    int numSrcs;            ///< source operand count
};

/** Number of opcodes. */
inline constexpr size_t kNumOpcodes =
    static_cast<size_t>(Opcode::NumOpcodes);

/** Static metadata of every opcode, in Opcode enum order. */
inline constexpr std::array<OpcodeInfo, kNumOpcodes> kOpcodeInfo = {{
    // name   lat  br     ld     st     dsts srcs
    {"MOVI",  1, false, false, false, 1, 1},
    {"MOV",   1, false, false, false, 1, 1},
    {"COPY",  1, false, false, false, 1, 1},
    {"ADD",   1, false, false, false, 1, 2},
    {"SUB",   1, false, false, false, 1, 2},
    {"MUL",   1, false, false, false, 1, 2},
    {"AND",   1, false, false, false, 1, 2},
    {"OR",    1, false, false, false, 1, 2},
    {"XOR",   1, false, false, false, 1, 2},
    {"SHL",   1, false, false, false, 1, 2},
    {"SHR",   1, false, false, false, 1, 2},
    {"REM",   1, false, false, false, 1, 2},
    {"FADD",  1, false, false, false, 1, 2},
    {"FMUL",  3, false, false, false, 1, 2},
    {"FDIV",  9, false, false, false, 1, 2},
    {"LD",    2, false, true,  false, 1, 2},
    {"ST",    1, false, false, true,  0, 3},
    {"CMPP",  1, false, false, false, 2, 2},
    {"PSET",  1, false, false, false, 1, 0},
    {"PCLR",  1, false, false, false, 1, 0},
    {"CMPPA", 1, false, false, false, 1, 2},
    {"CMPPO", 1, false, false, false, 1, 2},
    {"PBR",   1, false, false, false, 1, 0},
    {"BRU",   1, true,  false, false, 0, 0},
    {"BRCT",  1, true,  false, false, 0, 1},
    {"BRCF",  1, true,  false, false, 0, 1},
    {"MWBR",  1, true,  false, false, 0, 1},
    {"RET",   1, true,  false, false, 0, 1},
}};

/** Capacities of an op's in-place destination and source arrays: the
 * largest counts in the table (checked in opcode.cc). */
inline constexpr size_t kMaxDsts = 2;
inline constexpr size_t kMaxSrcs = 3;

/** @return static metadata for @p opcode. */
inline const OpcodeInfo &
opcodeInfo(Opcode opcode)
{
    const auto idx = static_cast<size_t>(opcode);
    TG_ASSERT(idx < kNumOpcodes);
    return kOpcodeInfo[idx];
}

/** @return mnemonic for @p opcode. */
std::string_view opcodeName(Opcode opcode);

/** @return mnemonic suffix for @p kind ("EQ", "LT", ...). */
std::string_view cmpKindName(CmpKind kind);

/** Mnemonic suffixes of the comparison kinds, in CmpKind order. */
inline constexpr std::array<std::string_view, 6> kCmpKindNames = {
    "EQ", "NE", "LT", "LE", "GT", "GE"};

/**
 * The opcodes whose mnemonics start with each capital letter, at most
 * four (the parser's lookup: a mnemonic is compared with a handful of
 * names, not all of them); kNumOpcodes ends a short row.
 */
inline constexpr auto kOpcodesByInitial = [] {
    std::array<std::array<uint8_t, 4>, 26> rows{};
    for (auto &row : rows)
        row.fill(static_cast<uint8_t>(kNumOpcodes));
    for (size_t i = 0; i < kNumOpcodes; ++i) {
        auto &row = rows[static_cast<size_t>(kOpcodeInfo[i].name[0] - 'A')];
        size_t k = 0;
        while (row[k] != kNumOpcodes)
            ++k;  // a fifth name would not compile: out of bounds
        row[k] = static_cast<uint8_t>(i);
    }
    return rows;
}();

/**
 * Parse an opcode mnemonic.
 *
 * @param name mnemonic, e.g. "ADD"
 * @param out parsed opcode on success
 * @return true when @p name names an opcode
 */
inline bool
parseOpcode(std::string_view name, Opcode &out)
{
    if (name.empty() || name[0] < 'A' || name[0] > 'Z')
        return false;
    for (const uint8_t i : kOpcodesByInitial[name[0] - 'A']) {
        if (i == kNumOpcodes)
            break;
        if (kOpcodeInfo[i].name == name) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

/** Parse a CMPP kind suffix; @return true on success. */
inline bool
parseCmpKind(std::string_view name, CmpKind &out)
{
    for (size_t i = 0; i < kCmpKindNames.size(); ++i) {
        if (kCmpKindNames[i] == name) {
            out = static_cast<CmpKind>(i);
            return true;
        }
    }
    return false;
}

/** @return the complementary comparison (LT <-> GE, etc.). */
CmpKind negateCmpKind(CmpKind kind);

/** Evaluate a comparison. */
inline bool
evalCmp(CmpKind kind, int64_t a, int64_t b)
{
    switch (kind) {
      case CmpKind::EQ: return a == b;
      case CmpKind::NE: return a != b;
      case CmpKind::LT: return a < b;
      case CmpKind::LE: return a <= b;
      case CmpKind::GT: return a > b;
      case CmpKind::GE: return a >= b;
    }
    TG_PANIC("bad CmpKind");
}

/**
 * Evaluate a non-memory, non-branch computation.
 *
 * FDIV by zero yields zero (dismissible semantics, so speculated
 * divides are always safe). Shift amounts are masked to 6 bits.
 *
 * @param opcode one of the ALU / FP opcodes
 * @param a first source value
 * @param b second source value (ignored by single-source ops)
 */
inline int64_t
evalAlu(Opcode opcode, int64_t a, int64_t b)
{
    using U = uint64_t;
    switch (opcode) {
      case Opcode::MOVI:
      case Opcode::MOV:
      case Opcode::COPY:
        return a;
      case Opcode::ADD:
      case Opcode::FADD:
        return static_cast<int64_t>(static_cast<U>(a) + static_cast<U>(b));
      case Opcode::SUB:
        return static_cast<int64_t>(static_cast<U>(a) - static_cast<U>(b));
      case Opcode::MUL:
      case Opcode::FMUL:
        return static_cast<int64_t>(static_cast<U>(a) * static_cast<U>(b));
      case Opcode::AND:
        return a & b;
      case Opcode::OR:
        return a | b;
      case Opcode::XOR:
        return a ^ b;
      case Opcode::SHL:
        return static_cast<int64_t>(static_cast<U>(a) << (b & 63));
      case Opcode::SHR:
        return static_cast<int64_t>(static_cast<U>(a) >> (b & 63));
      case Opcode::FDIV:
        // Dismissible semantics: divide-by-zero (and the INT_MIN / -1
        // overflow case) yield zero so speculated divides never trap.
        if (b == 0 || (a == INT64_MIN && b == -1))
            return 0;
        return a / b;
      case Opcode::REM:
        if (b == 0 || (a == INT64_MIN && b == -1))
            return 0;
        return a % b;
      default:
        TG_PANIC("evalAlu: not a computation opcode: %s",
                 std::string(opcodeName(opcode)).c_str());
    }
}

} // namespace treegion::ir

#endif // TREEGION_IR_OPCODE_H
