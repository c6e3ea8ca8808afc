#include "ir/parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>
#include <vector>

#include "support/string_utils.h"

namespace treegion::ir {

namespace {

using support::strprintf;
using support::trim;

// Everything called per line or per token is inline: the parser reads
// a few tens of bytes per op.

inline bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Split @p text on @p sep, dropping empty pieces, into @p out (a
 * buffer reused across lines: views into the input, no copies).
 */
inline void
splitInto(std::string_view text, char sep,
          std::vector<std::string_view> &out)
{
    out.clear();
    size_t start = 0;
    while (start <= text.size()) {
        size_t end = text.find(sep, start);
        if (end == std::string_view::npos)
            end = text.size();
        if (end > start)
            out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
}

/**
 * A header number: a whole, unsigned decimal token. Values past
 * 2^64 - 1 read as 2^64 - 1, for the caller's range check.
 */
inline std::optional<uint64_t>
parseDecimal(std::string_view tok)
{
    if (tok.empty())
        return std::nullopt;
    uint64_t value = 0;
    for (const char c : tok) {
        if (!isDigit(c))
            return std::nullopt;
        const auto digit = static_cast<uint64_t>(c - '0');
        value = value > (UINT64_MAX - digit) / 10 ? UINT64_MAX
                                                   : value * 10 + digit;
    }
    return value;
}

/** strtod over a view (a weight keeps the C library's rules). */
inline double
toDouble(std::string_view text)
{
    char buf[64];
    if (text.size() >= sizeof(buf))
        return std::strtod(std::string(text).c_str(), nullptr);
    std::copy(text.begin(), text.end(), buf);
    buf[text.size()] = '\0';
    return std::strtod(buf, nullptr);
}

/** How tokenize treats each byte of an op body. */
enum class CharKind : uint8_t { Token, Separator, Single };

constexpr std::array<CharKind, 256> kCharKinds = [] {
    std::array<CharKind, 256> kinds{};
    for (const unsigned char c : {' ', ',', '\t'})
        kinds[c] = CharKind::Separator;
    for (const unsigned char c : {'[', ']', '+', '?', ':'})
        kinds[c] = CharKind::Single;
    return kinds;
}();

/** Recursive-descent, line-oriented parser. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::unique_ptr<Module>
    run()
    {
        std::string_view line;
        if (!nextLine(line) || !line.starts_with("module "))
            return fail("expected 'module <name> mem=<words>'");
        splitInto(line, ' ', fields_);
        if (fields_.size() != 3 || !fields_[2].starts_with("mem="))
            return fail("malformed module header");
        auto mod = std::make_unique<Module>(std::string(fields_[1]));
        const std::optional<uint64_t> mem = parseDecimal(fields_[2].substr(4));
        if (!mem)
            return fail(notDecimal(fields_[2]));
        mod->setMemWords(*mem);

        while (nextLine(line)) {
            if (!line.starts_with("func @"))
                return fail("expected 'func @...'");
            if (!parseFunction(*mod, line))
                return nullptr;
        }
        return mod;
    }

  private:
    std::unique_ptr<Module>
    fail(const std::string &msg)
    {
        if (error_)
            *error_ = strprintf("line %zu: %s", line_no_, msg.c_str());
        return nullptr;
    }

    bool
    failb(const std::string &msg)
    {
        fail(msg);
        return false;
    }

    /** The message for a header number @p field that is not one. */
    static std::string
    notDecimal(std::string_view field)
    {
        return "expected a decimal number in '" + std::string(field) + "'";
    }

    /** Fail on the block id token @p tok (bbN, N >= kMaxBlockIds). */
    bool
    failBlockId(std::string_view tok)
    {
        return failb(strprintf("block id %.*s is out of range (ids stop "
                               "at bb%u)",
                               static_cast<int>(tok.size()), tok.data(),
                               kMaxBlockIds - 1));
    }

    /** Fetch the next non-empty, non-comment line, trimmed. */
    bool
    nextLine(std::string_view &out)
    {
        while (pos_ <= text_.size()) {
            size_t end = text_.find('\n', pos_);
            if (end == std::string_view::npos)
                end = text_.size();
            const std::string_view line =
                trim(text_.substr(pos_, end - pos_));
            pos_ = end + 1;
            ++line_no_;
            if (!line.empty() && line[0] != '#') {
                out = line;
                return true;
            }
        }
        return false;
    }

    bool
    parseFunction(Module &mod, std::string_view header)
    {
        // func @name entry=bbN gprs=N preds=N {
        splitInto(header, ' ', fields_);
        if (fields_.size() < 3 || fields_.back() != "{")
            return failb("malformed func header");
        const std::string name =
            fields_[0] == "func" && fields_[1][0] == '@'
                ? std::string(fields_[1].substr(1))
                : "";
        if (name.empty())
            return failb("missing function name");
        Function &fn = mod.createFunction(name);

        BlockId entry = kNoBlock;
        uint32_t gprs = 0;
        uint32_t preds = 0;
        // A register count names the size of a register file.
        const auto count = [&](std::string_view f, size_t prefix,
                               uint32_t &out) {
            const std::optional<uint64_t> n = parseDecimal(f.substr(prefix));
            if (!n)
                return failb(notDecimal(f));
            if (*n > UINT32_MAX)
                return failb("'" + std::string(f) + "' is out of range");
            out = static_cast<uint32_t>(*n);
            return true;
        };
        for (size_t i = 2; i + 1 < fields_.size(); ++i) {
            const std::string_view f = fields_[i];
            if (f.starts_with("entry=bb")) {
                const std::optional<uint64_t> id = parseDecimal(f.substr(8));
                if (!id)
                    return failb(notDecimal(f));
                if (*id >= kMaxBlockIds)
                    return failBlockId(f.substr(6));
                entry = static_cast<BlockId>(*id);
            } else if (f.starts_with("gprs=")) {
                if (!count(f, 5, gprs))
                    return false;
            } else if (f.starts_with("preds=")) {
                if (!count(f, 6, preds))
                    return false;
            } else {
                return failb("unknown func attribute: " + std::string(f));
            }
        }
        fn.reserveRegs(gprs, preds, 0);

        std::vector<bool> defined;
        std::string_view line;
        while (nextLine(line)) {
            if (line == "}")
                break;
            if (!line.starts_with("block bb"))
                return failb("expected 'block bb<N> ... {'");
            if (!parseBlock(fn, line, defined))
                return false;
        }

        // Remove blocks that were only created to reserve id space.
        fn.invalidatePreds();
        for (BlockId id = 0; id < fn.numBlockIds(); ++id) {
            if (!fn.hasBlock(id) ||
                (id < defined.size() && defined[id])) {
                continue;
            }
            if (!fn.predsOf(id).empty())
                return failb(strprintf("branch to undefined block bb%u",
                                       id));
            fn.removeBlock(id);
        }
        if (entry == kNoBlock || !fn.hasBlock(entry))
            return failb("function entry block missing");
        fn.setEntry(entry);
        module_block_ids_ += fn.numBlockIds();
        return true;
    }

    /**
     * Ensure ids 0..id exist in @p fn, failing instead when the
     * module's block tables would then hold more than kMaxBlockIds
     * slots in all.
     */
    bool
    reserveBlocks(Function &fn, BlockId id)
    {
        if (id < fn.numBlockIds())
            return true;
        if (module_block_ids_ + id + 1 > kMaxBlockIds)
            return failb(strprintf("block id bb%u takes the module past "
                                   "%u block ids",
                                   id, kMaxBlockIds));
        while (fn.numBlockIds() <= id)
            fn.createBlock();
        return true;
    }

    bool
    parseBlock(Function &fn, std::string_view header,
               std::vector<bool> &defined)
    {
        splitInto(header, ' ', fields_);
        if (fields_.size() < 3 || fields_.back() != "{")
            return failb("malformed block header");
        const std::optional<uint64_t> raw = parseDecimal(fields_[1].substr(2));
        if (!raw)
            return failb(notDecimal(fields_[1]));
        if (*raw >= kMaxBlockIds)
            return failBlockId(fields_[1]);
        const BlockId id = static_cast<BlockId>(*raw);
        if (!reserveBlocks(fn, id))
            return false;
        if (id < defined.size() && defined[id])
            return failb(strprintf("block bb%u defined twice", id));
        if (defined.size() <= id)
            defined.resize(id + 1, false);
        defined[id] = true;
        BasicBlock &b = fn.block(id);

        std::vector<double> &edge_weights = b.edgeWeights();
        for (size_t i = 2; i + 1 < fields_.size(); ++i) {
            const std::string_view f = fields_[i];
            if (f.starts_with("weight=")) {
                b.setWeight(toDouble(f.substr(7)));
            } else if (f.starts_with("edges=[")) {
                std::string_view inner = f.substr(7);
                if (!inner.empty() && inner.back() == ']')
                    inner.remove_suffix(1);
                splitInto(inner, ',', toks_);
                edge_weights.reserve(edge_weights.size() + toks_.size());
                for (const std::string_view piece : toks_)
                    edge_weights.push_back(toDouble(piece));
            } else {
                return failb("unknown block attribute: " + std::string(f));
            }
        }

        // Each op is parsed where it will live, in storage sized for
        // the block's op lines (an upper bound when the text is bad).
        std::vector<Op> &ops = b.ops();
        ops.reserve(countOpLines());
        bool terminated = false;
        std::string_view line;
        while (nextLine(line)) {
            if (line == "}")
                break;
            Op &op = ops.emplace_back();
            if (!parseOp(fn, line, op))
                return false;
            if (terminated) {
                return failb(op.isBranch() ? "multiple terminators in block"
                                           : "op after terminator");
            }
            terminated = op.isBranch();
            op.id = fn.freshOpId();
            op.home = id;
        }
        return true;
    }

    /** The op lines from here to the block's closing brace. */
    size_t
    countOpLines() const
    {
        size_t n = 0;
        for (size_t pos = pos_; pos < text_.size();) {
            size_t end = text_.find('\n', pos);
            if (end == std::string_view::npos)
                end = text_.size();
            const std::string_view line = trim(text_.substr(pos, end - pos));
            pos = end + 1;
            if (line == "}")
                break;
            n += !line.empty() && line[0] != '#';
        }
        return n;
    }

    /** Parse a register name like r3 / p1 / b2. */
    static std::optional<Reg>
    parseReg(std::string_view tok)
    {
        if (tok.size() < 2)
            return std::nullopt;
        RegClass cls;
        if (tok[0] == 'r')
            cls = RegClass::Gpr;
        else if (tok[0] == 'p')
            cls = RegClass::Pred;
        else if (tok[0] == 'b' && tok[1] != 'b')
            cls = RegClass::Btr;
        else
            return std::nullopt;
        uint32_t idx = 0;
        for (char c : tok.substr(1)) {
            if (!isDigit(c))
                return std::nullopt;
            idx = idx * 10 + static_cast<uint32_t>(c - '0');
        }
        return Reg{cls, idx};
    }

    /** A decimal immediate; out-of-range values saturate (strtoll). */
    static std::optional<int64_t>
    parseImm(std::string_view tok)
    {
        if (tok.empty())
            return std::nullopt;
        size_t i = tok[0] == '-' ? 1 : 0;
        if (i == tok.size())
            return std::nullopt;
        for (; i < tok.size(); ++i) {
            if (!isDigit(tok[i]))
                return std::nullopt;
        }
        int64_t value = 0;
        const auto [end, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), value);
        if (ec == std::errc::result_out_of_range)
            return tok[0] == '-' ? std::numeric_limits<int64_t>::min()
                                 : std::numeric_limits<int64_t>::max();
        return value;
    }

    /**
     * Parse a branch target: "fallthru" or bbN. An N at or past
     * kMaxBlockIds reads as kMaxBlockIds, for the caller to reject.
     */
    static std::optional<BlockId>
    parseTarget(std::string_view tok)
    {
        if (tok == "fallthru")
            return kNoBlock;
        if (tok.starts_with("bb")) {
            uint64_t idx = 0;
            if (tok.size() < 3)
                return std::nullopt;
            for (char c : tok.substr(2)) {
                if (!isDigit(c))
                    return std::nullopt;
                idx = std::min<uint64_t>(
                    idx * 10 + static_cast<uint64_t>(c - '0'),
                    kMaxBlockIds);
            }
            return static_cast<BlockId>(idx);
        }
        return std::nullopt;
    }

    /**
     * Split an op body into toks_ on spaces/commas/tabs, with each of
     * []+?: a token of its own.
     */
    void
    tokenize(std::string_view text)
    {
        toks_.clear();
        size_t start = 0;
        auto flush = [&](size_t end) {
            if (end > start)
                toks_.push_back(text.substr(start, end - start));
        };
        for (size_t i = 0; i < text.size(); ++i) {
            const CharKind kind =
                kCharKinds[static_cast<unsigned char>(text[i])];
            if (kind == CharKind::Token)
                continue;
            flush(i);
            if (kind == CharKind::Single)
                toks_.push_back(text.substr(i, 1));
            start = i + 1;
        }
        flush(text.size());
    }

    bool
    parseOp(Function &fn, std::string_view line, Op &op)
    {
        // Destinations (before '='), at most kMaxDsts of them.
        std::string_view body = line;
        const size_t eq = line.find(" = ");
        if (eq != std::string_view::npos) {
            splitInto(line.substr(0, eq), ',', toks_);
            for (const std::string_view d : toks_) {
                auto r = parseReg(trim(d));
                if (!r)
                    return failb("bad destination register: " +
                                 std::string(d));
                if (op.dsts.size() == kMaxDsts)
                    return failb("too many destinations");
                op.dsts.push_back(*r);
            }
            body = line.substr(eq + 3);
        }

        tokenize(body);
        const std::vector<std::string_view> &toks = toks_;
        if (toks.empty())
            return failb("empty op");

        // Mnemonic, possibly with a CMPP kind suffix.
        std::string_view mnemonic = toks[0];
        const size_t dot = mnemonic.find('.');
        if (dot != std::string_view::npos) {
            if (!parseCmpKind(mnemonic.substr(dot + 1), op.cmp))
                return failb("bad compare kind in " +
                             std::string(mnemonic));
            mnemonic = mnemonic.substr(0, dot);
        }
        if (!parseOpcode(mnemonic, op.opcode))
            return failb("unknown opcode: " + std::string(mnemonic));

        // Trailing guard: "? pN".
        size_t end = toks.size();
        if (end >= 2 && toks[end - 2] == "?") {
            auto g = parseReg(toks[end - 1]);
            if (!g || g->cls != RegClass::Pred)
                return failb("bad guard predicate");
            op.guard = *g;
            end -= 2;
        }

        size_t i = 1;
        auto expect = [&](const char *tok) {
            if (i >= end || toks[i] != tok)
                return false;
            ++i;
            return true;
        };

        if (op.opcode == Opcode::LD || op.opcode == Opcode::ST) {
            if (!expect("["))
                return failb("expected '[' in memory op");
            auto base = parseReg(i < end ? toks[i] : "");
            if (!base)
                return failb("bad base register");
            ++i;
            if (!expect("+"))
                return failb("expected '+' in memory op");
            auto off = parseImm(i < end ? toks[i] : "");
            if (!off)
                return failb("bad memory offset");
            ++i;
            if (!expect("]"))
                return failb("expected ']' in memory op");
            op.srcs = {Operand::makeReg(*base), Operand::makeImm(*off)};
            if (op.opcode == Opcode::ST) {
                if (i >= end)
                    return failb("missing store value");
                if (auto r = parseReg(toks[i]))
                    op.srcs.push_back(Operand::makeReg(*r));
                else if (auto imm = parseImm(toks[i]))
                    op.srcs.push_back(Operand::makeImm(*imm));
                else
                    return failb("bad store value");
                ++i;
            }
        } else if (op.opcode == Opcode::MWBR) {
            auto sel = parseReg(i < end ? toks[i] : "");
            if (!sel)
                return failb("bad MWBR selector");
            ++i;
            op.srcs = {Operand::makeReg(*sel)};
            if (!expect("["))
                return failb("expected '[' in MWBR");
            while (i < end && toks[i] != "]") {
                auto value = parseImm(toks[i]);
                if (!value)
                    return failb("bad MWBR case value");
                ++i;
                if (!expect(":"))
                    return failb("expected ':' in MWBR case");
                auto target = parseTarget(i < end ? toks[i] : "");
                if (!target)
                    return failb("bad MWBR case target");
                if (*target == kMaxBlockIds)
                    return failBlockId(toks[i]);
                ++i;
                op.caseValues.push_back(*value);
                op.targets.push_back(*target);
            }
            if (!expect("]"))
                return failb("expected ']' in MWBR");
        } else {
            // Generic: a mix of operands (at most kMaxSrcs) and branch
            // targets.
            for (; i < end; ++i) {
                const std::string_view tok = toks[i];
                if (auto target = parseTarget(tok)) {
                    if (*target == kMaxBlockIds)
                        return failBlockId(tok);
                    op.targets.push_back(*target);
                    continue;
                }
                Operand src;
                if (auto r = parseReg(tok))
                    src = Operand::makeReg(*r);
                else if (auto imm = parseImm(tok))
                    src = Operand::makeImm(*imm);
                else
                    return failb("bad operand: " + std::string(tok));
                if (op.srcs.size() == kMaxSrcs)
                    return failb("too many operands");
                op.srcs.push_back(src);
            }
            // The printed form of PBR/BRU carries targets only; make
            // sure referenced blocks exist.
        }
        if (i != end)
            return failb("trailing tokens in op");
        for (BlockId t : op.targets) {
            if (t != kNoBlock && !reserveBlocks(fn, t))
                return false;
        }
        return true;
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;      ///< start of the next unread line
    size_t line_no_ = 0;  ///< 1-based number of the last line read
    /** Block table slots of the functions parsed so far. */
    size_t module_block_ids_ = 0;
    std::vector<std::string_view> fields_;  ///< header fields
    std::vector<std::string_view> toks_;    ///< op tokens, edge weights
};

} // namespace

std::unique_ptr<Module>
parseModule(std::string_view text, std::string *error)
{
    Parser parser(text, error);
    return parser.run();
}

} // namespace treegion::ir
