#include "ir/opcode.h"

#include <algorithm>
#include <array>

#include "support/logging.h"

namespace treegion::ir {

namespace {

static_assert(std::all_of(kOpcodeInfo.begin(), kOpcodeInfo.end(),
                          [](const OpcodeInfo &info) {
                              return info.numDsts <= int{kMaxDsts} &&
                                     info.numSrcs <= int{kMaxSrcs};
                          }),
              "an opcode needs more operands than an Op holds");

const std::array<std::string_view, 6> kCmpNames = {"EQ", "NE", "LT",
                                                   "LE", "GT", "GE"};

} // namespace

std::string_view
opcodeName(Opcode opcode)
{
    return opcodeInfo(opcode).name;
}

std::string_view
cmpKindName(CmpKind kind)
{
    return kCmpNames[static_cast<size_t>(kind)];
}

bool
parseOpcode(std::string_view name, Opcode &out)
{
    for (size_t i = 0; i < kNumOpcodes; ++i) {
        if (kOpcodeInfo[i].name == name) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

bool
parseCmpKind(std::string_view name, CmpKind &out)
{
    for (size_t i = 0; i < kCmpNames.size(); ++i) {
        if (kCmpNames[i] == name) {
            out = static_cast<CmpKind>(i);
            return true;
        }
    }
    return false;
}

CmpKind
negateCmpKind(CmpKind kind)
{
    switch (kind) {
      case CmpKind::EQ: return CmpKind::NE;
      case CmpKind::NE: return CmpKind::EQ;
      case CmpKind::LT: return CmpKind::GE;
      case CmpKind::GE: return CmpKind::LT;
      case CmpKind::LE: return CmpKind::GT;
      case CmpKind::GT: return CmpKind::LE;
    }
    TG_PANIC("bad CmpKind");
}

} // namespace treegion::ir
