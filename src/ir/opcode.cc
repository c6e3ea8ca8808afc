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

} // namespace

std::string_view
opcodeName(Opcode opcode)
{
    return opcodeInfo(opcode).name;
}

std::string_view
cmpKindName(CmpKind kind)
{
    return kCmpKindNames[static_cast<size_t>(kind)];
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
