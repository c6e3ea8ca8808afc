#include "vliw/machine_state.h"

#include "support/logging.h"

namespace treegion::vliw {

MachineState::MachineState(uint32_t num_gprs, uint32_t num_preds,
                           std::vector<int64_t> memory)
    : gprs_(num_gprs, 0),
      preds_(num_preds, 0),
      memory_(std::move(memory))
{
    TG_ASSERT(!memory_.empty());
}

size_t
MachineState::wrapSlow(int64_t addr, bool is_store)
{
    // Only out-of-range addresses come here.
    ++wrapped_;
    if (is_store)
        ++wrapped_stores_;
    return wrapAddress(addr, memory_.size());
}

} // namespace treegion::vliw
