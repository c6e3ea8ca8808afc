/**
 * @file
 * Architectural state of the VLIW schedule simulator: the three
 * register files and word-addressed data memory (the out-of-order
 * backend keeps only the memory).
 *
 * Loads wrap out-of-range addresses modulo the memory size, modeling
 * Play-Doh dismissible (non-faulting) loads so speculated loads are
 * always safe; every execution engine, the sequential interpreter
 * included, wraps through wrapAddress so results stay comparable. Stores that wrap are counted, which lets
 * tests assert that non-speculative code never goes out of bounds.
 */

#ifndef TREEGION_VLIW_MACHINE_STATE_H
#define TREEGION_VLIW_MACHINE_STATE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "ir/operand.h"
#include "support/logging.h"

namespace treegion::vliw {

/**
 * The word that address @p addr names in a @p words-word memory: the
 * address itself when in range, else its value modulo the size
 * (dismissible accesses wrap instead of faulting).
 */
inline size_t
wrapAddress(int64_t addr, size_t words)
{
    // In range is the common case: no division.
    if (static_cast<uint64_t>(addr) < words)
        return static_cast<size_t>(addr);
    const auto size = static_cast<int64_t>(words);
    int64_t wrapped = addr % size;
    if (wrapped < 0)
        wrapped += size;
    return static_cast<size_t>(wrapped);
}

/** Register files plus data memory. */
class MachineState
{
  public:
    /**
     * @param num_gprs GPR file size
     * @param num_preds predicate file size
     * @param memory initial data memory image (word addressed)
     */
    MachineState(uint32_t num_gprs, uint32_t num_preds,
                 std::vector<int64_t> memory);

    /** Read a register (BTRs read as 0; they carry no semantics). */
    int64_t
    readReg(ir::Reg r) const
    {
        switch (r.cls) {
          case ir::RegClass::Gpr:
            TG_ASSERT(r.idx < gprs_.size());
            return gprs_[r.idx];
          case ir::RegClass::Pred:
            TG_ASSERT(r.idx < preds_.size());
            return preds_[r.idx];
          case ir::RegClass::Btr:
            return 0;
        }
        TG_PANIC("bad RegClass");
    }

    /** Write a register. */
    void
    writeReg(ir::Reg r, int64_t value)
    {
        switch (r.cls) {
          case ir::RegClass::Gpr:
            TG_ASSERT(r.idx < gprs_.size());
            gprs_[r.idx] = value;
            return;
          case ir::RegClass::Pred:
            TG_ASSERT(r.idx < preds_.size());
            preds_[r.idx] = value ? 1 : 0;
            return;
          case ir::RegClass::Btr:
            return;  // BTRs carry no simulated semantics
        }
        TG_PANIC("bad RegClass");
    }

    /** Read memory, wrapping the address (dismissible load). */
    int64_t readMem(int64_t addr) { return memory_[wrap(addr, false)]; }

    /** Write memory, wrapping the address (counted). */
    void
    writeMem(int64_t addr, int64_t value)
    {
        memory_[wrap(addr, true)] = value;
    }

    /** Move the memory image out (the state is done with it). */
    std::vector<int64_t> takeMemory() { return std::move(memory_); }

    /** @return loads+stores whose address wrapped. */
    uint64_t wrappedAccesses() const { return wrapped_; }

    /** @return wrapped stores only (should be 0 for valid programs). */
    uint64_t wrappedStores() const { return wrapped_stores_; }

  private:
    size_t
    wrap(int64_t addr, bool is_store)
    {
        // In range is the common case: no division.
        if (static_cast<uint64_t>(addr) < memory_.size())
            return static_cast<size_t>(addr);
        return wrapSlow(addr, is_store);
    }

    size_t wrapSlow(int64_t addr, bool is_store);

    std::vector<int64_t> gprs_;
    std::vector<int64_t> preds_;
    std::vector<int64_t> memory_;
    uint64_t wrapped_ = 0;
    uint64_t wrapped_stores_ = 0;
};

} // namespace treegion::vliw

#endif // TREEGION_VLIW_MACHINE_STATE_H
