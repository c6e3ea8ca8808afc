/**
 * @file
 * Hook-based heap accounting for memory-budget calibration.
 *
 * The library never interposes malloc itself. A test or bench binary
 * that links an allocation interposer (tests/alloc_guard.h) forwards
 * every successful allocation and free here, and the counters below
 * track live heap bytes and the peak observed inside a measurement
 * window. Binaries without an interposer pay nothing: the hooks are
 * never called, memstatActive() stays false, and every counter reads
 * zero.
 *
 * The window peak is process-global: a window measures the whole
 * process, not one job, so a reader opens it around work nothing
 * else runs beside. The mem_estimate calibration
 * (throughput_memsched --calibrate) and its pin
 * (tests/mem_estimate_test.cc) open one around each compile run
 * alone; the memsched frontier opens one around each whole batch.
 * The library itself never resets it.
 */

#ifndef TREEGION_SUPPORT_MEMSTAT_H
#define TREEGION_SUPPORT_MEMSTAT_H

#include <cstddef>
#include <cstdint>

namespace treegion::support {

/** Interposer hook: @p bytes were allocated (usable size). */
void memstatOnAlloc(std::size_t bytes) noexcept;

/** Interposer hook: @p bytes were freed (usable size). */
void memstatOnFree(std::size_t bytes) noexcept;

/** True once any interposer hook has fired in this process. */
bool memstatActive() noexcept;

/** Largest live-byte count observed since the last window reset. */
uint64_t memstatWindowPeakBytes() noexcept;

/**
 * Start a new measurement window: the window peak restarts from the
 * current live bytes. @return the live bytes at the reset, so a
 * caller can report the window's peak growth as peak - start.
 */
uint64_t memstatResetWindow() noexcept;

} // namespace treegion::support

#endif // TREEGION_SUPPORT_MEMSTAT_H
