/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in the library (workload generation, synthetic inputs,
 * property-test sweeps) flows through Rng so that every experiment is
 * reproducible from a single 64-bit seed. The implementation is
 * xoshiro256** seeded via splitmix64, which is fast, well distributed,
 * and has no global state.
 */

#ifndef TREEGION_SUPPORT_RNG_H
#define TREEGION_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace treegion::support {

/** A small, deterministic, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    uint64_t next();

    /** @return a uniform value in [0, bound). @p bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** @return a uniform value in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /**
     * Fill @p out[0, n) with uniform values in [lo, hi]: the same
     * values, and the same final generator state, as @p n calls of
     * nextRange(lo, hi), at a fraction of the cost (the rejection
     * threshold and the divisor are prepared once).
     */
    void fillRange(int64_t *out, size_t n, int64_t lo, int64_t hi);

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability @p p (clamped to [0,1]). */
    bool nextBool(double p = 0.5);

    /**
     * Sample an index according to non-negative weights.
     *
     * @param weights per-index weights; at least one must be positive
     * @return index in [0, weights.size())
     */
    size_t nextWeighted(const std::vector<double> &weights);

  private:
    uint64_t s_[4];
};

} // namespace treegion::support

#endif // TREEGION_SUPPORT_RNG_H
