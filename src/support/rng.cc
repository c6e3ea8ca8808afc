#include "support/rng.h"

#include "support/logging.h"

namespace treegion::support {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** One xoshiro256** step of state @p s. */
inline uint64_t
step(uint64_t *s)
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

/**
 * Exact n % d for a fixed d >= 1 with no division per call. The
 * quotient comes from one high multiply by a rounded-up reciprocal
 * (Granlund and Montgomery's method, in the form of libdivide's
 * unsigned 64-bit divider, including its 65-bit "add" case), and the
 * remainder is n - q * d; powers of two are a mask.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(uint64_t d)
        : d_(d), shift_(63 - __builtin_clzll(d))
    {
        if ((d & (d - 1)) == 0)
            return;  // power of two: mod() masks
        // proposed = 2^(64 + shift) / d, which fits in 64 bits
        // because d > 2^shift.
        using U128 = unsigned __int128;
        const U128 numerator = static_cast<U128>(1) << (64 + shift_);
        uint64_t proposed = static_cast<uint64_t>(numerator / d);
        const uint64_t rem = static_cast<uint64_t>(numerator % d);
        if (d - rem >= (static_cast<uint64_t>(1) << shift_)) {
            // 2^(64 + shift) is not precise enough: use the next
            // power, whose extra bit the add step in mod() supplies.
            proposed += proposed;
            const uint64_t twice_rem = rem + rem;
            if (twice_rem >= d || twice_rem < rem)
                proposed += 1;
            add_ = true;
        }
        magic_ = proposed + 1;
    }

    uint64_t
    mod(uint64_t n) const
    {
        if (magic_ == 0)
            return n & (d_ - 1);
        uint64_t q = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(magic_) * n) >> 64);
        if (add_)
            q = ((n - q) >> 1) + q;
        return n - (q >> shift_) * d_;
    }

  private:
    uint64_t d_;
    int shift_;
    uint64_t magic_ = 0;
    bool add_ = false;
};

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    return step(s_);
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    TG_ASSERT(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    TG_ASSERT(lo <= hi);
    // Unsigned arithmetic throughout: the full int64 range has span
    // 2^64, which wraps to 0, and signed hi - lo would overflow.
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                (span == 0 ? next() : nextBelow(span)));
}

void
Rng::fillRange(int64_t *out, size_t n, int64_t lo, int64_t hi)
{
    TG_ASSERT(lo <= hi);
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    // Unsigned, as in nextRange. The state lives in locals for the
    // loop, so the compiler keeps it in registers instead of storing
    // it back every draw.
    uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    const uint64_t base = static_cast<uint64_t>(lo);
    if (span == 0) {
        for (size_t i = 0; i < n; ++i)
            out[i] = static_cast<int64_t>(base + step(s));
    } else {
        // nextBelow(span) per element, with its rejection threshold
        // and divisor prepared once.
        const uint64_t threshold = -span % span;
        const FixedDivisor divisor(span);
        for (size_t i = 0; i < n; ++i) {
            uint64_t r = step(s);
            while (r < threshold)
                r = step(s);
            out[i] = static_cast<int64_t>(base + divisor.mod(r));
        }
    }
    for (int k = 0; k < 4; ++k)
        s_[k] = s[k];
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    TG_ASSERT(!weights.empty());
    double total = 0.0;
    for (double w : weights) {
        TG_ASSERT(w >= 0.0);
        total += w;
    }
    TG_ASSERT(total > 0.0);
    double pick = nextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace treegion::support
