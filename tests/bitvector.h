/**
 * @file
 * Dense, fixed-size bit vector for the test-only dataflow oracles.
 *
 * The library's liveness keeps flat per-block word arrays
 * (analysis/liveness.h); this is the set type the original hash-map
 * liveness used, kept so tests/reference_oracle_test.cc can run that
 * implementation unchanged as the reference. std::vector<bool> is
 * avoided on purpose (proxy reference pitfalls, no word-level
 * operations); the bulk set operations report whether the receiver
 * changed, which drives the fixpoint loops.
 */

#ifndef TREEGION_TESTS_BITVECTOR_H
#define TREEGION_TESTS_BITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/logging.h"

namespace tg_test {

/** A dense bit vector with word-at-a-time set operations. */
class BitVector
{
  public:
    /** Construct with @p size bits, all clear. */
    explicit BitVector(size_t size = 0) { resize(size); }

    /** @return the number of bits. */
    size_t size() const { return size_; }

    /** Resize to @p size bits; all bits are cleared. */
    void
    resize(size_t size)
    {
        size_ = size;
        words_.assign((size + 63) / 64, 0);
    }

    void
    set(size_t idx)
    {
        TG_ASSERT(idx < size_);
        words_[idx / 64] |= uint64_t{1} << (idx % 64);
    }

    void
    reset(size_t idx)
    {
        TG_ASSERT(idx < size_);
        words_[idx / 64] &= ~(uint64_t{1} << (idx % 64));
    }

    bool
    test(size_t idx) const
    {
        TG_ASSERT(idx < size_);
        return (words_[idx / 64] >> (idx % 64)) & 1;
    }

    void
    setAll()
    {
        for (auto &w : words_)
            w = ~uint64_t{0};
        // Clear bits beyond size_ in the final word.
        if (size_ % 64 != 0 && !words_.empty())
            words_.back() &= (uint64_t{1} << (size_ % 64)) - 1;
    }

    size_t
    count() const
    {
        size_t n = 0;
        for (const uint64_t w : words_)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

    bool none() const { return count() == 0; }

    /** OR @p other into this. @return true if any bit changed. */
    bool
    unionWith(const BitVector &other)
    {
        return combine(other, [](uint64_t a, uint64_t b) { return a | b; });
    }

    /** AND @p other into this. @return true if any bit changed. */
    bool
    intersectWith(const BitVector &other)
    {
        return combine(other, [](uint64_t a, uint64_t b) { return a & b; });
    }

    /** Clear every bit set in @p other. @return true if changed. */
    bool
    subtract(const BitVector &other)
    {
        return combine(other,
                       [](uint64_t a, uint64_t b) { return a & ~b; });
    }

    bool
    operator==(const BitVector &other) const
    {
        return size_ == other.size_ && words_ == other.words_;
    }

    /** @return the set bit indices, ascending. */
    std::vector<size_t>
    toIndices() const
    {
        std::vector<size_t> out;
        for (size_t w = 0; w < words_.size(); ++w) {
            for (uint64_t word = words_[w]; word; word &= word - 1)
                out.push_back(w * 64 +
                              static_cast<size_t>(__builtin_ctzll(word)));
        }
        return out;
    }

  private:
    template <typename Op>
    bool
    combine(const BitVector &other, Op op)
    {
        TG_ASSERT(size_ == other.size_);
        bool changed = false;
        for (size_t i = 0; i < words_.size(); ++i) {
            const uint64_t merged = op(words_[i], other.words_[i]);
            changed |= merged != words_[i];
            words_[i] = merged;
        }
        return changed;
    }

    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace tg_test

#endif // TREEGION_TESTS_BITVECTOR_H
