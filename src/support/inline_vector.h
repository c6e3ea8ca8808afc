/**
 * @file
 * Vectors with in-place storage for the IR's operand lists.
 *
 * InlineVector<T, N> holds at most N elements in place: no heap
 * pointer, no branch on access, and copying it never allocates.
 * Filling it past N is an internal error (TG_ASSERT), so code that
 * takes a count from input bytes checks it first. SmallVector<T, N>
 * keeps N elements in place and moves them all to the heap when one
 * more is pushed; copying it allocates only once it has spilled.
 */

#ifndef TREEGION_SUPPORT_INLINE_VECTOR_H
#define TREEGION_SUPPORT_INLINE_VECTOR_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <utility>

#include "support/logging.h"

namespace treegion::support {

/** The container API both share, from data() and size() (CRTP). */
template <typename Derived, typename T>
class VectorBase
{
  public:
    using iterator = T *;
    using const_iterator = const T *;

    bool empty() const { return self().size() == 0; }
    T *begin() { return self().data(); }
    T *end() { return begin() + self().size(); }
    const T *begin() const { return self().data(); }
    const T *end() const { return begin() + self().size(); }
    auto rbegin() const { return std::reverse_iterator(end()); }
    auto rend() const { return std::reverse_iterator(begin()); }
    T &operator[](size_t i) { return begin()[i]; }
    const T &operator[](size_t i) const { return begin()[i]; }
    const T &front() const { return *begin(); }
    const T &back() const { return end()[-1]; }

    friend bool
    operator==(const Derived &a, const Derived &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
    const Derived &self() const { return static_cast<const Derived &>(*this); }
};

/** At most @p N elements, in place; see the file comment. */
template <typename T, size_t N>
class InlineVector : public VectorBase<InlineVector<T, N>, T>
{
    static_assert(N < 256, "the size is kept in one byte");

  public:
    InlineVector() = default;
    InlineVector(std::initializer_list<T> init)
        : size_(static_cast<uint8_t>(init.size()))
    {
        TG_ASSERT(init.size() <= N);
        std::copy(init.begin(), init.end(), items_);
    }

    size_t size() const { return size_; }
    T *data() { return items_; }
    const T *data() const { return items_; }

    void
    push_back(const T &value)
    {
        TG_ASSERT(size_ < N);
        items_[size_++] = value;
    }

  private:
    T items_[N] = {};
    uint8_t size_ = 0;
};

/** @p N elements in place, the heap beyond; see the file comment. */
template <typename T, size_t N>
class SmallVector : public VectorBase<SmallVector<T, N>, T>
{
    static_assert(N > 0 && std::is_trivially_copyable_v<T>);

  public:
    SmallVector() = default;
    SmallVector(std::initializer_list<T> l) { append(l.begin(), l.size()); }
    SmallVector(const SmallVector &o) { append(o.data(), o.size()); }
    SmallVector(SmallVector &&other) noexcept { swap(other); }
    ~SmallVector() { delete[] heap_; }

    /** Copy or move assignment (by copy-and-swap). */
    SmallVector &
    operator=(SmallVector other) noexcept
    {
        swap(other);
        return *this;
    }

    size_t size() const { return size_; }
    T *data() { return heap_ ? heap_ : items_; }
    const T *data() const { return heap_ ? heap_ : items_; }
    void push_back(T value) { append(&value, 1); }

  private:
    /** Append @p n elements from @p first, which is not in here. */
    void
    append(const T *first, size_t n)
    {
        const size_t cap = heap_ ? cap_ : N;
        if (size_ + n > cap) {
            const size_t grown = std::max(size_ + n, 2 * cap);
            T *heap = new T[grown];
            std::copy(this->begin(), this->end(), heap);
            delete[] heap_;
            heap_ = heap;
            cap_ = static_cast<uint32_t>(grown);
        }
        std::copy(first, first + n, data() + size_);
        size_ += static_cast<uint32_t>(n);
    }

    void
    swap(SmallVector &other) noexcept
    {
        std::swap(items_, other.items_);
        std::swap(heap_, other.heap_);
        std::swap(size_, other.size_);
        std::swap(cap_, other.cap_);
    }

    T items_[N] = {};
    T *heap_ = nullptr;  ///< every element once spilled
    uint32_t size_ = 0;
    uint32_t cap_ = 0;   ///< heap_ capacity
};

} // namespace treegion::support

#endif // TREEGION_SUPPORT_INLINE_VECTOR_H
