// lane.h — one growable lane of trivially copyable values for state that
// only grows: a stream shard's sorted run and its day records.
//
// A std::vector doubling a multi-GB array copies every element into
// freshly faulted pages while the old copy is still resident: on a
// year-long stream that is a seal that takes several times its
// neighbours, and a transient 2x of the array in RSS. A lane lives in
// its own anonymous mapping instead and grows with mremap(2), which
// moves page tables and copies nothing; capacity it has not written
// yet is not resident. (Without mremap, and under the sanitizers,
// growth falls back to realloc.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace v6::simd {

namespace detail {
/// Grows the mapping at `p` (nullptr: none yet) from `old_bytes` to at
/// least `new_bytes`, keeping its contents; returns the mapping and
/// stores its size in `new_bytes`. Throws std::bad_alloc on failure.
void* grow_mapping(void* p, std::size_t old_bytes, std::size_t& new_bytes);
void free_mapping(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <class T>
class lane {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    lane() = default;
    lane(const lane&) = delete;
    lane& operator=(const lane&) = delete;
    ~lane() { detail::free_mapping(data_, bytes_); }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t capacity() const noexcept { return bytes_ / sizeof(T); }

    T* data() noexcept { return data_; }
    const T* data() const noexcept { return data_; }
    T& operator[](std::size_t i) noexcept { return data_[i]; }
    const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    const T* begin() const noexcept { return data_; }
    const T* end() const noexcept { return data_ + size_; }

    /// Room for `n` values; capacity at least doubles when it grows.
    void reserve(std::size_t n) {
        if (n <= capacity()) return;
        std::size_t bytes = std::max(n, 2 * capacity()) * sizeof(T);
        data_ = static_cast<T*>(detail::grow_mapping(data_, bytes_, bytes));
        bytes_ = bytes;
    }
    void push_back(const T& v) {
        if (size_ == capacity()) reserve(size_ + 1);
        data_[size_++] = v;
    }
    /// New values are value-initialised (zero).
    void resize(std::size_t n) {
        reserve(n);
        if (n > size_) std::fill(data_ + size_, data_ + n, T{});
        size_ = n;
    }

private:
    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t bytes_ = 0;
};

}  // namespace v6::simd
