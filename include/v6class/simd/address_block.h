#pragma once

// Structure-of-arrays address storage for the batch (SIMD) substrate.
//
// An address_block holds up to `capacity()` IPv6 addresses as two
// contiguous u64 lane arrays: hi (bytes 0..7 of the address, host-order)
// and lo (bytes 8..15, host-order).  This matches address::hi()/lo(),
// so (hi, lo) pairs compare in the same order as the byte-lexicographic
// address ordering and round-trip through address::from_pair().
//
// Blocks are the unit of work for the kernels in v6class/simd/kernels.h:
// contiguous lanes let the AVX2 paths load 4 addresses per vector and keep
// the scalar fallback cache-friendly.

#include <cstdint>
#include <cstring>
#include <vector>

#include "v6class/ip/address.h"

namespace v6::simd {

// Load 8 network-order bytes as a host-order u64 (big-endian read).
inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

// Store a host-order u64 as 8 network-order bytes.
inline void store_be64(std::uint64_t v, std::uint8_t* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    std::memcpy(p, &v, 8);
}

class address_block {
public:
    static constexpr std::size_t kDefaultCapacity = 1024;

    explicit address_block(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity) {
        hi_.reserve(capacity_);
        lo_.reserve(capacity_);
    }

    std::size_t size() const noexcept { return hi_.size(); }
    std::size_t capacity() const noexcept { return capacity_; }
    bool empty() const noexcept { return hi_.empty(); }
    bool full() const noexcept { return hi_.size() >= capacity_; }
    void clear() noexcept {
        hi_.clear();
        lo_.clear();
    }

    // Grow the logical size without initialising lanes; kernels that write
    // every lane (e.g. parse_batch) use this to avoid double writes.
    void resize(std::size_t n) {
        if (n > capacity_) capacity_ = n;
        hi_.resize(n);
        lo_.resize(n);
    }

    void reserve(std::size_t n) {
        if (n > capacity_) capacity_ = n;
        hi_.reserve(n);
        lo_.reserve(n);
    }

    void push_back(std::uint64_t hi, std::uint64_t lo) {
        hi_.push_back(hi);
        lo_.push_back(lo);
    }
    void push_back(const address& a) { push_back(a.hi(), a.lo()); }

    void append(const address_block& other) {
        hi_.insert(hi_.end(), other.hi_.begin(), other.hi_.end());
        lo_.insert(lo_.end(), other.lo_.begin(), other.lo_.end());
        if (size() > capacity_) capacity_ = size();
    }

    std::uint64_t* hi() noexcept { return hi_.data(); }
    std::uint64_t* lo() noexcept { return lo_.data(); }
    const std::uint64_t* hi() const noexcept { return hi_.data(); }
    const std::uint64_t* lo() const noexcept { return lo_.data(); }
    std::uint64_t hi_at(std::size_t i) const noexcept { return hi_[i]; }
    std::uint64_t lo_at(std::size_t i) const noexcept { return lo_[i]; }

    address at(std::size_t i) const noexcept {
        return address::from_pair(hi_[i], lo_[i]);
    }

    void assign(const std::vector<address>& addrs) {
        resize(addrs.size());
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            hi_[i] = addrs[i].hi();
            lo_[i] = addrs[i].lo();
        }
    }

    void append_to(std::vector<address>& out) const {
        out.reserve(out.size() + size());
        for (std::size_t i = 0; i < size(); ++i) out.push_back(at(i));
    }

    std::vector<address> to_vector() const {
        std::vector<address> out;
        append_to(out);
        return out;
    }

private:
    std::size_t capacity_;
    std::vector<std::uint64_t> hi_;
    std::vector<std::uint64_t> lo_;
};

// An address_block plus the per-record wire payload (observation day and
// hit count).  The wire decoder fills one of these per datagram; the
// stream engine consumes it in a single lock acquisition.
struct record_block {
    address_block addrs;
    std::vector<std::int32_t> day;
    std::vector<std::uint64_t> hits;

    explicit record_block(std::size_t capacity = address_block::kDefaultCapacity)
        : addrs(capacity) {
        day.reserve(capacity);
        hits.reserve(capacity);
    }

    std::size_t size() const noexcept { return addrs.size(); }
    bool empty() const noexcept { return addrs.empty(); }
    void clear() noexcept {
        addrs.clear();
        day.clear();
        hits.clear();
    }

    void reserve(std::size_t n) {
        addrs.reserve(n);
        day.reserve(n);
        hits.reserve(n);
    }

    void push_back(std::uint64_t hi, std::uint64_t lo, std::int32_t d,
                   std::uint64_t h) {
        addrs.push_back(hi, lo);
        day.push_back(d);
        hits.push_back(h);
    }
};

}  // namespace v6::simd
