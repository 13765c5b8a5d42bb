#include "v6class/temporal/observation_store.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "v6class/obs/trace.h"

namespace v6 {

namespace {

// Same bit semantics as address::masked(len), on the lane representation.
inline void mask_pair(std::uint64_t& hi, std::uint64_t& lo,
                      unsigned len) noexcept {
    if (len >= 128) return;
    if (len >= 64) {
        lo = (len == 64) ? 0 : (lo & (~0ull << (128 - len)));
    } else {
        hi = (len == 0) ? 0 : (hi & (~0ull << (64 - len)));
        lo = 0;
    }
}

inline std::uint64_t hash_pair(std::uint64_t hi, std::uint64_t lo) noexcept {
    std::uint64_t h = hi ^ (lo + 0x9e3779b97f4a7c15ull + (hi << 6) + (hi >> 2));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

}  // namespace

void day_records::grow(record& r, std::uint32_t len) {
    const std::uint32_t cur = extra_words(r);
    if (len <= cur) return;
    if (r.extra != 0 && std::bit_ceil(len) == std::bit_ceil(cur)) {
        pool_[r.extra] = len;  // the block has room; its spare words are 0
        return;
    }
    if (pool_.empty()) pool_.push_back(0);  // the placeholder
    const std::size_t at = pool_.size();
    if (at + 1 + std::bit_ceil(len) > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("day_records: word pool exceeds 2^32 words");
    pool_.resize(at + 1 + std::bit_ceil(len));
    pool_[at] = len;
    std::copy_n(pool_.data() + r.extra + 1, cur, pool_.data() + at + 1);
    r.extra = static_cast<std::uint32_t>(at);
}

void day_records::set_bit(record& r, unsigned offset) {
    if (offset < 64) {
        r.bits |= std::uint64_t{1} << offset;
        return;
    }
    grow(r, offset / 64);
    pool_[r.extra + offset / 64] |= std::uint64_t{1} << (offset % 64);
}

void day_records::shift_up(record& r, unsigned by) {
    // The record is one little-endian bit array — word 0 inline, the
    // pool words after it — so moving every day `by` bits later is a
    // word move by by/64 plus a carrying bit shift by by%64, done in
    // place from the top word down. The carry out of the top word only
    // gets a word when it is non-zero, which keeps the top word non-zero.
    const unsigned ws = by / 64;
    const unsigned bs = by % 64;
    const unsigned n = 1 + extra_words(r);
    const bool carry = bs != 0 && (word(r, n - 1) >> (64 - bs)) != 0;
    grow(r, n - 1 + ws + (carry ? 1 : 0));  // new words are zero
    const auto at = [&](unsigned w) -> std::uint64_t& {
        return w == 0 ? r.bits : pool_[r.extra + w];
    };
    for (unsigned i = extra_words(r) + 1; i-- > 0;) {
        std::uint64_t v = 0;
        if (i >= ws) {
            v = at(i - ws) << bs;
            if (bs != 0 && i > ws) v |= at(i - ws - 1) >> (64 - bs);
        }
        at(i) = v;
    }
}

void day_records::mark(std::uint32_t slot, int day) {
    record& r = recs_[slot];
    if (day < r.first_day) {
        shift_up(r, static_cast<unsigned>(r.first_day - day));
        r.first_day = day;
        r.bits |= 1;
    } else {
        set_bit(r, static_cast<unsigned>(day - r.first_day));
    }
}

void day_records::fold(int day, const std::vector<std::uint32_t>& slots) {
    // Slots come in key order, so the records they touch are scattered:
    // prefetch a few ahead of the one being marked.
    constexpr std::size_t kAhead = 8;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (i + kAhead < slots.size() && slots[i + kAhead] < recs_.size())
            __builtin_prefetch(&recs_[slots[i + kAhead]], 1);
        if (slots[i] == recs_.size())
            add(day);
        else
            mark(slots[i], day);
    }
}

int day_records::last_day(std::uint32_t slot) const noexcept {
    const record& r = recs_[slot];
    const std::uint32_t n = extra_words(r);
    return r.first_day + static_cast<int>(64 * n) + 63 -
           std::countl_zero(word(r, n));
}

bool day_records::active_on(std::uint32_t slot, int day) const noexcept {
    const record& r = recs_[slot];
    if (day < r.first_day) return false;
    const auto offset = static_cast<unsigned>(day - r.first_day);
    if (offset / 64 > extra_words(r)) return false;
    return (word(r, offset / 64) >> (offset % 64)) & 1;
}

std::optional<std::pair<int, int>> day_records::window(std::uint32_t slot, int lo,
                                                       int hi) const noexcept {
    const record& r = recs_[slot];
    // Clipped to the record's own span, the window's words all exist.
    lo = std::max(lo, r.first_day);
    hi = std::min(hi, last_day(slot));
    if (lo > hi) return std::nullopt;
    const auto a = static_cast<unsigned>(lo - r.first_day);
    const auto b = static_cast<unsigned>(hi - r.first_day);
    // Word w of the bitmap with the bits outside offsets [a, b] cleared.
    const auto masked = [&](unsigned w) {
        std::uint64_t bits = word(r, w);
        if (w == a / 64) bits &= ~0ull << (a % 64);
        if (w == b / 64) bits &= ~0ull >> (63 - b % 64);
        return bits;
    };
    if (b < 64) {  // the common case: the window lies in word 0
        const std::uint64_t bits = masked(0);
        if (bits == 0) return std::nullopt;
        return std::make_pair(r.first_day + std::countr_zero(bits),
                              r.first_day + 63 - std::countl_zero(bits));
    }
    unsigned first = a / 64;
    while (first <= b / 64 && masked(first) == 0) ++first;
    if (first > b / 64) return std::nullopt;
    unsigned last = b / 64;
    while (masked(last) == 0) --last;
    return std::make_pair(
        r.first_day + static_cast<int>(first * 64) + std::countr_zero(masked(first)),
        r.first_day + static_cast<int>(last * 64) + 63 - std::countl_zero(masked(last)));
}

unsigned day_records::days(std::uint32_t slot) const noexcept {
    const record& r = recs_[slot];
    unsigned n = 0;
    for (unsigned w = 0; w <= extra_words(r); ++w)
        n += static_cast<unsigned>(std::popcount(word(r, w)));
    return n;
}

std::vector<std::uint64_t> day_records::stability_spectrum(unsigned max_n) const {
    std::vector<std::uint64_t> span_hist(max_n + 1, 0);
    for (std::uint32_t slot = 0; slot < recs_.size(); ++slot) {
        const auto span = static_cast<unsigned>(last_day(slot) - first_day(slot));
        ++span_hist[std::min(span, max_n)];
    }
    // Suffix-sum: spectrum[n] = records with span >= n.
    std::vector<std::uint64_t> spectrum(max_n + 1, 0);
    std::uint64_t running = 0;
    for (unsigned n = max_n + 1; n-- > 0;) {
        running += span_hist[n];
        spectrum[n] = running;
    }
    return spectrum;
}

std::vector<std::uint64_t> day_records::gap_histogram(unsigned max_gap) const {
    std::vector<std::uint64_t> hist(max_gap + 1, 0);
    for (const record& r : recs_) {
        std::int64_t prev = -1;
        for (unsigned w = 0; w <= extra_words(r); ++w)
            for (std::uint64_t bits = word(r, w); bits != 0; bits &= bits - 1) {
                const std::int64_t at = std::int64_t{64} * w + std::countr_zero(bits);
                if (prev >= 0)
                    ++hist[static_cast<std::size_t>(
                        std::min<std::int64_t>(at - prev, max_gap))];
                prev = at;
            }
    }
    return hist;
}

std::uint32_t observation_store::lookup(std::uint64_t hi,
                                        std::uint64_t lo) const noexcept {
    if (index_.empty()) return kEmptySlot;
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = hash_pair(hi, lo) & mask;
    for (;;) {
        const std::uint32_t idx = index_[slot];
        if (idx == kEmptySlot) return kEmptySlot;
        if (key_hi_[idx] == hi && key_lo_[idx] == lo) return idx;
        slot = (slot + 1) & mask;
    }
}

void observation_store::reserve_for(std::size_t additional) {
    const std::size_t need = recs_.size() + additional;
    if (need > key_hi_.capacity()) {
        const std::size_t cap = std::max(need, 2 * key_hi_.capacity());
        key_hi_.reserve(cap);
        key_lo_.reserve(cap);
        recs_.reserve(cap);
    }
    // Keep the probe table under 7/8 load; one rehash up front covers the
    // whole batch.
    if (index_.empty() || need * 8 >= index_.size() * 7) {
        std::size_t cap = std::bit_ceil(std::max<std::size_t>(1024, need * 2));
        std::vector<std::uint32_t> fresh(cap, kEmptySlot);
        const std::size_t mask = cap - 1;
        for (std::uint32_t idx = 0; idx < recs_.size(); ++idx) {
            std::size_t slot = hash_pair(key_hi_[idx], key_lo_[idx]) & mask;
            while (fresh[slot] != kEmptySlot) slot = (slot + 1) & mask;
            fresh[slot] = idx;
        }
        index_ = std::move(fresh);
    }
}

void observation_store::record_one(int day, std::uint64_t hi, std::uint64_t lo) {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = hash_pair(hi, lo) & mask;
    for (;;) {
        const std::uint32_t idx = index_[slot];
        if (idx == kEmptySlot) {
            index_[slot] = recs_.add(day);
            key_hi_.push_back(hi);
            key_lo_.push_back(lo);
            return;
        }
        if (key_hi_[idx] == hi && key_lo_[idx] == lo) {
            recs_.mark(idx, day);
            return;
        }
        slot = (slot + 1) & mask;
    }
}

void observation_store::record_day(int day, const std::vector<address>& active) {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_record_day_seconds", obs::latency_buckets(), {},
        "Time to fold one day of active addresses into the lifetime store.");
    const obs::span span("record_day", phase);
    reserve_for(active.size());
    for (const address& a : active) {
        std::uint64_t hi = a.hi(), lo = a.lo();
        mask_pair(hi, lo, prefix_length_);
        record_one(day, hi, lo);
    }
}

void observation_store::record_day(int day, const simd::address_block& active) {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_record_day_seconds", obs::latency_buckets(), {},
        "Time to fold one day of active addresses into the lifetime store.");
    const obs::span span("record_day", phase);
    reserve_for(active.size());
    const std::uint64_t* his = active.hi();
    const std::uint64_t* los = active.lo();
    for (std::size_t i = 0; i < active.size(); ++i) {
        std::uint64_t hi = his[i], lo = los[i];
        mask_pair(hi, lo, prefix_length_);
        record_one(day, hi, lo);
    }
}

unsigned observation_store::days_seen(const address& a) const noexcept {
    std::uint64_t hi = a.hi(), lo = a.lo();
    mask_pair(hi, lo, prefix_length_);
    const std::uint32_t idx = lookup(hi, lo);
    return idx == kEmptySlot ? 0 : recs_.days(idx);
}

std::optional<std::pair<int, int>> observation_store::first_last(
    const address& a) const noexcept {
    std::uint64_t hi = a.hi(), lo = a.lo();
    mask_pair(hi, lo, prefix_length_);
    const std::uint32_t idx = lookup(hi, lo);
    if (idx == kEmptySlot) return std::nullopt;
    return std::make_pair(recs_.first_day(idx), recs_.last_day(idx));
}

bool observation_store::is_stable(const address& a, unsigned n) const noexcept {
    const auto fl = first_last(a);
    return fl && fl->second - fl->first >= static_cast<int>(n);
}

std::vector<address> observation_store::stable_addresses(unsigned n) const {
    std::vector<address> out;
    for (std::uint32_t i = 0; i < recs_.size(); ++i)
        if (recs_.last_day(i) - recs_.first_day(i) >= static_cast<int>(n))
            out.push_back(address::from_pair(key_hi_[i], key_lo_[i]));
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace v6
