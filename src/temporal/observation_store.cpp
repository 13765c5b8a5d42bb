#include "v6class/temporal/observation_store.h"

#include <algorithm>
#include <bit>

#include "v6class/obs/timer.h"

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

void observation_store::record::set_bit(unsigned offset) {
    if (offset < 64) {
        inline_bits |= std::uint64_t{1} << offset;
        return;
    }
    const unsigned word = offset / 64 - 1;  // overflow words cover bits 64+
    if (!overflow) overflow = std::make_unique<std::vector<std::uint64_t>>();
    if (overflow->size() <= word) overflow->resize(word + 1, 0);
    (*overflow)[word] |= std::uint64_t{1} << (offset % 64);
}

bool observation_store::record::get_bit(unsigned offset) const noexcept {
    if (offset < 64) return (inline_bits >> offset) & 1;
    const unsigned word = offset / 64 - 1;
    if (!overflow || overflow->size() <= word) return false;
    return ((*overflow)[word] >> (offset % 64)) & 1;
}

void observation_store::record::shift_right(unsigned by) {
    if (by == 0) return;
    // Whole-word shift toward higher offsets. The record is one
    // conceptual little-endian bit array — inline_bits is word 0, the
    // overflow words follow — so moving every observation `by` days
    // later is a word move by by/64 plus a carrying bit shift by by%64.
    // Still the rare path (an earlier day arriving after later ones),
    // but a long backfill is now linear in words, not bits.
    const unsigned ws = by / 64;
    const unsigned bs = by % 64;
    std::vector<std::uint64_t> words;
    words.reserve(1 + (overflow ? overflow->size() : 0));
    words.push_back(inline_bits);
    if (overflow) words.insert(words.end(), overflow->begin(), overflow->end());
    std::vector<std::uint64_t> out(words.size() + ws + (bs != 0 ? 1 : 0), 0);
    for (std::size_t i = 0; i < words.size(); ++i) {
        out[i + ws] |= words[i] << bs;
        if (bs != 0) out[i + ws + 1] |= words[i] >> (64 - bs);
    }
    while (out.size() > 1 && out.back() == 0) out.pop_back();
    inline_bits = out[0];
    if (out.size() > 1) {
        if (!overflow) overflow = std::make_unique<std::vector<std::uint64_t>>();
        overflow->assign(out.begin() + 1, out.end());
    } else if (overflow) {
        overflow->clear();
    }
}

unsigned observation_store::record::popcount() const noexcept {
    unsigned n = static_cast<unsigned>(std::popcount(inline_bits));
    if (overflow)
        for (std::uint64_t word : *overflow)
            n += static_cast<unsigned>(std::popcount(word));
    return n;
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
    if (need > recs_.capacity()) {
        const std::size_t cap = std::max(need, 2 * recs_.capacity());
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

std::uint32_t observation_store::record_one(int day, std::uint64_t hi,
                                            std::uint64_t lo) {
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = hash_pair(hi, lo) & mask;
    std::uint32_t idx;
    for (;;) {
        idx = index_[slot];
        if (idx == kEmptySlot) {
            idx = static_cast<std::uint32_t>(recs_.size());
            index_[slot] = idx;
            key_hi_.push_back(hi);
            key_lo_.push_back(lo);
            record& fresh = recs_.emplace_back();
            fresh.first_day = day;
            fresh.last_day = day;
            fresh.set_bit(0);
            return idx;
        }
        if (key_hi_[idx] == hi && key_lo_[idx] == lo) break;
        slot = (slot + 1) & mask;
    }
    record& r = recs_[idx];
    if (day < r.first_day) {
        r.shift_right(static_cast<unsigned>(r.first_day - day));
        r.first_day = day;
        r.set_bit(0);
    } else {
        r.set_bit(static_cast<unsigned>(day - r.first_day));
    }
    r.last_day = std::max(r.last_day, day);
    return idx;
}

void observation_store::record_day(int day, const std::vector<address>& active) {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_record_day_seconds", obs::latency_buckets(), {},
        "Time to fold one day of active addresses into the lifetime store.");
    const obs::trace_scope span("record_day", phase);
    reserve_for(active.size());
    for (const address& a : active) {
        std::uint64_t hi = a.hi(), lo = a.lo();
        mask_pair(hi, lo, prefix_length_);
        record_one(day, hi, lo);
    }
}

void observation_store::record_day(int day, const simd::address_block& active,
                                    std::vector<std::uint32_t>* slots) {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_record_day_seconds", obs::latency_buckets(), {},
        "Time to fold one day of active addresses into the lifetime store.");
    const obs::trace_scope span("record_day", phase);
    reserve_for(active.size());
    const std::uint64_t* his = active.hi();
    const std::uint64_t* los = active.lo();
    if (slots) slots->reserve(slots->size() + active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
        std::uint64_t hi = his[i], lo = los[i];
        mask_pair(hi, lo, prefix_length_);
        const std::uint32_t slot = record_one(day, hi, lo);
        if (slots) slots->push_back(slot);
    }
}

void observation_store::append_keys(simd::address_block& out,
                                    std::size_t from) const {
    out.reserve(out.size() + key_hi_.size() - std::min(from, key_hi_.size()));
    for (std::size_t i = from; i < key_hi_.size(); ++i)
        out.push_back(key_hi_[i], key_lo_[i]);
}

bool observation_store::active_on(std::uint32_t slot, int day) const noexcept {
    const record& r = recs_[slot];
    return day >= r.first_day && day <= r.last_day &&
           r.get_bit(static_cast<unsigned>(day - r.first_day));
}

std::optional<std::pair<int, int>> observation_store::window(
    std::uint32_t slot, int lo, int hi) const noexcept {
    const record& r = recs_[slot];
    // Clipped to the record's own span, the window's words all exist:
    // last_day's bit is set, so the bitmap reaches its word.
    lo = std::max(lo, r.first_day);
    hi = std::min(hi, r.last_day);
    if (lo > hi) return std::nullopt;
    const auto a = static_cast<unsigned>(lo - r.first_day);
    const auto b = static_cast<unsigned>(hi - r.first_day);
    // Word w of the bitmap with the bits outside offsets [a, b] cleared.
    const auto word = [&](unsigned w) {
        std::uint64_t bits = w == 0 ? r.inline_bits : (*r.overflow)[w - 1];
        if (w == a / 64) bits &= ~0ull << (a % 64);
        if (w == b / 64) bits &= ~0ull >> (63 - b % 64);
        return bits;
    };
    if (b < 64) {  // the common case: the window lies in word 0
        const std::uint64_t bits = word(0);
        if (bits == 0) return std::nullopt;
        return std::make_pair(r.first_day + std::countr_zero(bits),
                              r.first_day + 63 - std::countl_zero(bits));
    }
    unsigned first = a / 64;
    while (first <= b / 64 && word(first) == 0) ++first;
    if (first > b / 64) return std::nullopt;
    unsigned last = b / 64;
    while (word(last) == 0) --last;
    return std::make_pair(
        r.first_day + static_cast<int>(first * 64) + std::countr_zero(word(first)),
        r.first_day + static_cast<int>(last * 64) + 63 - std::countl_zero(word(last)));
}

unsigned observation_store::days_seen(const address& a) const noexcept {
    std::uint64_t hi = a.hi(), lo = a.lo();
    mask_pair(hi, lo, prefix_length_);
    const std::uint32_t idx = lookup(hi, lo);
    return idx == kEmptySlot ? 0 : recs_[idx].popcount();
}

std::optional<std::pair<int, int>> observation_store::first_last(
    const address& a) const noexcept {
    std::uint64_t hi = a.hi(), lo = a.lo();
    mask_pair(hi, lo, prefix_length_);
    const std::uint32_t idx = lookup(hi, lo);
    if (idx == kEmptySlot) return std::nullopt;
    return std::make_pair(recs_[idx].first_day, recs_[idx].last_day);
}

bool observation_store::is_stable(const address& a, unsigned n) const noexcept {
    const auto fl = first_last(a);
    return fl && fl->second - fl->first >= static_cast<int>(n);
}

std::vector<address> observation_store::stable_addresses(unsigned n) const {
    std::vector<address> out;
    for (std::size_t i = 0; i < recs_.size(); ++i)
        if (recs_[i].last_day - recs_[i].first_day >= static_cast<int>(n))
            out.push_back(address::from_pair(key_hi_[i], key_lo_[i]));
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::uint64_t> observation_store::stability_spectrum(
    unsigned max_n) const {
    std::vector<std::uint64_t> span_hist(max_n + 1, 0);
    for (const record& rec : recs_) {
        const unsigned span = static_cast<unsigned>(rec.last_day - rec.first_day);
        ++span_hist[std::min(span, max_n)];
    }
    // Suffix-sum: spectrum[n] = addresses with span >= n.
    std::vector<std::uint64_t> spectrum(max_n + 1, 0);
    std::uint64_t running = 0;
    for (unsigned n = max_n + 1; n-- > 0;) {
        running += span_hist[n];
        spectrum[n] = running;
    }
    return spectrum;
}

std::vector<std::uint64_t> observation_store::gap_histogram(unsigned max_gap) const {
    std::vector<std::uint64_t> hist(max_gap + 1, 0);
    for (const record& rec : recs_) {
        const unsigned top =
            64 + (rec.overflow ? static_cast<unsigned>(rec.overflow->size()) * 64 : 0);
        int prev = -1;
        for (unsigned i = 0; i < top; ++i) {
            if (!rec.get_bit(i)) continue;
            if (prev >= 0) {
                const unsigned gap = i - static_cast<unsigned>(prev);
                ++hist[std::min(gap, max_gap)];
            }
            prev = static_cast<int>(i);
        }
    }
    return hist;
}

}  // namespace v6
