// observation_store.h — per-address day bitmaps: the temporal state of
// an ongoing census (Section 5.1 "we wish to perform stability analysis
// on an ongoing basis").
//
// The store keeps, per distinct address, a bitmap of its active days
// (first day, then one bit per day from it on). That is all the paper's
// temporal classes need: lifetime spectra, return gaps, and the
// windowed nd-stable split of any reference day — the earliest and
// latest active day inside the (−back, +fwd) window are one masked read
// of the bitmap (day_records::window()). The batch daily_series +
// stability_analyzer merge sorted day sets instead and stay the oracle.
//
// The bitmaps live in `day_records`, one 16-byte record per key, found
// by slot (the key's index in first-sighting order; records never move
// or go away). A record holds its first day, bitmap word 0 (days
// first_day..first_day+63) and a u32 index into one shared word pool for
// the words past it; its last day is the top set bit. The pool stores
// each record's extra words length-prefixed — [len, w1 .. wlen] — in a
// block of 1 + bit_ceil(len) words; a record whose span outgrows its
// block moves to a fresh block at the pool's end (so a record moves
// O(log words) times, and the abandoned blocks total less than the live
// ones). The top word of a record is never zero, which is what makes the
// last day readable from the bitmap.
//
// Two holders share this record type. `observation_store` adds the keys
// (two SoA u64 lanes matching the v6::simd block layout) behind an
// open-addressed power-of-two index of u32 slots, for the batch tools;
// the stream engine's shards key their day_records by the slot lane of
// their sorted run instead (stream/shard.h), with no hash index.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/simd/address_block.h"
#include "v6class/simd/lane.h"

namespace v6 {

/// Per-key day bitmaps addressed by slot; see the header comment.
class day_records {
public:
    /// Number of records (slots 0 .. size() - 1).
    std::size_t size() const noexcept { return recs_.size(); }

    void reserve(std::size_t n) { recs_.reserve(n); }

    /// Appends a record active on `day` only; returns its slot.
    std::uint32_t add(int day) {
        recs_.push_back({day, 0, 1});
        return static_cast<std::uint32_t>(recs_.size() - 1);
    }

    /// Marks the record in `slot` active on `day`. Days may arrive in
    /// any order; marking a day twice is idempotent.
    void mark(std::uint32_t slot, int day);

    /// Marks every slot of `slots` active on `day`, in order; a slot
    /// equal to size() appends a record instead (the slots a
    /// sorted_run::merge hands out fold straight in).
    void fold(int day, const std::vector<std::uint32_t>& slots);

    int first_day(std::uint32_t slot) const noexcept { return recs_[slot].first_day; }
    int last_day(std::uint32_t slot) const noexcept;

    /// True when the record in `slot` was active on `day`.
    bool active_on(std::uint32_t slot, int day) const noexcept;

    /// Earliest and latest day in [lo, hi] on which the record in `slot`
    /// was active; nullopt when it was active on none of them.
    std::optional<std::pair<int, int>> window(std::uint32_t slot, int lo,
                                              int hi) const noexcept;

    /// Number of active days of the record in `slot`.
    unsigned days(std::uint32_t slot) const noexcept;

    /// spectrum[n] = records whose activity span is >= n, n in 0..max_n.
    std::vector<std::uint64_t> stability_spectrum(unsigned max_n) const;

    /// Gaps between consecutive active days, over every record; gaps
    /// above max_gap land in the last bucket.
    std::vector<std::uint64_t> gap_histogram(unsigned max_gap) const;

private:
    struct record {
        int first_day = 0;
        std::uint32_t extra = 0;  // pool index of [len, words...]; 0: none
        std::uint64_t bits = 0;   // word 0: bit k is first_day + k
    };
    static_assert(sizeof(record) == 16);

    /// Words past word 0 of `r` (0 without a pool block).
    std::uint32_t extra_words(const record& r) const noexcept {
        return r.extra ? static_cast<std::uint32_t>(pool_[r.extra]) : 0;
    }
    /// Bitmap word w of `r`; w must be <= extra_words(r).
    std::uint64_t word(const record& r, unsigned w) const noexcept {
        return w == 0 ? r.bits : pool_[r.extra + w];
    }
    /// Gives `r` at least `len` extra words (new ones zero), moving its
    /// block to the pool's end when it outgrows it.
    void grow(record& r, std::uint32_t len);
    /// Makes room for an earlier first day: every bit moves `by` up.
    void shift_up(record& r, unsigned by);
    void set_bit(record& r, unsigned offset);

    // Both only grow: lanes, so growing never copies them (lane.h).
    simd::lane<record> recs_;
    // Length-prefixed overflow blocks. Index 0 is a placeholder, so a
    // record's `extra` of 0 means it has none.
    simd::lane<std::uint64_t> pool_;
};

class observation_store {
public:
    /// When projecting (e.g. /64 analysis) pass the prefix length; every
    /// recorded address is masked to it first. 128 records full
    /// addresses.
    explicit observation_store(unsigned prefix_length = 128) noexcept
        : prefix_length_(prefix_length) {}

    /// Records one day's active set. Days may arrive in any order;
    /// re-recording the same (day, address) is idempotent.
    void record_day(int day, const std::vector<address>& active);

    /// Block-path overload: same semantics, no address materialisation.
    void record_day(int day, const simd::address_block& active);

    /// Number of distinct addresses (or prefixes) ever seen.
    std::size_t distinct_count() const noexcept { return recs_.size(); }

    /// Days on which `a` was active (0 when never seen).
    unsigned days_seen(const address& a) const noexcept;

    /// First and last active day of `a`, if ever seen.
    std::optional<std::pair<int, int>> first_last(const address& a) const noexcept;

    /// True when `a` is nd-stable over the whole record: its activity
    /// span (last - first) is at least n.
    bool is_stable(const address& a, unsigned n) const noexcept;

    /// All addresses whose span is at least n, sorted.
    std::vector<address> stable_addresses(unsigned n) const;

    /// The lifetime spectrum: spectrum[n] = number of addresses whose
    /// activity span is >= n, for n in 0..max_n. spectrum[0] is the
    /// distinct count; the curve is non-increasing, and the paper's
    /// "nd-stable implies (n-1)d-stable" is its monotonicity.
    std::vector<std::uint64_t> stability_spectrum(unsigned max_n) const {
        return recs_.stability_spectrum(max_n);
    }

    /// Histogram of return gaps: for every pair of *consecutive* active
    /// days of every address, the gap in days (1 = consecutive days).
    /// Gaps above max_gap accumulate in the last bucket. Reveals return
    /// frequency — the paper notes some long-lived EUI-64 clients return
    /// only infrequently.
    std::vector<std::uint64_t> gap_histogram(unsigned max_gap) const {
        return recs_.gap_histogram(max_gap);
    }

private:
    static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

    /// Folds (day, key) into its record.
    void record_one(int day, std::uint64_t hi, std::uint64_t lo);
    std::uint32_t lookup(std::uint64_t hi, std::uint64_t lo) const noexcept;
    /// Batch-reserve: guarantees room for `additional` new records
    /// without further rehashing (one rehash at most, up front). The
    /// key and record arrays grow geometrically, so a stream of days
    /// copies each record O(1) times overall, not once per day.
    void reserve_for(std::size_t additional);

    unsigned prefix_length_;
    std::vector<std::uint64_t> key_hi_;
    std::vector<std::uint64_t> key_lo_;
    day_records recs_;
    std::vector<std::uint32_t> index_;  // open-addressed, power-of-two
};

}  // namespace v6
