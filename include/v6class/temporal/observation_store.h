// observation_store.h — per-address day bitmaps: the temporal state of
// an ongoing census (Section 5.1 "we wish to perform stability analysis
// on an ongoing basis").
//
// The store keeps, per distinct address, a bitmap of its active days
// (first day, last day, one bit per day in between). That is all the
// paper's temporal classes need: lifetime spectra, return gaps, and the
// windowed nd-stable split of any reference day — the earliest and
// latest active day inside the (−back, +fwd) window are one masked read
// of the bitmap (window()). The stream engine's shards hold no other
// temporal state; the batch daily_series + stability_analyzer merge
// sorted day sets instead and stay the oracle.
//
// Storage is flat: keys live in two SoA u64 lane arrays (matching the
// v6::simd block layout), records in a parallel vector, and membership is
// an open-addressed power-of-two index of u32 slots. A key's slot — its
// index in first-sighting order — never changes: records are never moved
// or removed, and a rehash rebuilds only the index. So a caller may keep
// slots (record_day hands them out) and read the record back with no
// hash probe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/simd/address_block.h"

namespace v6 {

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
    /// With `slots`, appends the record slot of each input key, in input
    /// order (repeated keys repeat their slot).
    void record_day(int day, const simd::address_block& active,
                    std::vector<std::uint32_t>* slots = nullptr);

    /// Number of distinct addresses (or prefixes) ever seen.
    std::size_t distinct_count() const noexcept { return recs_.size(); }

    /// Appends the distinct keys (address, or masked prefix base) from
    /// the `from`-th sighting on to `out`'s lanes, in first-sighting
    /// order. Keys past a distinct_count() taken before record_day are
    /// that day's first sightings, in the order of its input.
    void append_keys(simd::address_block& out, std::size_t from) const;

    /// The key (address, or masked prefix base) recorded in `slot`.
    address key(std::uint32_t slot) const noexcept {
        return address::from_pair(key_hi_[slot], key_lo_[slot]);
    }

    /// True when the key in `slot` was active on `day`.
    bool active_on(std::uint32_t slot, int day) const noexcept;

    /// Earliest and latest day in [lo, hi] on which the key in `slot` was
    /// active; nullopt when it was active on none of them.
    std::optional<std::pair<int, int>> window(std::uint32_t slot, int lo,
                                              int hi) const noexcept;

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
    std::vector<std::uint64_t> stability_spectrum(unsigned max_n) const;

    /// Histogram of return gaps: for every pair of *consecutive* active
    /// days of every address, the gap in days (1 = consecutive days).
    /// Gaps above max_gap accumulate in the last bucket. Reveals return
    /// frequency — the paper notes some long-lived EUI-64 clients return
    /// only infrequently.
    std::vector<std::uint64_t> gap_histogram(unsigned max_gap) const;

private:
    struct record {
        int first_day = 0;
        int last_day = 0;
        // Bitmap of active days relative to first_day; bit 0 is
        // first_day itself. Spans beyond 64 days spill into `overflow`
        // (indexed from bit 64 onward). Re-basing when an *earlier* day
        // arrives is handled by shifting.
        std::uint64_t inline_bits = 0;
        std::unique_ptr<std::vector<std::uint64_t>> overflow;

        void set_bit(unsigned offset);
        bool get_bit(unsigned offset) const noexcept;
        void shift_right(unsigned by);  // make room for an earlier first day
        unsigned popcount() const noexcept;
    };

    static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

    /// Folds (day, key) into its record; returns the record's slot.
    std::uint32_t record_one(int day, std::uint64_t hi, std::uint64_t lo);
    std::uint32_t lookup(std::uint64_t hi, std::uint64_t lo) const noexcept;
    /// Batch-reserve: guarantees room for `additional` new records
    /// without further rehashing (one rehash at most, up front). The
    /// key and record arrays grow geometrically, so a stream of days
    /// copies each record O(1) times overall, not once per day.
    void reserve_for(std::size_t additional);

    unsigned prefix_length_;
    std::vector<std::uint64_t> key_hi_;
    std::vector<std::uint64_t> key_lo_;
    std::vector<record> recs_;
    std::vector<std::uint32_t> index_;  // open-addressed, power-of-two
};

}  // namespace v6
