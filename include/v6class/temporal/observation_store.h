// observation_store.h — per-address day bitmaps for streaming temporal
// analysis.
//
// daily_series + stability_analyzer answer windowed queries by merging
// sorted day sets; that is ideal when the question is "classify this
// reference day". An ongoing census (Section 5.1 "we wish to perform
// stability analysis on an ongoing basis") instead wants per-address
// lifetime state that is cheap to update as each day's log arrives. This
// store keeps, per distinct address, a bitmap of its active days — the
// design DESIGN.md's ablation #3 compares against merge-based analysis —
// and derives lifetime spectra, return gaps, and stability classes from
// it.
//
// Storage is flat: keys live in two SoA u64 lane arrays (matching the
// v6::simd block layout), records in a parallel vector, and membership is
// an open-addressed power-of-two index of u32 slots.  Compared to the
// former unordered_map<address, record> this removes the per-node heap
// allocation and pointer chase that made ingest degrade superlinearly
// once the distinct population outgrew the cache.
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
    void record_day(int day, const simd::address_block& active);

    /// Number of distinct addresses (or prefixes) ever seen.
    std::size_t distinct_count() const noexcept { return recs_.size(); }

    /// Appends the distinct keys (address, or masked prefix base) from
    /// the `from`-th sighting on to `out`'s lanes, in first-sighting
    /// order. Keys past a distinct_count() taken before record_day are
    /// that day's first sightings, in the order of its input.
    void append_keys(simd::address_block& out, std::size_t from) const;

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
    std::vector<record> recs_;
    std::vector<std::uint32_t> index_;  // open-addressed, power-of-two
};

}  // namespace v6
