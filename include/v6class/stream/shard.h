// shard.h — one shard of the streaming ingest engine's state.
//
// The engine hashes each record's /64 prefix into a shard; a shard
// therefore owns a disjoint set of /64s — and with them every address
// and every /p prefix (p >= 64) inside them. That makes each shard's
// answers exactly mergeable by summing: distinct counts, stability and
// lifetime spectra per address, distinct /64s, the density counts of
// classes n@/p with p >= 64, and the MRA splits at depths >= 64 (two
// neighbours of the global sorted order inside one /64 are neighbours
// in that /64's shard). Only what straddles /64s is engine-level: the
// splits above /64 and density classes with p < 64.
//
// State is SoA end to end: the open day stages as address_block lanes;
// the flat /128 observation store — one day bitmap per address — is the
// shard's only temporal state and its only hashed copy of the distinct
// set; and the sorted run holds the same set in address order with its
// running MRA and density summaries. The windowed split reads the
// bitmaps of the reference day's addresses, found through a ring of the
// last window_fwd + 1 days' store slots. The day's new /64s fall out of
// the run merge (a new key whose /64 neither old neighbour shares); the
// shard keeps only their count.
//
// Concurrency contract (enforced by stream_engine, not by this class):
// `buffer` is called only by the shard's worker thread; `seal_day` and
// all sealed-state readers are serialized by the engine's epoch
// machinery (the engine seals its shards concurrently, one task each).
// Nothing here locks.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "v6class/simd/address_block.h"
#include "v6class/spatial/density.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/window.h"

namespace v6 {

/// The prefix length the engine shards by: every /p with p >= this
/// lies inside one shard.
inline constexpr unsigned kShardPrefixLength = 64;

/// A Table-3 density class n@/p, as (n, p).
using density_class = std::pair<std::uint64_t, unsigned>;

/// A sorted run of distinct keys (addresses, or prefix bases) plus the
/// summaries each merge keeps current in O(new keys): the histogram of
/// common prefix lengths between run neighbours (cpl_hist()[c] pairs of
/// cpl c — the MRA split histogram of compute_mra_from_histogram) and,
/// per density class, the dense-prefix and covered-key counts.
class sorted_run {
public:
    explicit sorted_run(std::vector<density_class> classes = {})
        : classes_(std::move(classes)), counts_(classes_.size()) {}

    /// Folds `fresh` — sorted keys, disjoint from the run — into the run
    /// and its summaries: one galloping sweep finds each key's insertion
    /// point and updates the histogram and counts, then the run is
    /// merged from the back, in place. With `new_prefixes`, the sweep
    /// also appends the /64 base of every fresh key whose /64 the run
    /// did not hold before, once each, sorted.
    void merge(const simd::address_block& fresh,
               simd::address_block* new_prefixes = nullptr);

    const simd::address_block& keys() const noexcept { return keys_; }
    const std::array<std::uint64_t, 129>& cpl_hist() const noexcept { return hist_; }
    /// counts()[i] belongs to the constructor's classes[i].
    const std::vector<density_count>& counts() const noexcept { return counts_; }

private:
    std::vector<density_class> classes_;
    simd::address_block keys_{0};
    std::array<std::uint64_t, 129> hist_{};
    std::vector<density_count> counts_;
};

class stream_shard {
public:
    /// `classes`: the density classes whose counts this shard keeps —
    /// the engine passes its configured classes with p >= 64. `window`:
    /// the daily split's window, which sizes the ring of recent days.
    stream_shard(std::vector<density_class> classes, stability_options window);

    /// Stages one batch of the in-progress day's addresses. Sealed
    /// state is not touched until seal_day.
    void buffer(const simd::address_block& batch) { pending_.append(batch); }

    /// Seals `day`: sorts and dedupes everything staged since the last
    /// seal in place, folds it into the observation store (keeping the
    /// day's store slots in the ring) and its first sightings into the
    /// sorted run. Staged lanes all belong to `day` (the engine
    /// broadcasts a seal marker before any newer-day record is
    /// enqueued), and days seal in increasing order; the engine seals
    /// every shard every day, staged lanes or not.
    void seal_day(int day);

    // ----- sealed-state queries (epoch-consistent under the engine) ----

    std::size_t distinct_addresses() const noexcept { return store_.distinct_count(); }
    std::size_t distinct_prefixes() const noexcept { return prefixes_; }

    const observation_store& store() const noexcept { return store_; }
    /// The shard's distinct addresses in order, with their summaries.
    const sorted_run& run() const noexcept { return run_; }
    /// The /64 bases the last seal saw first, sorted (their lo lanes 0).
    const simd::address_block& fresh_prefixes() const noexcept { return fresh64_; }

    /// This shard's slice of the windowed nd-stable split for `ref_day`,
    /// in address order.
    stability_split classify_day(int ref_day, unsigned n) const;

    /// The same split, counted: (stable, not stable).
    std::pair<std::uint64_t, std::uint64_t> count_day(int ref_day, unsigned n) const;

    /// This shard's slice of the lifetime spectrum (span >= n).
    std::vector<std::uint64_t> spectrum(unsigned max_n) const {
        return store_.stability_spectrum(max_n);
    }

private:
    /// Calls visit(slot, stable) for every address active on `ref_day`,
    /// in address order.
    template <class Visit>
    void classify_slots(int ref_day, unsigned n, Visit&& visit) const;

    /// One sealed day's store slots, in the order of its sorted lanes.
    struct day_slots {
        int day = 0;
        std::vector<std::uint32_t> slots;
    };
    /// True when `day` is no older than the ring keeps: within
    /// window_fwd days of the last seal.
    bool in_ring_range(int day) const noexcept {
        return std::int64_t{day} >= std::int64_t{sealed_} - window_.window_fwd;
    }

    stability_options window_;
    simd::address_block pending_{0};  // staged lanes of the open day

    observation_store store_{128};    // per-address day bitmaps
    // The days in [sealed_ - window_fwd, sealed_] that staged lanes,
    // oldest first (an evicted entry's capacity is reused).
    std::deque<day_slots> ring_;
    int first_day_ = std::numeric_limits<int>::max();  // first day with lanes
    int sealed_ = 0;                                   // the last seal
    sorted_run run_;                  // the distinct /128s, sorted
    simd::address_block fresh64_{0};  // the last seal's new /64 bases
    std::size_t prefixes_ = 0;        // distinct /64s
};

}  // namespace v6
