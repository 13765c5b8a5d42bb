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
// State is SoA end to end: the open day stages as address_block lanes,
// the flat /128 observation store is the shard's only hashed copy of
// its distinct set, and the sorted run holds the same set in address
// order with its running MRA and density summaries.
//
// Concurrency contract (enforced by stream_engine, not by this class):
// `buffer` is called only by the shard's worker thread; `seal_day` and
// all sealed-state readers are serialized by the engine's epoch
// machinery (the engine seals its shards concurrently, one task each).
// Nothing here locks.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "v6class/simd/address_block.h"
#include "v6class/spatial/density.h"
#include "v6class/temporal/daily_series.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

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
    /// merged from the back, in place.
    void merge(const simd::address_block& fresh);

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
    /// the engine passes its configured classes with p >= 64.
    explicit stream_shard(std::vector<density_class> classes)
        : store128_(128), store64_(kShardPrefixLength), run_(std::move(classes)) {}

    /// Stages one batch of the in-progress day's addresses. Sealed
    /// state is not touched until seal_day.
    void buffer(const simd::address_block& batch) { pending_.append(batch); }

    /// Seals `day`: sorts and dedupes everything staged since the last
    /// seal in place and folds it into the /128 and /64 observation
    /// stores, the daily series and the sorted run. Staged lanes all
    /// belong to `day` (the engine broadcasts a seal marker before any
    /// newer-day record is enqueued). Each store's keys past its
    /// pre-seal distinct count are the day's first sightings, sorted.
    void seal_day(int day);

    // ----- sealed-state queries (epoch-consistent under the engine) ----

    std::size_t distinct_addresses() const noexcept { return store128_.distinct_count(); }
    std::size_t distinct_prefixes() const noexcept { return store64_.distinct_count(); }

    const observation_store& store() const noexcept { return store128_; }
    const observation_store& store64() const noexcept { return store64_; }
    /// The shard's distinct addresses in order, with their summaries.
    const sorted_run& run() const noexcept { return run_; }

    /// This shard's slice of the windowed nd-stable split for `ref_day`.
    stability_split classify_day(int ref_day, unsigned n,
                                 const stability_options& opt) const {
        return stability_analyzer(series_, opt).classify_day(ref_day, n);
    }

    /// This shard's slice of the lifetime spectrum (span >= n).
    std::vector<std::uint64_t> spectrum(unsigned max_n) const {
        return store128_.stability_spectrum(max_n);
    }

private:
    simd::address_block pending_{0};  // staged lanes of the open day

    daily_series series_;             // per-day active sets (sealed days)
    observation_store store128_;      // lifetime state at /128
    observation_store store64_;       // lifetime state at /64
    sorted_run run_;                  // the distinct /128s, sorted
};

}  // namespace v6
