// shard.h — one shard of the streaming ingest engine's state.
//
// The engine hashes each record's address into a shard; a shard
// therefore owns a disjoint subset of the /128 address space, which is
// what makes the per-address analyses (distinct counts, stability,
// lifetime spectra) exactly mergeable: summing per-shard answers equals
// the unsharded answer. Anything keyed by a *coarser* unit straddles
// shards — prefix density and MRA are answered from the engine's one
// cumulative sorted run of every shard's first sightings, and the
// projected (/64) observation store lives in the engine, fed the
// shards' sealed lanes at seal time — because two addresses of one /64
// routinely hash to different shards, so per-shard projected counts
// would double-count.
//
// State is SoA end to end: the open day stages as address_block lanes,
// and the flat /128 observation store is the shard's only copy of its
// distinct set.
//
// Concurrency contract (enforced by stream_engine, not by this class):
// `buffer` is called only by the shard's worker thread; `seal_day` and
// all sealed-state readers are serialized by the engine's epoch
// machinery. Nothing here locks.
#pragma once

#include <cstdint>
#include <vector>

#include "v6class/simd/address_block.h"
#include "v6class/temporal/daily_series.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {

class stream_shard {
public:
    stream_shard() : store128_(128) {}

    /// Stages one batch of the in-progress day's addresses. Sealed
    /// state is not touched until seal_day.
    void buffer(const simd::address_block& batch) { pending_.append(batch); }

    /// Seals `day`: sorts and dedupes everything staged since the last
    /// seal in place, folds it into the observation store and the daily
    /// series, and appends the sealed lanes to `sealed` (the engine's
    /// day union for its projected store). Staged lanes all belong to
    /// `day` (the engine broadcasts a seal marker before any newer-day
    /// record is enqueued). The store's keys past its pre-seal
    /// distinct_addresses() are the day's first sightings, sorted.
    void seal_day(int day, simd::address_block& sealed);

    // ----- sealed-state queries (epoch-consistent under the engine) ----

    std::size_t distinct_addresses() const noexcept { return store128_.distinct_count(); }

    const observation_store& store() const noexcept { return store128_; }

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
};

}  // namespace v6
