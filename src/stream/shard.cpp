#include "v6class/stream/shard.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <tuple>

#include "v6class/obs/trace.h"
#include "v6class/simd/kernels.h"

namespace v6 {

namespace {

/// Common prefix length of two addresses given as (hi, lo) lanes —
/// address::common_prefix_length on the lane representation.
inline unsigned lane_cpl(std::uint64_t ahi, std::uint64_t alo,
                         std::uint64_t bhi, std::uint64_t blo) noexcept {
    if (ahi != bhi) return static_cast<unsigned>(std::countl_zero(ahi ^ bhi));
    if (alo != blo)
        return 64 + static_cast<unsigned>(std::countl_zero(alo ^ blo));
    return 128;
}

/// First index in [from, n) of the sorted lanes whose address is not
/// below (hi, lo). Galloping from `from`: a sorted sequence of probes
/// costs O(log gap) each instead of O(log n).
std::size_t gallop_lower_bound(const std::uint64_t* his,
                               const std::uint64_t* los, std::size_t from,
                               std::size_t n, std::uint64_t hi,
                               std::uint64_t lo) noexcept {
    const auto below = [&](std::size_t k) {
        return his[k] < hi || (his[k] == hi && los[k] < lo);
    };
    std::size_t first = from, last = from, step = 1;
    while (last < n && below(last)) {
        first = last + 1;
        last += step;
        step *= 2;
    }
    last = std::min(last, n);
    while (first < last) {
        const std::size_t mid = first + (last - first) / 2;
        if (below(mid))
            first = mid + 1;
        else
            last = mid;
    }
    return first;
}

/// The (hi, lo) lane masks of a /p prefix.
inline std::pair<std::uint64_t, std::uint64_t> prefix_masks(unsigned p) noexcept {
    const std::uint64_t hi = p >= 64 ? ~0ull : p == 0 ? 0 : ~0ull << (64 - p);
    const std::uint64_t lo = p >= 128 ? ~0ull : p <= 64 ? 0 : ~0ull << (128 - p);
    return {hi, lo};
}

}  // namespace

void sorted_run::merge(const simd::address_block& day,
                       std::vector<std::uint32_t>* slots,
                       simd::address_block* new_prefixes) {
    fresh_.clear();
    at_.clear();
    if (day.empty()) return;
    obs::span span("merge_run", {}, obs::span_kind::merge);
    const std::uint64_t* dh = day.hi();
    const std::uint64_t* dl = day.lo();
    const std::size_t n = hi_.size();
    const std::uint64_t* rh = hi_.data();
    const std::uint64_t* rl = lo_.data();
    fresh_.reserve(day.size());
    if (slots) slots->reserve(slots->size() + day.size());

    // One forward sweep over the day's keys finds each one's place in
    // the old run (galloping: they are sorted). A key found there keeps
    // its slot; every other key is new, and updates the summaries while
    // the run's lines around it are still in cache. Below, x1, x2, ...
    // are the new keys (fresh_), and at_[k] is xk's insertion point.
    //
    // MRA: the new keys landing between old neighbours a and b form one
    // group x1..xk; the pair (a, b) stops being adjacent and (a, x1),
    // each (xi, xi+1) and (xk, b) start — where a and b exist.
    //
    // New /64s: the run's keys of one /64 are contiguous, so when the
    // run holds x's /64 one of x's old neighbours is in it.
    //
    // Density: per class n@/p, a /p group of m' new keys spans the old
    // run from x1's insertion point to xk's, all inside the prefix; its
    // g old members are those plus the prefix's neighbours on either
    // side, counted only up to n. A prefix already dense gains m'
    // covered keys; one that crosses n becomes dense with all g + m'.
    const std::uint64_t* fh = fresh_.hi();  // reserved: stable
    const std::uint64_t* fl = fresh_.lo();
    struct class_scan {
        std::uint64_t mh = 0, ml = 0;
        std::size_t first = 0;  // the open /p group's first new key
    };
    std::vector<class_scan> scans(classes_.size());
    for (std::size_t c = 0; c < scans.size(); ++c)
        std::tie(scans[c].mh, scans[c].ml) = prefix_masks(classes_[c].second);
    const auto close_group = [&](std::size_t c, std::size_t last) {
        const std::uint64_t need = classes_[c].first;
        if (need == 0) return;  // no prefix qualifies (as the sort path)
        const class_scan& sc = scans[c];
        const std::uint64_t bh = fh[sc.first] & sc.mh, bl = fl[sc.first] & sc.ml;
        const auto inside = [&](std::size_t k) {
            return (rh[k] & sc.mh) == bh && (rl[k] & sc.ml) == bl;
        };
        std::size_t lo = at_[sc.first], hi = at_[last];
        std::uint64_t old = hi - lo;
        while (lo > 0 && old < need && inside(lo - 1)) --lo, ++old;
        while (hi < n && old < need && inside(hi)) ++hi, ++old;
        const std::uint64_t added = last + 1 - sc.first;
        density_count& count = counts_[c];
        if (old >= need) {
            count.covered += added;
        } else if (old + added >= need) {
            ++count.dense;
            count.covered += old + added;
        }
    };
    for (std::size_t d = 0, from = 0; d < day.size(); ++d) {
        const std::size_t j = from = gallop_lower_bound(rh, rl, from, n, dh[d], dl[d]);
        if (j < n && rh[j] == dh[d] && rl[j] == dl[d]) {
            if (slots) slots->push_back(slots_[j]);
            continue;
        }
        const std::size_t i = fresh_.size();
        if (slots) slots->push_back(static_cast<std::uint32_t>(n + i));
        fresh_.push_back(dh[d], dl[d]);
        at_.push_back(j);
        if (i > 0 && at_[i - 1] == j) {
            ++hist_[lane_cpl(fh[i - 1], fl[i - 1], fh[i], fl[i])];
        } else {
            if (i > 0 && at_[i - 1] < n)  // close the previous group: (xk, b)
                ++hist_[lane_cpl(fh[i - 1], fl[i - 1], rh[at_[i - 1]], rl[at_[i - 1]])];
            if (j > 0 && j < n) --hist_[lane_cpl(rh[j - 1], rl[j - 1], rh[j], rl[j])];
            if (j > 0) ++hist_[lane_cpl(rh[j - 1], rl[j - 1], fh[i], fl[i])];
        }
        if (new_prefixes && (i == 0 || fh[i - 1] != fh[i]) &&
            !(j > 0 && rh[j - 1] == fh[i]) && !(j < n && rh[j] == fh[i]))
            new_prefixes->push_back(fh[i], 0);
        for (std::size_t c = 0; i > 0 && c < scans.size(); ++c) {
            class_scan& sc = scans[c];
            if (((fh[i] ^ fh[sc.first]) & sc.mh) == 0 &&
                ((fl[i] ^ fl[sc.first]) & sc.ml) == 0)
                continue;
            close_group(c, i - 1);
            sc.first = i;
        }
    }
    const std::size_t m = fresh_.size();
    if (m == 0) return;
    if (at_[m - 1] < n)
        ++hist_[lane_cpl(fh[m - 1], fl[m - 1], rh[at_[m - 1]], rl[at_[m - 1]])];
    for (std::size_t c = 0; c < scans.size(); ++c) close_group(c, m - 1);

    // Merge in place from the back: each old element moves right by the
    // number of new keys below it, so walking the new keys downward
    // shifts every old segment once, then drops the new value into its
    // gap. One lane at a time, so each pass streams through one array;
    // keys and slots land at the same positions.
    const auto merge_lane = [&](auto& lane, auto&& fresh_value) {
        lane.resize(n + m);
        auto* w = lane.data();
        std::size_t end = n;
        for (std::size_t i = m; i-- > 0;) {
            const std::size_t j = at_[i];
            std::memmove(w + j + i + 1, w + j, (end - j) * sizeof(*w));
            w[j + i] = fresh_value(i);
            end = j;
        }
    };
    merge_lane(hi_, [&](std::size_t i) { return fh[i]; });
    merge_lane(lo_, [&](std::size_t i) { return fl[i]; });
    merge_lane(slots_, [&](std::size_t i) { return static_cast<std::uint32_t>(n + i); });
}

stream_shard::stream_shard(std::vector<density_class> classes,
                           stability_options window)
    : window_(window), run_(std::move(classes)) {}

void stream_shard::seal_day(int day) {
    sealed_ = day;
    fresh64_.clear();
    // Evict the days a report can no longer ask for; the last evicted
    // vector's capacity takes today's slots.
    day_slots today;
    while (!ring_.empty() && !in_ring_range(ring_.front().day)) {
        today.slots = std::move(ring_.front().slots);
        ring_.pop_front();
    }
    if (pending_.empty()) {  // a day with no records for this shard
        run_.merge(pending_);  // empties fresh(), which the engine reads next
        return;
    }
    first_day_ = std::min(first_day_, day);

    // Sort + dedupe the staged lanes in place (radix-partitioned on the
    // hi word); (hi, lo) numeric order is byte-lexicographic address
    // order, so the result is exactly std::sort + std::unique.
    {
        obs::span sort_span("sort_unique");
        simd::sort_unique_block(pending_);
    }
    // The day's slots come out in the sorted lanes' order; the new keys'
    // slots are the next free ones, so they fold in as new records.
    today.day = day;
    today.slots.clear();
    run_.merge(pending_, &today.slots, &fresh64_);
    {
        static const obs::histogram phase = obs::registry::global().get_histogram(
            "v6_temporal_record_day_seconds", obs::latency_buckets(), {},
            "Time to fold one day of active addresses into the lifetime store.");
        const obs::span span("record_day", phase);
        records_.fold(day, today.slots);
    }
    ring_.push_back(std::move(today));
    pending_.clear();
    prefixes_ += fresh64_.size();
}

template <class Visit>
void stream_shard::classify_slots(int ref_day, unsigned n, Visit&& visit) const {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_classify_day_seconds", obs::latency_buckets(), {},
        "Time to nd-stable-classify one reference day against its window.");
    const obs::span span("classify_day", phase);
    if (ref_day < first_day_ || ref_day > sealed_) return;
    // As stability_analyzer: the span of the address's active days in
    // the window, the reference day itself always among them.
    const int lo = ref_day - window_.window_back;
    const int hi = ref_day + window_.window_fwd;
    const int required_gap = static_cast<int>(n) + window_.slew_tolerance;
    const auto classify = [&](std::uint32_t slot) {
        int first = ref_day, last = ref_day;
        if (const auto span_days = records_.window(slot, lo, hi)) {
            first = std::min(first, span_days->first);
            last = std::max(last, span_days->second);
        }
        visit(slot, last - first >= required_gap);
    };
    if (in_ring_range(ref_day)) {
        // The ring holds the day's slots, unless it staged no lanes here.
        const auto entry = std::find_if(ring_.begin(), ring_.end(),
                                        [&](const day_slots& d) { return d.day == ref_day; });
        if (entry != ring_.end())
            for (const std::uint32_t slot : entry->slots) classify(slot);
        return;
    }
    // Older than the ring: the records say which addresses were active.
    for (std::uint32_t slot = 0; slot < records_.size(); ++slot)
        if (records_.active_on(slot, ref_day)) classify(slot);
}

stability_split stream_shard::classify_day(int ref_day, unsigned n) const {
    // Per slot: 0 inactive on ref_day, 1 not stable, 2 stable. Then one
    // ordered pass over the run's slot lane lists them in address order.
    std::vector<std::uint8_t> state;
    classify_slots(ref_day, n, [&](std::uint32_t slot, bool stable) {
        if (state.empty()) state.resize(records_.size());
        state[slot] = stable ? 2 : 1;
    });
    stability_split out;
    if (state.empty()) return out;
    for (std::size_t k = 0; k < run_.size(); ++k)
        if (const std::uint8_t s = state[run_.slot(k)])
            (s == 2 ? out.stable : out.not_stable).push_back(run_.key(k));
    return out;
}

std::pair<std::uint64_t, std::uint64_t> stream_shard::count_day(int ref_day,
                                                                unsigned n) const {
    std::pair<std::uint64_t, std::uint64_t> out{0, 0};
    classify_slots(ref_day, n, [&](std::uint32_t, bool stable) {
        ++(stable ? out.first : out.second);
    });
    return out;
}

}  // namespace v6
