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

void sorted_run::merge(const simd::address_block& fresh) {
    const std::size_t m = fresh.size();
    if (m == 0) return;
    obs::span span("merge_run", obs::span_kind::merge);
    const std::uint64_t* fh = fresh.hi();
    const std::uint64_t* fl = fresh.lo();
    const std::size_t n = keys_.size();
    const std::uint64_t* rh = keys_.hi();
    const std::uint64_t* rl = keys_.lo();

    // One forward sweep over the new keys finds each one's insertion
    // point in the old run (galloping: they are sorted) and updates the
    // summaries while the run's lines around it are still in cache.
    //
    // MRA: the new keys landing between old neighbours a and b form one
    // group x1..xk; the pair (a, b) stops being adjacent and (a, x1),
    // each (xi, xi+1) and (xk, b) start — where a and b exist.
    //
    // Density: per class n@/p, a /p group of m' new keys spans the old
    // run from x1's insertion point to xk's, all inside the prefix; its
    // g old members are those plus the prefix's neighbours on either
    // side, counted only up to n. A prefix already dense gains m'
    // covered keys; one that crosses n becomes dense with all g + m'.
    std::vector<std::size_t> at(m);
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
        std::size_t lo = at[sc.first], hi = at[last];
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
    for (std::size_t i = 0, from = 0; i < m; ++i) {
        const std::size_t j = from = at[i] =
            gallop_lower_bound(rh, rl, from, n, fh[i], fl[i]);
        if (i > 0 && at[i - 1] == j) {
            ++hist_[lane_cpl(fh[i - 1], fl[i - 1], fh[i], fl[i])];
        } else {
            if (i > 0 && at[i - 1] < n)  // close the previous group: (xk, b)
                ++hist_[lane_cpl(fh[i - 1], fl[i - 1], rh[at[i - 1]], rl[at[i - 1]])];
            if (j > 0 && j < n) --hist_[lane_cpl(rh[j - 1], rl[j - 1], rh[j], rl[j])];
            if (j > 0) ++hist_[lane_cpl(rh[j - 1], rl[j - 1], fh[i], fl[i])];
        }
        for (std::size_t c = 0; i > 0 && c < scans.size(); ++c) {
            class_scan& sc = scans[c];
            if (((fh[i] ^ fh[sc.first]) & sc.mh) == 0 &&
                ((fl[i] ^ fl[sc.first]) & sc.ml) == 0)
                continue;
            close_group(c, i - 1);
            sc.first = i;
        }
    }
    if (at[m - 1] < n)
        ++hist_[lane_cpl(fh[m - 1], fl[m - 1], rh[at[m - 1]], rl[at[m - 1]])];
    for (std::size_t c = 0; c < scans.size(); ++c) close_group(c, m - 1);

    // Merge in place from the back: each old element moves right by the
    // number of new keys below it, so walking the new keys downward
    // shifts every old segment once, then drops the key into its gap.
    keys_.resize(n + m);
    std::uint64_t* wh = keys_.hi();
    std::uint64_t* wl = keys_.lo();
    std::size_t end = n;
    for (std::size_t i = m; i-- > 0;) {
        const std::size_t j = at[i];
        std::memmove(wh + j + i + 1, wh + j, (end - j) * sizeof(std::uint64_t));
        std::memmove(wl + j + i + 1, wl + j, (end - j) * sizeof(std::uint64_t));
        wh[j + i] = fh[i];
        wl[j + i] = fl[i];
        end = j;
    }
}

void stream_shard::seal_day(int day) {
    if (pending_.empty()) return;  // a day with no records for this shard

    // Sort + dedupe the staged lanes in place (radix-partitioned on the
    // hi word); (hi, lo) numeric order is byte-lexicographic address
    // order, so the result is exactly std::sort + std::unique.
    simd::sort_unique_block(pending_);
    const std::size_t seen = store128_.distinct_count();
    store128_.record_day(day, pending_);
    // The day's /64s are the sorted lanes' distinct hi words.
    simd::address_block prefixes(0);
    const std::uint64_t* his = pending_.hi();
    for (std::size_t i = 0; i < pending_.size(); ++i)
        if (i == 0 || his[i] != his[i - 1]) prefixes.push_back(his[i], 0);
    store64_.record_day(day, prefixes);
    series_.set_day(day, pending_.to_vector());
    pending_.clear();
    // The store's keys past its pre-seal count are the day's first
    // sightings, in the sorted order record_day walked them.
    simd::address_block fresh(0);
    store128_.append_keys(fresh, seen);
    run_.merge(fresh);
}

}  // namespace v6
