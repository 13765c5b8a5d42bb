#include "v6class/temporal/stability.h"

#include <algorithm>

#include "v6class/obs/trace.h"
#include "v6class/par/pool.h"

namespace v6 {

stability_split stability_analyzer::classify_day(day_index ref_day, unsigned n) const {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_temporal_classify_day_seconds", obs::latency_buckets(), {},
        "Time to nd-stable-classify one reference day against its window.");
    const obs::span span("classify_day", phase);
    const std::vector<address>& ref = series_->day(ref_day);
    stability_split out;
    if (ref.empty()) return out;

    // first[i]/last[i]: earliest and latest day within the window on
    // which ref[i] was seen. Initialized to the reference day itself.
    std::vector<day_index> first(ref.size(), ref_day);
    std::vector<day_index> last(ref.size(), ref_day);

    const day_index lo = ref_day - opt_.window_back;
    const day_index hi = ref_day + opt_.window_fwd;
    for (day_index d = lo; d <= hi; ++d) {
        if (d == ref_day) continue;
        const std::vector<address>& set = series_->day(d);
        // Two-pointer merge against the (sorted) reference set.
        std::size_t i = 0, j = 0;
        while (i < ref.size() && j < set.size()) {
            if (ref[i] < set[j]) {
                ++i;
            } else if (set[j] < ref[i]) {
                ++j;
            } else {
                first[i] = std::min(first[i], d);
                last[i] = std::max(last[i], d);
                ++i;
                ++j;
            }
        }
    }

    const int required_gap = static_cast<int>(n) + opt_.slew_tolerance;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (last[i] - first[i] >= required_gap)
            out.stable.push_back(ref[i]);
        else
            out.not_stable.push_back(ref[i]);
    }
    return out;
}

std::uint64_t stability_analyzer::count_stable(day_index ref_day, unsigned n) const {
    return classify_day(ref_day, n).stable.size();
}

stability_split stability_analyzer::classify_week(day_index first_day, unsigned n) const {
    // The seven reference days only read the (immutable) series; classify
    // them concurrently, then fold the unions in day order so the result
    // matches the serial path exactly.
    const std::vector<stability_split> splits =
        par::map_indexed<stability_split>(7, [&](std::size_t i) {
            return classify_day(first_day + static_cast<day_index>(i), n);
        });
    const obs::span merge_span("merge_week", {}, obs::span_kind::merge);
    std::vector<address> stable_union;
    std::vector<address> not_stable_union;
    for (const stability_split& s : splits) {
        stable_union = union_sorted(stable_union, s.stable);
        not_stable_union = union_sorted(not_stable_union, s.not_stable);
    }
    return {std::move(stable_union), std::move(not_stable_union)};
}

std::vector<std::uint64_t> stability_analyzer::overlap_series(day_index ref_day,
                                                              day_index from,
                                                              day_index to) const {
    const std::vector<address>& ref = series_->day(ref_day);
    if (to < from) return {};
    // One independent merge per day; slot d-from keeps the series in day
    // order regardless of scheduling.
    return par::map_indexed<std::uint64_t>(
        static_cast<std::size_t>(to - from + 1), [&](std::size_t k) {
            const std::vector<address>& set =
                series_->day(from + static_cast<day_index>(k));
            std::uint64_t overlap = 0;
            std::size_t i = 0, j = 0;
            while (i < ref.size() && j < set.size()) {
                if (ref[i] < set[j])
                    ++i;
                else if (set[j] < ref[i])
                    ++j;
                else {
                    ++overlap;
                    ++i;
                    ++j;
                }
            }
            return overlap;
        });
}

}  // namespace v6
