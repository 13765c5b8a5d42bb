// stability.h — temporal classification of addresses and prefixes
// (Section 5.1 of the paper).
//
// Definitions reproduced here:
//
//   "nd-stable" — an address for which there exist observations of
//   activity on two different days with an intervening period of at
//   least n-1 days (equivalently, day indices d1 < d2 with d2-d1 >= n).
//   nd-stable implies (n-1)d-stable; the classes are not mutually
//   exclusive.
//
//   Daily analysis uses a sliding 15-day window centered on the day of
//   observation: "3d-stable (-7d,+7d)". An address active on the
//   reference day is classified from its activity days within the window.
//
//   Epoch stability ("6m-stable (-6m)", "1y-stable (-1y)") intersects
//   the active sets of two observation periods months apart.
//
// Everything applies unchanged to prefixes of any length via
// daily_series::project().
#pragma once

#include <cstdint>
#include <vector>

#include "v6class/temporal/daily_series.h"
#include "v6class/temporal/window.h"

namespace v6 {

/// Stability analyzer over a daily series. Non-owning: the series must
/// outlive the analyzer.
class stability_analyzer {
public:
    explicit stability_analyzer(const daily_series& series,
                                stability_options options = {}) noexcept
        : series_(&series), opt_(options) {}

    /// Splits the addresses active on `ref_day` into nd-stable and not,
    /// using the sliding window around the reference day. An address is
    /// nd-stable when its earliest and latest active days within the
    /// window are at least n (+ slew tolerance) apart.
    stability_split classify_day(day_index ref_day, unsigned n) const;

    /// Count-only variant of classify_day.
    std::uint64_t count_stable(day_index ref_day, unsigned n) const;

    /// Weekly roll-up (the paper's Tables 2c/2d): for each reference day
    /// in [first_day, first_day+6], classify; report the distinct union
    /// of the per-day stable sets, and likewise of the not-stable sets.
    /// (An address can appear in both unions, as in the paper.)
    stability_split classify_week(day_index first_day, unsigned n) const;

    /// Overlap series for Figure 4: for each day d in [from, to], the
    /// number of addresses active on both d and `ref_day`.
    std::vector<std::uint64_t> overlap_series(day_index ref_day, day_index from,
                                              day_index to) const;

private:
    const daily_series* series_;
    stability_options opt_;
};

/// Epoch stability: the members of `current` also present in `past`
/// (both sorted unique). With `current` = active March 2015 and `past` =
/// active September 2014, the result is the "6m-stable (-6m)" class.
inline std::vector<address> epoch_stable(const std::vector<address>& current,
                                         const std::vector<address>& past) {
    return intersect_sorted(current, past);
}

}  // namespace v6
