// window.h — the parameters and result of the paper's daily nd-stable
// split (Section 5.1), shared by the batch stability_analyzer and the
// stream engine, which reads the same window off its observation store.
#pragma once

#include <vector>

#include "v6class/ip/address.h"

namespace v6 {

/// Window and slew parameters for daily stability analysis.
struct stability_options {
    int window_back = 7;  ///< days before the reference day considered
    int window_fwd = 7;   ///< days after the reference day considered
    /// Extra gap (days) demanded beyond n, compensating for the paper's
    /// log-processing timestamp slew of up to one day: with slew s, the
    /// observed gap must be >= n + s. 0 trusts the timestamps.
    int slew_tolerance = 0;
};

/// Result of classifying one reference day.
struct stability_split {
    std::vector<address> stable;      ///< active on ref day and nd-stable
    std::vector<address> not_stable;  ///< active on ref day, not shown stable
};

}  // namespace v6
