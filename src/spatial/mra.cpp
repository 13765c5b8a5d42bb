#include "v6class/spatial/mra.h"

#include <algorithm>
#include <cstring>

#include "v6class/obs/trace.h"
#include "v6class/simd/kernels.h"

namespace v6 {

namespace {

/// Shared by the sorted-vector and trie MRA paths: both produce the same
/// aggregate counts, so they share one histogram series.
const obs::histogram& mra_phase_histogram() {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_spatial_mra_seconds", obs::latency_buckets(), {},
        "Time to compute a multi-resolution aggregate count series.");
    return phase;
}

/// hist[c] = splits at depth c of the set's covering trie: adjacent
/// sorted pairs with cpl == c, or trie nodes branching at length c. A
/// non-empty set has n_p = 1 + (splits at depths < p).
mra_series from_split_histogram(const std::array<std::uint64_t, 129>& hist,
                                bool empty) {
    std::array<std::uint64_t, 129> counts{};
    if (empty) return mra_series{counts};
    std::uint64_t below = 0;
    for (unsigned p = 0; p <= 128; ++p) {
        counts[p] = 1 + below;
        if (p < 128) below += hist[p];
    }
    return mra_series{counts};
}

}  // namespace

double mra_series::ratio(unsigned p, unsigned k) const noexcept {
    const std::uint64_t lo = counts_[p];
    if (lo == 0) return 1.0;
    return static_cast<double>(counts_[p + k]) / static_cast<double>(lo);
}

std::vector<double> mra_series::ratios(unsigned k) const {
    std::vector<double> out;
    out.reserve(128 / k);
    for (unsigned p = 0; p + k <= 128; p += k) out.push_back(ratio(p, k));
    return out;
}

mra_series compute_mra_sorted(const std::vector<address>& sorted_unique) {
    const obs::span span("mra", mra_phase_histogram());
    // Adjacent distinct addresses a_i, a_{i+1} share cpl bits: they fall
    // into the same /p prefix iff p <= cpl. Hence the number of /p
    // aggregates is 1 + |{i : cpl_i < p}|.
    std::array<std::uint64_t, 129> hist{};  // hist[c] = pairs with cpl == c
    for (std::size_t i = 0; i + 1 < sorted_unique.size(); ++i)
        ++hist[sorted_unique[i].common_prefix_length(sorted_unique[i + 1])];
    return from_split_histogram(hist, sorted_unique.empty());
}

mra_series compute_mra(std::vector<address> addrs) {
    const obs::span span("mra", mra_phase_histogram());
    // Sort + dedupe on SoA lanes, then adjacent common-prefix lengths via
    // the batch kernel; identical to sort/unique/compute_mra_sorted.
    simd::address_block block(addrs.size());
    block.assign(addrs);
    simd::sort_unique_block(block);
    const std::size_t n = block.size();

    std::array<std::uint64_t, 129> hist{};  // hist[c] = pairs with cpl == c
    if (n >= 2) {
        simd::address_block a(n - 1), b(n - 1);
        a.resize(n - 1);
        b.resize(n - 1);
        std::memcpy(a.hi(), block.hi(), (n - 1) * sizeof(std::uint64_t));
        std::memcpy(a.lo(), block.lo(), (n - 1) * sizeof(std::uint64_t));
        std::memcpy(b.hi(), block.hi() + 1, (n - 1) * sizeof(std::uint64_t));
        std::memcpy(b.lo(), block.lo() + 1, (n - 1) * sizeof(std::uint64_t));
        std::vector<std::uint8_t> cpl(n - 1);
        simd::common_prefix_len_batch(a, b, cpl.data());
        for (const std::uint8_t c : cpl) ++hist[c];
    }
    return from_split_histogram(hist, n == 0);
}

mra_series compute_mra_from_histogram(const std::array<std::uint64_t, 129>& hist,
                                      bool empty) {
    const obs::span span("mra", mra_phase_histogram());
    return from_split_histogram(hist, empty);
}

mra_series compute_mra_from_trie(const radix_tree& tree) {
    const obs::span span("mra_from_trie", mra_phase_histogram());
    std::array<std::uint64_t, 129> hist{};
    tree.visit_splits([&](unsigned len) { ++hist[len]; });
    return from_split_histogram(hist, tree.empty());
}

}  // namespace v6
