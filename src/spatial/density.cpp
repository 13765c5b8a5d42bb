#include "v6class/spatial/density.h"

#include <algorithm>
#include <cmath>

#include "v6class/obs/trace.h"
#include "v6class/par/pool.h"

namespace v6 {

namespace {

/// One Table-3 row from a class's two counts — every overload's rows.
density_row make_row(std::uint64_t n, unsigned p, std::uint64_t dense,
                     std::uint64_t covered) {
    density_row row;
    row.n = n;
    row.p = p;
    row.dense_prefix_count = dense;
    row.covered_addresses = covered;
    row.possible_addresses =
        static_cast<long double>(row.dense_prefix_count) *
        std::ldexp(1.0L, static_cast<int>(128 - p));
    row.address_density = row.possible_addresses > 0
                              ? static_cast<long double>(row.covered_addresses) /
                                    row.possible_addresses
                              : 0.0L;
    return row;
}

density_row make_row(std::uint64_t n, unsigned p,
                     const std::vector<dense_prefix>& dense) {
    std::uint64_t covered = 0;
    for (const dense_prefix& d : dense) covered += d.observed;
    return make_row(n, p, dense.size(), covered);
}

const obs::histogram& density_phase_histogram() {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_spatial_density_table_seconds", obs::latency_buckets(), {},
        "Time to compute every configured n@/p density class over a "
        "distinct address set.");
    return phase;
}

/// Evaluates every class with `dense_at(n, p)`. Classes are independent
/// reads of one immutable input; fan them out and keep the rows in class
/// order (slot per index → deterministic).
template <class DenseAt>
std::vector<density_row> density_table(
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes,
    DenseAt&& dense_at) {
    const obs::span span("density_table", density_phase_histogram());
    return par::map_indexed<density_row>(classes.size(), [&](std::size_t i) {
        const auto [n, p] = classes[i];
        return make_row(n, p, dense_at(n, p));
    });
}

}  // namespace

density_row compute_density_class(const radix_tree& tree, std::uint64_t n, unsigned p) {
    return make_row(n, p, tree.dense_prefixes_at(n, p));
}

std::vector<density_row> compute_density_table(
    const radix_tree& tree,
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes) {
    return density_table(classes, [&](std::uint64_t n, unsigned p) {
        return tree.dense_prefixes_at(n, p);
    });
}

std::vector<density_row> compute_density_table(
    const std::vector<address>& sorted_unique,
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes) {
    return density_table(classes, [&](std::uint64_t n, unsigned p) {
        return dense_prefixes_by_sort(sorted_unique, n, p);
    });
}

std::vector<density_row> compute_density_table(
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes,
    const std::vector<density_count>& counts) {
    const obs::span span("density_table", density_phase_histogram());
    std::vector<density_row> rows;
    rows.reserve(classes.size());
    for (std::size_t i = 0; i < classes.size(); ++i)
        rows.push_back(make_row(classes[i].first, classes[i].second,
                                counts[i].dense, counts[i].covered));
    return rows;
}

std::vector<address> addresses_covered(const std::vector<dense_prefix>& dense,
                                       std::vector<address> candidates) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<address> out;
    // Both lists are in address order; sweep them together.
    std::size_t di = 0;
    for (const address& a : candidates) {
        while (di < dense.size() && dense[di].pfx.last_address() < a) ++di;
        if (di < dense.size() && dense[di].pfx.contains(a)) out.push_back(a);
    }
    return out;
}

std::vector<address> expand_scan_targets(const std::vector<dense_prefix>& dense,
                                         std::size_t limit) {
    std::vector<address> out;
    for (const dense_prefix& d : dense) {
        if (d.pfx.length() < 96) continue;  // > 2^32 hosts: not scannable
        const std::uint64_t span = std::uint64_t{1}
                                   << (128 - d.pfx.length() > 63
                                           ? 63
                                           : 128 - d.pfx.length());
        const std::uint64_t base_lo = d.pfx.base().lo();
        const std::uint64_t hi = d.pfx.base().hi();
        for (std::uint64_t off = 0; off < span; ++off) {
            if (out.size() >= limit) return out;
            out.push_back(address::from_pair(hi, base_lo | off));
        }
    }
    return out;
}

}  // namespace v6
