// mra.h — Multi-Resolution Aggregate counts and count ratios
// (Section 5.2.1 of the paper, generalizing Kohler et al.).
//
// For a set of N distinct addresses, the active aggregate count n_p is
// the number of /p prefixes needed to cover the set (n_0 = 1,
// n_128 = N). The MRA count ratio at resolution k is
//
//     gamma^k_p = n_{p+k} / n_p,   1 <= gamma^k_p <= 2^k,
//
// computed canonically at p = 0, k, 2k, ... The product of the ratios of
// one resolution equals N — an invariant the tests exploit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/trie/radix_tree.h"

namespace v6 {

/// Aggregate counts for every prefix length, plus ratio accessors.
class mra_series {
public:
    /// Constructs from precomputed aggregate counts n_0..n_128.
    explicit mra_series(std::array<std::uint64_t, 129> counts) noexcept
        : counts_(counts) {}

    /// n_p: the number of /p prefixes covering the address set.
    std::uint64_t aggregate_count(unsigned p) const noexcept { return counts_[p]; }

    /// Number of distinct addresses in the set (n_128).
    std::uint64_t size() const noexcept { return counts_[128]; }

    /// gamma^k_p = n_{p+k} / n_p. Precondition: p + k <= 128. Returns 1
    /// for an empty set.
    double ratio(unsigned p, unsigned k) const noexcept;

    /// The canonical ratio sequence for resolution k: gamma^k_p at
    /// p = 0, k, 2k, ..., 128-k (so 128/k values). k must divide 128.
    std::vector<double> ratios(unsigned k) const;

private:
    std::array<std::uint64_t, 129> counts_;
};

/// Computes aggregate counts from an address list (copied, sorted,
/// deduplicated internally). O(N log N).
mra_series compute_mra(std::vector<address> addrs);

/// Same, for input already sorted and deduplicated. O(N).
mra_series compute_mra_sorted(const std::vector<address>& sorted_unique);

/// From the set's split histogram, kept current elsewhere: hist[c] =
/// adjacent sorted pairs with common prefix length c, as
/// compute_mra_sorted counts them — the stream engine updates one as its
/// distinct set grows. O(1).
mra_series compute_mra_from_histogram(const std::array<std::uint64_t, 129>& hist,
                                      bool empty);

/// Trie-backed computation: n_p = 1 + (splits above depth p). The tree
/// must have been built by adding full /128 addresses (duplicates fine).
/// Cross-checks the sorted-array path; useful when a trie already exists.
mra_series compute_mra_from_trie(const radix_tree& tree);

}  // namespace v6
