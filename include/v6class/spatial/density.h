// density.h — prefix-density spatial classes (Sections 5.2.2/5.2.3) and
// the Table 3 accounting built on them.
#pragma once

#include <cstdint>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/trie/radix_tree.h"

namespace v6 {

/// One row of the paper's Table 3: the "n @ /p" density class evaluated
/// over a dataset.
struct density_row {
    std::uint64_t n = 0;   ///< minimum observed addresses per prefix
    unsigned p = 0;        ///< prefix length of the class
    std::uint64_t dense_prefix_count = 0;  ///< prefixes meeting the class
    std::uint64_t covered_addresses = 0;   ///< observed addrs inside them
    long double possible_addresses = 0;    ///< dense_prefix_count * 2^(128-p)
    long double address_density = 0;       ///< covered / possible
};

/// The two counts a Table-3 row derives from, kept current as a distinct
/// set grows: how many /p prefixes hold at least n of its addresses, and
/// how many of its addresses those prefixes hold.
struct density_count {
    std::uint64_t dense = 0;
    std::uint64_t covered = 0;
};

/// Evaluates the class n@/p over a tree built from the dataset's distinct
/// addresses (each added once at /128).
density_row compute_density_class(const radix_tree& tree, std::uint64_t n, unsigned p);

/// Evaluates many classes at once (one pass per class over the tree).
std::vector<density_row> compute_density_table(
    const radix_tree& tree,
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes);

/// Same rows from the dataset's distinct addresses, each listed once, by
/// the paper's footnote-3 sort (dense_prefixes_by_sort) — no trie. The
/// stream engine answers classes it keeps no counts for this way, over
/// its shards' sorted runs, merged.
std::vector<density_row> compute_density_table(
    const std::vector<address>& sorted_unique,
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes);

/// Same rows from running counts, counts[i] holding classes[i]'s — the
/// stream engine's configured classes. Every overload derives the other
/// fields with one row computation, so they agree to the last bit.
std::vector<density_row> compute_density_table(
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes,
    const std::vector<density_count>& counts);

/// The addresses of `candidates` that fall inside any of the (sorted,
/// non-overlapping) dense prefixes. Used to count covered WWW client /
/// router addresses and to pick probe targets.
std::vector<address> addresses_covered(const std::vector<dense_prefix>& dense,
                                       std::vector<address> candidates);

/// Enumerates every possible address of the dense prefixes, capped at
/// `limit` outputs — the scan-target expansion the paper proposes for
/// /112-and-smaller blocks. Prefixes wider than 32 host bits are skipped
/// (not feasibly scannable), mirroring the paper's feasibility argument.
std::vector<address> expand_scan_targets(const std::vector<dense_prefix>& dense,
                                         std::size_t limit);

}  // namespace v6
