// radix_tree.h — binary Patricia (path-compressed radix) trie over IPv6
// prefixes, with the aggregation operations of Cho et al.'s aguri and the
// paper's "densify" operation (Section 5.2.3).
//
// Storage is a contiguous arena: nodes live in one std::vector and refer
// to each other by 32-bit indices (sentinel `nil`), so building a tree is
// bump allocation into one growing block rather than one heap allocation
// per node, walks chase indices within a contiguous region, and clear()
// keeps the arena's capacity for reuse. Nodes removed by aggregation go
// onto an intrusive free list threaded through child[0].
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/ip/prefix.h"

namespace v6 {

/// One dense prefix reported by a densify query: the prefix plus the
/// number of observed addresses it covers.
struct dense_prefix {
    prefix pfx;
    std::uint64_t observed = 0;

    friend bool operator==(const dense_prefix&, const dense_prefix&) = default;
};

/// A binary Patricia trie whose nodes are IPv6 prefixes carrying counts.
///
/// Counts accumulate at the exact prefix a caller adds (a full address is
/// the /128 prefix); internal branch nodes created by path compression
/// carry a zero own-count until aggregation moves descendants' counts up
/// into them. Subtree sums are therefore invariant under the aggregation
/// operations.
///
/// Thread safety: const queries are pure reads of the arena, so any
/// number of threads may query one tree concurrently (the parallel
/// density-table and MRA paths rely on this); mutation requires
/// exclusive access.
class radix_tree {
public:
    radix_tree() = default;
    radix_tree(radix_tree&&) noexcept = default;
    radix_tree& operator=(radix_tree&&) noexcept = default;

    /// Adds `count` observations of address `a` (at /128).
    void add(const address& a, std::uint64_t count = 1) { add(prefix{a, 128}, count); }

    /// Adds `count` observations attributed to prefix `p` exactly.
    void add(const prefix& p, std::uint64_t count = 1);

    /// Pre-sizes the arena for `nodes` trie nodes (a set of n distinct
    /// addresses needs at most 2n-1).
    void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

    /// Bottom-up bulk construction from addresses sorted ascending
    /// (duplicates allowed; each occurrence adds `count_each`): the trie
    /// over a sorted set is determined by the common-prefix lengths of
    /// adjacent elements — the same fact compute_mra_sorted exploits —
    /// so the whole structure is built leaf-by-leaf against a rightmost
    /// spine with no per-insert descent. Produces a tree identical to
    /// add()-ing every element in any order. Precondition: the tree is
    /// empty (a non-empty tree falls back to incremental add) and the
    /// input is sorted.
    void bulk_build(const std::vector<address>& sorted,
                    std::uint64_t count_each = 1);

    /// Sum of all counts in the tree.
    std::uint64_t total() const noexcept { return total_; }

    /// Number of trie nodes currently live (branch + counted).
    std::size_t node_count() const noexcept { return node_count_; }

    /// True when nothing has been added.
    bool empty() const noexcept { return root_ == nil; }

    /// Removes everything. Keeps the arena's capacity.
    void clear() noexcept;

    /// Count attributed exactly to `p` (not including descendants).
    std::uint64_t count_at(const prefix& p) const noexcept;

    /// Sum of counts of `p` and all more-specific prefixes beneath it.
    std::uint64_t subtree_count(const prefix& p) const noexcept;

    /// The longest prefix in the tree that covers `a` and carries a
    /// non-zero own count; nullopt when none does.
    std::optional<prefix> longest_match(const address& a) const noexcept;

    /// Visits every node that carries a non-zero own count, in address
    /// order (pre-order), as (prefix, own count).
    void visit(const std::function<void(const prefix&, std::uint64_t)>& fn) const;

    /// Visits the length of every node at which the tree splits (both
    /// children present), in no particular order. For a tree of /128
    /// leaves, the aggregate count n_p equals 1 + the number of split
    /// lengths < p — the basis of the trie-backed MRA computation.
    void visit_splits(const std::function<void(unsigned)>& fn) const;

    /// aguri aggregation (Cho et al.): every node whose *subtree* share of
    /// the total is below `min_share` is folded into its nearest ancestor,
    /// post-order, so the remaining counted nodes each hold at least
    /// `min_share` of the total (the root absorbs any remainder). Freed
    /// nodes return to the arena's free list.
    void aggregate_by_share(double min_share);

    /// Densify at one exact prefix length (the paper's `n@/p-dense`
    /// class, used for Table 3): returns every /p prefix covering at
    /// least `min_count` of the tree's counted observations, in address
    /// order. Precondition: p <= 128.
    std::vector<dense_prefix> dense_prefixes_at(std::uint64_t min_count, unsigned p) const;

    /// General densify (Section 5.2.3): returns the least-specific,
    /// non-overlapping prefixes of length <= 127 whose observation count
    /// meets the density n/2^(128-p), i.e. a /q prefix qualifies when it
    /// covers at least n * 2^(p-q) observations. Results are in address
    /// order; every reported prefix covers >= `n` observations.
    std::vector<dense_prefix> densify(std::uint64_t n, unsigned p) const;

private:
    static constexpr std::uint32_t nil = 0xffffffffu;

    struct node {
        prefix pfx;               // the prefix this node stands for
        std::uint64_t count = 0;  // observations attributed exactly here
        std::uint32_t child[2] = {nil, nil};
    };

    std::uint32_t alloc_node(const prefix& pfx, std::uint64_t count);
    void free_node(std::uint32_t idx) noexcept;
    void set_slot(std::uint32_t parent, unsigned side, std::uint32_t v) noexcept {
        if (parent == nil)
            root_ = v;
        else
            nodes_[parent].child[side] = v;
    }
    std::uint32_t find_index(const prefix& p) const noexcept;
    std::uint64_t subtree_sum(std::uint32_t idx) const;
    /// Arena-indexed subtree sums (reverse pre-order pass); slots of free
    /// nodes are left zero.
    std::vector<std::uint64_t> subtree_sums() const;

    std::vector<node> nodes_;      // the arena
    std::uint32_t root_ = nil;
    std::uint32_t free_head_ = nil;  // intrusive free list via child[0]
    std::uint64_t total_ = 0;
    std::size_t node_count_ = 0;
};

/// The exact-length dense query by the paper's footnote-3 recipe — print
/// addresses as fixed-width hex, cut to p/4 characters, sort, uniq -c —
/// with no trie. This is the stream engine's production path (via the
/// sorted-set compute_density_table); dense_prefixes_at on a trie of the
/// same addresses is its cross-check. The address list is copied and
/// sorted internally; duplicates count once per occurrence, matching
/// radix_tree::add of each element.
std::vector<dense_prefix> dense_prefixes_by_sort(const std::vector<address>& addrs,
                                                 std::uint64_t min_count, unsigned p);

}  // namespace v6
