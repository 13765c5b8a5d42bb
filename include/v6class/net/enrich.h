// enrich.h — address→ASN/geo enrichment at ingest, hot-reloadable.
//
// The paper's Fig. 5a/5b views group classified addresses by origin
// ASN; doing that over a *live* stream means every observation must be
// tagged as it arrives, from a routing/geo database that operators
// refresh while the collector keeps running (xenoeye's geodb/AS design:
// rebuild the binary db offline, then SIGHUP the collector).
//
// Three pieces:
//
//   * A binary prefix database ("V6ASNDB1"): sorted fixed-width entries
//     of (prefix, ASN, country), built offline by `v6mkdb` from
//     RIR-style CSV or "prefix asn [country]" route dumps. Fixed-width
//     entries make the loader a bounds check and a loop — no parsing on
//     the reload path beyond validation.
//
//   * An immutable `asn_db` snapshot: the entries flattened into one
//     sorted table of disjoint address intervals, each carrying its
//     longest-prefix match, so a lookup is one branchless search.
//
//   * The `enrichment` handle: an RCU-style `shared_ptr<const asn_db>`
//     swapped on reload. Readers copy the snapshot pointer under a
//     brief mutex (an uncontended lock — equivalent in cost to
//     libstdc++'s own `atomic<shared_ptr>`, which is a spinlock TSan
//     cannot model); a concurrent reload builds the new db entirely
//     off to the side and swaps only the pointer, so no lookup ever
//     blocks on the load, fails, or sees a half-loaded table — the
//     reload test asserts zero dropped records under sustained ingest.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "v6class/ip/prefix.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/tsdb.h"

namespace v6::net {

/// What enrichment knows about one prefix.
struct enrich_info {
    std::uint32_t asn = 0;                     ///< origin AS number
    std::array<char, 2> country = {'-', '-'};  ///< ISO 3166-1 alpha-2, "--" unknown

    friend bool operator==(const enrich_info&, const enrich_info&) = default;
};

/// One database entry: a prefix and its enrichment.
struct enrich_entry {
    prefix pfx;
    enrich_info info;

    friend bool operator==(const enrich_entry&, const enrich_entry&) = default;
};

/// Binary database layout (little-endian):
///
///     offset  size  field
///     ------  ----  -----------------------------------
///          0     8  magic    "V6ASNDB1"
///          8     4  version  1 (u32)
///         12     4  count    entries (u32)
///         16   24N  entries
///
///     entry (24 bytes):
///          0    16  prefix base address, network byte order
///         16     1  prefix length (0..128)
///         17     1  reserved, must be 0
///         18     2  country code, two ASCII bytes
///         20     4  ASN (u32)
inline constexpr std::uint8_t kAsnDbMagic[8] = {'V', '6', 'A', 'S', 'N', 'D', 'B', '1'};
inline constexpr std::uint32_t kAsnDbVersion = 1;
inline constexpr std::size_t kAsnDbHeaderSize = 16;
inline constexpr std::size_t kAsnDbEntrySize = 24;

/// Parses one source line: "prefix asn [country]" with comma or
/// whitespace separators ("AS64500" accepted for the asn; a bare
/// address parses as /128). Returns nullopt on syntax errors.
std::optional<enrich_entry> parse_enrich_line(std::string_view line) noexcept;

/// Reads a whole source file (CSV or route-dump style; '#' comments and
/// blank lines tolerated). Returns nullopt when the file cannot be
/// opened; malformed line count goes to *malformed when non-null.
std::optional<std::vector<enrich_entry>> read_enrich_source(
    const std::string& path, std::uint64_t* malformed = nullptr);

/// Serializes entries (sorted by prefix) into the binary format.
std::vector<std::uint8_t> encode_asn_db(std::vector<enrich_entry> entries);

/// Validates and decodes a binary image. Returns nullopt with *error set
/// on any structural problem (magic, version, size arithmetic, prefix
/// length out of range, host bits set, entries not strictly ascending as
/// encode_asn_db writes them), so an accepted image re-encodes
/// byte-identically.
std::optional<std::vector<enrich_entry>> decode_asn_db(
    const std::uint8_t* data, std::size_t len, std::string* error);

/// Writes the binary db atomically (tmp + rename). False on I/O failure.
bool write_asn_db(const std::string& path, const std::vector<enrich_entry>& entries);

/// An immutable loaded database, flattened for longest-prefix match.
///
/// Every prefix's first address and the address one past its last cut
/// the address space into disjoint intervals; within one interval the
/// longest match cannot change. The constructor sorts those boundaries
/// (plus `::`, so every address falls in some interval), answers the
/// longest match at each with a transient Patricia `prefix_map`, drops
/// boundaries that would repeat their predecessor's match, and keeps
/// the result as hi/lo boundary lanes and a lane of match pointers. A
/// lookup is then a branchless binary search for the last boundary
/// <= the address: one path for every db, prefixes longer than /64
/// included. Snapshots are built once and never mutated, which is what
/// makes the lock-free reload swap safe.
class asn_db {
public:
    explicit asn_db(std::vector<enrich_entry> entries, std::uint64_t generation = 0);
    // match_ points into infos_, so a copy would point into its source.
    asn_db(const asn_db&) = delete;
    asn_db& operator=(const asn_db&) = delete;

    /// Loads the binary file. Returns null with *error set on failure.
    static std::shared_ptr<const asn_db> load(const std::string& path,
                                              std::uint64_t generation,
                                              std::string* error);

    /// The most specific entry covering `a`, or null. All intervals of
    /// one entry yield the same pointer, valid as long as the db.
    const enrich_info* lookup(const address& a) const noexcept {
        return lookup(a.hi(), a.lo());
    }

    /// The same for an address given as its hi/lo lanes (bits 0..63 and
    /// 64..127), as simd blocks hold it.
    const enrich_info* lookup(std::uint64_t hi, std::uint64_t lo) const noexcept {
        using u128 = unsigned __int128;
        const u128 key = static_cast<u128>(hi) << 64 | lo;
        const std::uint64_t* his = hi_.data();
        const std::uint64_t* los = lo_.data();
        std::size_t at = 0;  // boundary 0 is ::, <= every address
        for (std::size_t n = hi_.size(); n > 1;) {
            const std::size_t half = n / 2;
            const u128 bound = static_cast<u128>(his[at + half]) << 64 | los[at + half];
            at = bound <= key ? at + half : at;  // cmp, sbb, cmov: no branch
            n -= half;
        }
        return match_[at];
    }

    /// Distinct prefixes in the db (a duplicate prefix keeps its last
    /// entry, as `encode_asn_db` does).
    std::size_t size() const noexcept { return infos_.size(); }
    /// Intervals in the flat table (>= 1: the one starting at ::).
    std::size_t intervals() const noexcept { return hi_.size(); }
    std::uint64_t generation() const noexcept { return generation_; }

    /// Longest prefix length in the db. When this is <=64 the upper 64
    /// bits of an address fully determine its longest match, which is
    /// what makes the per-/64 lookup_cache memo sound.
    unsigned max_length() const noexcept { return max_length_; }

private:
    std::vector<enrich_info> infos_;  // one per distinct prefix
    // Interval starts in ascending address order, and each interval's
    // longest match, pointing into infos_ (null: no prefix covers it).
    std::vector<std::uint64_t> hi_, lo_;
    std::vector<const enrich_info*> match_;
    std::uint64_t generation_ = 0;
    unsigned max_length_ = 0;
};

/// A small direct-mapped memo of per-/64 lookup results, owned by one
/// ingest thread (the collector rx loop, a replay driver) and carried
/// across batches. Routing/RIR feeds almost never carry prefixes longer
/// than /64, so for such a db the /64 network determines the match and
/// the table search can be skipped for repeat networks — the common
/// case for real traffic, where consecutive observations cluster in few
/// networks. ingest_block bypasses the memo entirely when the snapshot
/// contains anything longer than /64, and resets it whenever the
/// snapshot pointer changes (reload), so cached pointers never outlive
/// the db they point into.
struct lookup_cache {
    static constexpr std::size_t kSlots = 256;
    struct slot {
        std::uint64_t hi = 0;
        const enrich_info* info = nullptr;
        bool valid = false;
    };

    /// Snapshot identity the slots were filled from. The generation is
    /// part of the key to defeat ABA: a reloaded db can be allocated at
    /// the address the old one was freed from, but its generation is
    /// strictly larger.
    const asn_db* db = nullptr;
    std::uint64_t generation = 0;
    std::array<slot, kSlots> slots;

    bool matches(const asn_db* d) const noexcept {
        return db == d && d != nullptr && generation == d->generation();
    }

    void reset(const asn_db* fresh) noexcept {
        db = fresh;
        generation = fresh ? fresh->generation() : 0;
        for (slot& s : slots) s.valid = false;
    }
};

/// The hot-reloadable enrichment handle.
///
/// Thread contract: lookup() and snapshot() are safe from any thread at
/// any time, including concurrently with reload() — they cost one
/// shared_ptr copy under a mutex held only for that copy. reload() may
/// be called from any one thread at a time (v6stream calls it from the
/// main loop when the SIGHUP flag is set); the expensive part — read,
/// validate, build the table — happens outside the lock. A failed
/// reload (missing/corrupt file) keeps the previous snapshot serving
/// and counts a failure — the collector never degrades because an
/// operator fat-fingered a db push.
class enrichment {
public:
    /// `registry` may be null (no metrics). The db is not loaded until
    /// the first reload() call.
    explicit enrichment(std::string path, obs::registry* registry = nullptr);

    /// (Re)loads the database file, building the new snapshot aside and
    /// swapping it in atomically. Returns false (old snapshot intact,
    /// failure counted) on any error, with *error set when non-null.
    bool reload(std::string* error = nullptr);

    /// Current snapshot; null before the first successful reload.
    std::shared_ptr<const asn_db> snapshot() const {
        std::lock_guard<std::mutex> lock(snap_mutex_);
        return snap_;
    }

    /// Tags one address. Null when no db is loaded or no prefix covers
    /// the address; the returned pointer is valid only while `snap`
    /// is held — use the two-step form on the hot path so one snapshot
    /// load covers a whole batch.
    const enrich_info* lookup(const address& a,
                              std::shared_ptr<const asn_db>& snap) const {
        snap = snapshot();
        return snap ? snap->lookup(a) : nullptr;
    }

    const std::string& path() const noexcept { return path_; }
    std::uint64_t reloads() const noexcept {
        return reload_count_.load(std::memory_order_relaxed);
    }
    std::uint64_t failures() const noexcept {
        return failure_count_.load(std::memory_order_relaxed);
    }

private:
    std::string path_;
    mutable std::mutex snap_mutex_;           // guards snap_ only
    std::shared_ptr<const asn_db> snap_;      // the live snapshot
    std::uint64_t generation_ = 0;  // reload() caller thread only
    // Authoritative tallies (the obs counters only mirror them for
    // scrape, and are no-ops when no registry was given).
    std::atomic<std::uint64_t> reload_count_{0}, failure_count_{0};
    obs::counter reloads_, failures_;
    obs::gauge entries_gauge_, generation_gauge_;
};

// ------------------------------------------------------------ ledger

/// One row of a per-ASN breakdown.
struct asn_row {
    std::uint32_t asn = 0;  ///< 0 = addresses no db prefix covered
    std::array<char, 2> country = {'-', '-'};
    std::uint64_t records = 0;
    std::uint64_t hits = 0;
};

/// Per-day per-ASN accounting at the ingest front end. The collector /
/// replay thread calls note() per record; the report loop drains a
/// day's rows when the day's report seals. Also maintains per-ASN live
/// counters in the registry (v6_net_asn_records_total{asn=...}),
/// capped: the first `max_series` ASNs seen get their own series,
/// everything after lands in asn="other" — per-ASN observability
/// without unbounded label cardinality.
class asn_ledger {
public:
    /// One pre-aggregated (day, enrichment) tally from an ingest batch.
    struct note_row {
        int day = 0;
        const enrich_info* info = nullptr;
        std::uint64_t records = 1;
        std::uint64_t hits = 0;
    };

    explicit asn_ledger(obs::registry* registry = nullptr,
                        std::size_t max_series = 32);

    /// Applies a batch of pre-aggregated rows under one mutex
    /// acquisition — ingest_block aggregates each block and calls this
    /// once, so every ingest source tallies through here.
    void note_many(const note_row* rows, std::size_t n);

    /// Sorted (records desc, asn asc) breakdown for `day`; forgets the
    /// day's rows, so each day is reported once.
    std::vector<asn_row> take_day(int day);

    /// Lifetime top-`n` rows (records desc, asn asc).
    std::vector<asn_row> top(std::size_t n) const;

    std::uint64_t matched() const noexcept {
        return matched_count_.load(std::memory_order_relaxed);
    }
    std::uint64_t unmatched() const noexcept {
        return unmatched_count_.load(std::memory_order_relaxed);
    }

private:
    struct cell {
        std::array<char, 2> country = {'-', '-'};
        std::uint64_t records = 0;
        std::uint64_t hits = 0;
    };

    obs::counter series_for(std::uint32_t asn);  // mutex_ held

    obs::registry* registry_ = nullptr;
    std::size_t max_series_;
    // Authoritative tallies; the obs counters mirror them for scrape.
    std::atomic<std::uint64_t> matched_count_{0}, unmatched_count_{0};
    obs::counter matched_, unmatched_;

    mutable std::mutex mutex_;
    std::map<int, std::map<std::uint32_t, cell>> days_;
    std::map<std::uint32_t, cell> lifetime_;
    std::map<std::uint32_t, obs::counter> series_;
    obs::counter other_series_;
};

/// Flushes one sealed day's per-ASN breakdown into the flight recorder:
/// the top `max_rows` rows (records desc — take_day()'s order) become
/// points on "v6class_asn_records" and "v6class_asn_hits", labeled
/// "AS<asn>" ("unrouted" for asn 0), at ts = `day`. Rows beyond
/// max_rows are rolled into an "other" label so the store's series
/// cardinality stays bounded no matter what the routing table does.
/// The caller commits (v6stream batches this with the seal flush).
void flush_day_asn(obs::tsdb::database& db, int day,
                   const std::vector<asn_row>& rows,
                   std::size_t max_rows = 16);

}  // namespace v6::net
