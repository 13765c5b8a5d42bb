// tsdb.h — the durable flight recorder: an embedded append-only
// time-series store under a --state-dir, so the derived series (gamma
// ratios, nd-stable fraction), per-ASN ledger tallies, and the
// structured event log survive a daemon restart. The paper's temporal
// classification is about behaviour over days to months; a fixed-size
// in-memory ring that dies with the process cannot show a /48 flipping
// addressing practice a quarter later. This store can.
//
// On-disk shape (full byte layout in DESIGN.md §12):
//
//   <dir>/seg-<NNNNNN>.v6t     append-only segments, rotated by size
//
// Each segment is a sequence of CRC32-framed records:
//
//   u32 payload_len | u32 crc32(payload) | payload
//   payload := u8 kind + body
//     kind 1  series definition (id -> name + label)
//     kind 2  point batch (series id, count, count x (i64 ts, f64 value))
//     kind 3  event (level, time, kind, message, pre-rendered fields JSON)
//
// Every new segment begins with a definition record for every known
// series, so each segment is self-contained: retention can unlink the
// oldest segments without orphaning ids, and recovery of any suffix of
// the directory still resolves every name.
//
// Crash safety: appends go to the tail of the newest segment; a torn
// write (power loss mid-frame) is detected by the length/CRC check and
// the tail is truncated back to the last whole record — recovery yields
// exactly the committed prefix (tests/obs_tsdb_test.cpp proves this at
// every byte offset). Durability is fsync-on-rotation/close by default;
// options::fsync_commit upgrades every commit.
//
// Range reads never scan whole segments: the open() scan builds a
// compact in-memory block index — per series, one (segment, offset,
// min_ts, max_ts, count) entry per point batch — and query() seeks
// straight to the overlapping blocks.
//
// Timestamps are caller-defined int64 units, one unit scheme per
// series: the stream engine's seal-time series use the day number; the
// wall-clock gauge ticks use unix seconds. Within a series, appends
// with a timestamp <= the series' newest stored timestamp are dropped
// and counted (duplicate_points()); seal_sink reads that newest
// timestamp before each append and skips the row instead — the restart
// re-anchor contract that keeps /api/series free of duplicate points
// across runs.
//
// Thread contract: every public method is safe from any thread (one
// internal mutex). Writes are buffered in append()/append_event() and
// hit the file in commit(); query() sees committed data plus the
// not-yet-committed buffer, so an HTTP reader never waits on a seal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "v6class/obs/event_log.h"
#include "v6class/obs/metrics.h"

namespace v6::obs {
class metrics_server;  // http.h; the history API mounts onto it
namespace federate {
struct seal_snapshot;  // federate.h; what seal_sink records
}  // namespace federate
}  // namespace v6::obs

namespace v6::obs::tsdb {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte range —
/// exposed so tests and tools can frame/verify records themselves.
std::uint32_t crc32(const void* data, std::size_t len) noexcept;

struct options {
    /// Rotate to a fresh segment once the active one exceeds this.
    std::uint64_t segment_bytes = 4u << 20;
    /// Unlink the oldest sealed segments while the directory's total
    /// exceeds this (0 = unbounded). The newest sealed segment and the
    /// active one are always kept, so a cap smaller than one commit
    /// can never erase the newest data.
    std::uint64_t retain_bytes = 0;
    /// Unlink sealed segments whose newest point is older than
    /// (newest ts anywhere - retain_age) in the caller's ts units
    /// (0 = unbounded). Applied per segment at rotation time.
    std::int64_t retain_age = 0;
    /// fsync each commit() (durable to power loss per commit) instead
    /// of only on rotation and close.
    bool fsync_commit = false;
    /// Counters (v6_tsdb_*) land here when non-null.
    registry* metrics = nullptr;
};

/// One stored sample.
struct point {
    std::int64_t ts = 0;
    double value = 0;

    friend bool operator==(const point&, const point&) = default;
};

/// One series as listed by list_series().
struct series_info {
    std::string name;
    std::string label;
    std::int64_t first_ts = 0;
    std::int64_t last_ts = 0;
    std::uint64_t points = 0;
};

/// One stored event, as returned by query_events().
struct stored_event {
    double unix_time = 0;
    event_level level = event_level::info;
    std::string kind;
    std::string message;
    std::string fields_json;  ///< pre-rendered JSON object text ("{...}")
};

/// Mean-per-bucket downsampling: points bucketed by floor(ts/step)*step,
/// value = mean of the bucket, one output point per non-empty bucket
/// (oldest first). step <= 1 returns the input unchanged.
std::vector<point> downsample(const std::vector<point>& pts, std::int64_t step);

class database;

/// Mounts the read-only history API onto an HTTP server (call before
/// server.start(); `db` must outlive it):
///
///   GET /api/series                              the series directory
///   GET /api/series?name=...&label=...&from=...&to=...&step=...
///   GET /api/events?level=...&from=...&to=...&limit=...
///
/// Shared by v6stream (its own flight recorder) and v6agg (the fleet
/// store, where per-node series carry node=<id> labels).
void register_history_api(metrics_server& server, const database* db);

/// The flight recorder as a stream seal consumer (v6stream --state-dir
/// calls it from stream_config::on_seal). Each call appends one point
/// per snapshot row at ts = the sealed day — skipping a row when the
/// day is at or before that series' stored last_ts, so a replay over an
/// existing store appends each day once — then every event logged
/// since the previous call, and commits once. The first call logs
/// "tsdb resume" when the store already holds history for the rows.
/// Calls must not overlap (the engine's roll thread is the one caller).
class seal_sink {
public:
    /// Events logged to `events` from construction on are persisted.
    seal_sink(database& db, event_log& events);

    void operator()(const federate::seal_snapshot& snap);

private:
    database* db_;
    event_log* events_;
    std::uint64_t event_cursor_;
    bool first_call_ = true;
};

class database {
public:
    /// Opens (creating the directory if needed) and recovers `dir`:
    /// scans every segment oldest-first, truncates a torn tail, builds
    /// the block index, and arms appends at the tail of the newest
    /// segment. Returns null with *error set when the directory cannot
    /// be created or a segment cannot be read.
    static std::unique_ptr<database> open(const std::string& dir,
                                          const options& opt = {},
                                          std::string* error = nullptr);

    /// Commits the buffer and fsyncs the active segment.
    ~database();

    database(const database&) = delete;
    database& operator=(const database&) = delete;

    // ------------------------------------------------------------ write

    /// Interns (name, label), persisting the definition with the next
    /// commit when new. Ids are stable for the directory's lifetime.
    std::uint32_t series_id(const std::string& name, const std::string& label);

    /// Buffers one sample. Samples at or before the series' newest
    /// stored timestamp are dropped (counted by duplicate_points()) —
    /// see the re-anchor contract above.
    void append(std::uint32_t id, std::int64_t ts, double value);
    void append(const std::string& name, const std::string& label,
                std::int64_t ts, double value) {
        append(series_id(name, label), ts, value);
    }

    /// Buffers one event (the event log's fields are pre-rendered to
    /// one JSON object string).
    void append_event(const event& e);

    /// Writes the buffer as framed records, rotating and applying
    /// retention when the active segment has outgrown its cap. False on
    /// I/O failure (the buffer is kept for retry).
    bool commit();

    // ------------------------------------------------------------- read

    /// Every known series, name-ordered.
    std::vector<series_info> list_series() const;

    /// Newest stored timestamp of (name, label); nullopt when the
    /// series is unknown or empty. This is the restart re-anchor.
    std::optional<std::int64_t> last_ts(const std::string& name,
                                        const std::string& label) const;

    /// All points of (name, label) with from <= ts <= to, oldest first
    /// (committed and buffered). Unknown series yield empty.
    std::vector<point> query(const std::string& name, const std::string& label,
                             std::int64_t from, std::int64_t to) const;

    /// Stored events with level >= min_level and from <= time <= to,
    /// oldest first, capped to the newest `limit` matches.
    std::vector<stored_event> query_events(event_level min_level, double from,
                                           double to,
                                           std::size_t limit = 1024) const;

    // ------------------------------------------------- introspection

    const std::string& dir() const noexcept { return dir_; }
    /// Points recovered from disk by open().
    std::uint64_t recovered_points() const;
    /// Bytes cut off a torn tail by open()'s recovery (0 = clean).
    std::uint64_t truncated_bytes() const;
    /// Appends dropped by the monotone-timestamp re-anchor check.
    std::uint64_t duplicate_points() const;
    /// Segments currently on disk (sealed + active).
    std::size_t segment_count() const;
    /// Segments unlinked by retention so far.
    std::uint64_t retired_segments() const;

private:
    database() = default;

    struct block {
        std::uint32_t series = 0;
        std::uint32_t count = 0;
        std::int64_t min_ts = 0;
        std::int64_t max_ts = 0;
        std::uint64_t segment = 0;  ///< segment sequence number
        std::uint64_t offset = 0;   ///< frame start offset in the segment
        std::uint32_t len = 0;      ///< payload length
    };

    struct event_ref {
        double time = 0;
        event_level level = event_level::info;
        std::uint64_t segment = 0;
        std::uint64_t offset = 0;
        std::uint32_t len = 0;
    };

    struct series_state {
        std::string name;
        std::string label;
        std::int64_t first_ts = 0;
        std::int64_t last_ts = 0;
        std::uint64_t points = 0;
        bool persisted = false;  ///< definition written to the active segment
        std::vector<block> blocks;   ///< committed, (segment, offset) order
        std::vector<point> pending;  ///< buffered, not yet committed
    };

    bool scan_segment(std::uint64_t seq, bool newest, std::string* error);
    bool open_active_locked(std::string* error);
    bool write_frame_locked(std::uint8_t kind, const std::string& body,
                            std::uint64_t* offset);
    bool rotate_locked();
    void apply_retention_locked();
    std::string segment_path(std::uint64_t seq) const;
    std::uint32_t intern_locked(const std::string& name,
                                const std::string& label);

    std::string dir_;
    options opt_;

    mutable std::mutex mutex_;
    std::vector<series_state> series_;  // index = id
    std::map<std::pair<std::string, std::string>, std::uint32_t> by_key_;
    std::vector<event_ref> events_;       // committed, time order
    std::vector<event> pending_events_;   // buffered
    std::vector<std::uint64_t> segments_;  // on disk, ascending seq
    /// Series ids whose definition open() recovered from the newest
    /// segment — the only ones already persisted in the resumed active
    /// segment (see open_active_locked).
    std::vector<std::uint32_t> active_seg_defs_;
    std::map<std::uint64_t, std::uint64_t> segment_bytes_;
    std::map<std::uint64_t, std::int64_t> segment_max_ts_;
    int active_fd_ = -1;
    std::uint64_t active_seq_ = 0;
    std::uint64_t active_size_ = 0;
    std::int64_t newest_ts_ = 0;
    bool any_ts_ = false;

    std::uint64_t recovered_points_ = 0;
    std::uint64_t truncated_bytes_ = 0;
    std::uint64_t duplicate_points_ = 0;
    std::uint64_t retired_segments_ = 0;

    counter commits_, rotations_, retired_, duplicates_, write_errors_;
};

}  // namespace v6::obs::tsdb
