// federate.h — fleet telemetry federation: the remote-write path that
// turns N isolated v6stream collectors into one observable fleet.
//
// The paper's measurements come from many vantage points whose
// observations must be combined before temporal/spatial classification
// is meaningful (Plonka & Berger 2015 §3). PRs 2–7 built a deep
// single-process observability stack; this module federates it:
//
//   * telemetry_pusher (client) — owned by a collector. Serializes
//     metric snapshots, seal-derived series, HLL/P² sketches, and
//     leveled events into V6TEL1 frames (net/telwire.h) and writes
//     them over one TCP connection, reconnecting on failure. Pushes
//     are best-effort: a down aggregator costs the collector a counted
//     send failure, never ingest throughput or a block.
//
//   * telemetry_aggregator (server) — owned by v6agg (or any embedder).
//     One rx thread accepts pushes from N nodes, keeps a per-node
//     registry with last-seen/staleness tracking, merges pushed series
//     into a tsdb under `node=<id>` labels, and maintains per-day
//     global distinct-address estimates by exact HLL union across
//     nodes — the cross-vantage-point dedup the paper itself performs.
//     Register-wise max is associative, commutative, and idempotent,
//     so the union is exact regardless of arrival order or duplicated
//     pushes after a reconnect.
//
// The stream engine stays ignorant of sockets, stores and rules: its
// one seal hook, stream_config::on_seal, is a plain seal_fn the roll
// thread invokes with a seal_snapshot after each day seal (no engine
// lock held). v6stream composes that hook from the alert rules, the
// flight recorder (tsdb::seal_sink) and push_seal, in that order.
//
// Thread contract: every public method of both classes is safe from
// any thread (one internal mutex each; the aggregator's rx thread is
// internal). The aggregator mutex is a leaf next to the tsdb and
// event_log mutexes — nothing under it calls back out.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "v6class/net/telwire.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/sketch.h"

namespace v6::obs {

class metrics_server;
namespace tsdb {
class database;
}

namespace federate {

/// Joins a node identity into the label a federated series carries in
/// the tsdb: "" + "a" -> "node=a", "asn=13335" + "a" -> "asn=13335,node=a".
std::string node_label(const std::string& base_label,
                       const std::string& node);

/// What one day seal hands the seal hook: one point per live derived
/// series (ts = day, in the engine's live-series order) plus the merged
/// day sketches and P² estimators, by value, so the hook can record,
/// evaluate and serialize off the roll thread's critical path.
struct seal_snapshot {
    std::int64_t day = -1;
    std::vector<net::tel_sample> series;
    bool has_sketches = false;
    hyperloglog addresses{4};
    hyperloglog p48s{4};
    hyperloglog p64s{4};
    p2_quantile hits_p50{0.5};
    p2_quantile hits_p99{0.99};
};

/// The engine's per-seal hook (stream_config::on_seal). Called by the
/// roll thread after each seal's live update with no engine lock held;
/// a slow hook delays the next report, never ingest.
using seal_fn = std::function<void(const seal_snapshot&)>;

/// Serializes a snapshot's sketches into V6TEL1 entries (empty when
/// !has_sketches).
std::vector<net::tel_sketch> serialize_seal_sketches(const seal_snapshot& s);

// ------------------------------------------------------------- pusher

class telemetry_pusher {
public:
    struct config {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;
        std::string node = "node";
        /// Bound on how long one push may block in connect()/send():
        /// the hook runs on the roll thread, so a wedged aggregator
        /// must cost milliseconds, not a day roll.
        std::chrono::milliseconds io_timeout{1000};
    };

    explicit telemetry_pusher(config cfg);
    ~telemetry_pusher();

    telemetry_pusher(const telemetry_pusher&) = delete;
    telemetry_pusher& operator=(const telemetry_pusher&) = delete;

    const std::string& node() const noexcept { return cfg_.node; }

    /// Each push_* serializes one frame and sends it, connecting (or
    /// reconnecting after a failure) first. Returns false when the
    /// frame could not be delivered; the failure is counted and the
    /// next push retries the connection.
    bool push_status(const net::tel_status& s);
    bool push_series(const std::vector<net::tel_sample>& samples);
    bool push_events(const std::vector<event>& events);
    /// One seal = one series frame + one sketches frame.
    bool push_seal(const seal_snapshot& snap);

    std::uint64_t frames_sent() const;
    std::uint64_t send_failures() const;
    std::uint64_t reconnects() const;

private:
    bool ensure_connected_locked();
    bool send_frame_locked(const std::vector<std::uint8_t>& frame);
    void close_locked();

    config cfg_;
    mutable std::mutex mutex_;
    net::tel_encoder encoder_;
    int fd_ = -1;
    bool connected_once_ = false;
    std::uint64_t frames_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t reconnects_ = 0;
};

// --------------------------------------------------------- aggregator

/// One row of the per-node registry, as snapshotted for /api/nodes and
/// the fleet dashboard panel.
struct node_status {
    std::string name;
    bool fresh = false;          ///< seen within the staleness window
    double age_seconds = 0;      ///< since the last frame
    double last_seen_unix = 0;   ///< wall clock of the last frame
    std::uint64_t frames = 0;    ///< frames accepted from this node
    std::uint64_t records = 0;   ///< node's reported ingest count
    std::int64_t open_day = -1;  ///< node's reported open day
    std::int64_t sealed_day = -1;  ///< node's newest sealed day
    std::uint64_t seq_gaps = 0;  ///< frames presumed lost from this node
};

class telemetry_aggregator {
public:
    struct config {
        std::uint16_t port = 0;  ///< 0 = any free port (see port())
        /// A node is stale once this long passes without a frame; the
        /// node-absence alert path keys off the same window.
        std::chrono::milliseconds staleness{10000};
        /// Fleet counters/gauges (v6fleet_*) land here when non-null.
        registry* metrics = nullptr;
        /// Node lifecycle events (join/stale/recovered) land here.
        event_log* events = nullptr;
        /// Pushed series (under node= labels) and flushed global
        /// estimates land here when non-null.
        tsdb::database* tsdb = nullptr;
        /// Per-day global sketch state kept for the newest N days.
        int keep_days = 4;
    };

    explicit telemetry_aggregator(config cfg);
    ~telemetry_aggregator();

    telemetry_aggregator(const telemetry_aggregator&) = delete;
    telemetry_aggregator& operator=(const telemetry_aggregator&) = delete;

    /// Binds the TCP listener and starts the rx thread. False with
    /// `error` filled on bind/listen failure. Call at most once.
    bool start(std::string* error = nullptr);

    /// Flushes pending global-estimate series for the newest day,
    /// commits the tsdb, closes every connection, joins the rx thread.
    /// Idempotent.
    void stop();

    bool running() const noexcept { return running_; }
    std::uint16_t port() const noexcept { return port_; }

    /// Snapshot of the node registry, name-ordered.
    std::vector<node_status> nodes() const;

    /// The /api/nodes body: node registry plus the newest day's global
    /// estimates and codec totals.
    std::string nodes_json() const;

    /// The exact cross-node union for (day, sketch id) — register-wise
    /// identical to merging every node's pushed sketch locally. nullopt
    /// when the day is unknown (or outside the keep window) or the id
    /// is not an HLL sketch.
    std::optional<hyperloglog> global_sketch(std::int64_t day,
                                             std::uint8_t id) const;

    /// estimate() of global_sketch(day, id).
    std::optional<double> global_estimate(std::int64_t day,
                                          std::uint8_t id) const;

    /// Newest day any node has pushed sketches for (-1 when none).
    std::int64_t newest_day() const;

    /// Codec totals summed over all connections, live and closed.
    net::tel_decode_stats decode_stats() const;

    /// Alert-engine sampler: "v6fleet_node_up" with label "node=<id>"
    /// yields 1 while the node is fresh and nullopt once it is stale or
    /// unknown — so an `absent` rule fires within one hold-down of a
    /// collector going silent. "v6fleet_nodes" yields the fresh count.
    std::optional<double> sample(const std::string& series,
                                 const std::string& label) const;

    /// Mounts GET /api/nodes on `server` (call before server.start()).
    void register_http(metrics_server& server);

private:
    struct connection {
        int fd = -1;
        std::vector<std::uint8_t> buffer;
        net::tel_decoder decoder;
    };

    struct node_state {
        node_status status;
        std::chrono::steady_clock::time_point last_seen{};
        std::uint64_t high_seq = 0;
        bool seen_any = false;
        bool was_fresh = false;  ///< freshness at the last sweep
        gauge up;                ///< v6fleet_node_up{node=...}
    };

    struct day_state {
        hyperloglog addresses{4};
        hyperloglog p48s{4};
        hyperloglog p64s{4};
        bool have[3] = {false, false, false};
        bool flushed = false;
    };

    void rx_loop();
    void ingest_frame_locked(const net::tel_frame& frame);
    node_state& touch_node_locked(const std::string& name);
    void sweep_locked(std::chrono::steady_clock::time_point now);
    void flush_days_locked(bool include_newest);
    void update_fleet_gauges_locked();

    config cfg_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
    std::atomic<bool> running_{false};

    mutable std::mutex mutex_;
    std::map<std::string, node_state> nodes_;
    std::map<std::int64_t, day_state> days_;
    net::tel_decode_stats closed_stats_;  ///< from closed connections
    std::vector<connection> conns_;
    bool tsdb_dirty_ = false;

    counter frames_total_, rejected_total_, points_total_, events_total_;
    gauge nodes_gauge_, stale_gauge_;
    dgauge global_addresses_, global_48s_, global_64s_;
};

}  // namespace federate
}  // namespace v6::obs
