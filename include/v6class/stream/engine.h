// engine.h — the always-on streaming ingest engine (the "ongoing basis"
// deployment of Section 5.1).
//
// Architecture: records pushed into the engine are staged per shard
// (FNV-1a hash of the address's /64 prefix, the unit a subscriber or
// LAN is assigned) as SoA address lanes, batched, and handed to one
// bounded MPSC queue per shard; a worker thread per shard drains its
// queue, feeds the day sketches from the lanes, and appends them to
// the shard's open-day block. Lanes are the only ingest currency from
// the wire decoder to the shard seal; push(stream_record) is a thin
// adapter onto the same per-lane core. When the pusher observes a day
// boundary it broadcasts a seal marker behind the last batch of the
// finished day.
// A single roll thread applies each seal behind an exclusive state lock
// — the only writer of sealed state — by sealing every shard as one
// task of the v6::par pool, then folding the day's new /64s into the
// engine-level state; it advances the epoch, releases the workers, and
// then *asynchronously* builds the day's report (windowed nd-stable
// split; density rows and MRA ratios read off the counts) under a
// shared lock while ingest of the next day proceeds.
//
// Consistency model: "epoch" is the last day sealed across every shard.
// Queries take the state lock in shared mode and therefore always see
// a whole number of days — never a half-rolled one. Shards partition
// the /64s, so everything keyed by an address or by a /p prefix with
// p >= 64 merges exactly across shards by summing: distinct counts,
// spectra, stability, distinct /64s, and each shard's sorted run with
// its running MRA split histogram and density counts (see shard.h).
// What straddles shards is engine-level and also kept current in
// O(day): the sorted run of distinct /64 bases, whose neighbours'
// common-prefix lengths are the MRA splits above /64, and the counts
// of configured density classes with p < 64. Each seal folds only the
// day's first sightings into them; no report or query re-sorts
// history.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "v6class/obs/drift.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/federate.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/sketch.h"
#include "v6class/obs/trace.h"
#include "v6class/simd/address_block.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"
#include "v6class/stream/bounded_queue.h"
#include "v6class/stream/record.h"
#include "v6class/stream/shard.h"

namespace v6 {

/// Sentinel for "no day sealed / observed yet".
inline constexpr int kNoDay = std::numeric_limits<int>::min();

/// Tuning and analysis parameters of a stream engine.
struct stream_config {
    unsigned shards = 4;              ///< ingest parallelism (>= 1)
    std::size_t batch_size = 1024;    ///< records per enqueued batch
    std::size_t queue_capacity = 64;  ///< batches per shard queue (backpressure)
    unsigned stability_n = 3;         ///< n of the daily report's nd-stable split
    stability_options window{};       ///< sliding window for the daily split
    unsigned spectrum_max = 14;       ///< max n of snapshot lifetime spectra
    /// Density classes of the daily report and snapshot (Table 3 rows).
    std::vector<std::pair<std::uint64_t, unsigned>> density_classes = {{2, 112}};

    /// Registry the engine interns its metrics into. Null (default)
    /// means an engine-private registry (see stream_engine::metrics());
    /// pass &obs::registry::global() to share one exposition endpoint
    /// with the library phase timers, as v6stream does. Two engines
    /// sharing one registry accumulate into the same series.
    obs::registry* metrics_registry = nullptr;

    /// False skips the sampled instrumentation — queue-depth gauges,
    /// seal/report latency histograms, per-shard counters — for
    /// benchmarking the bare hot path (bench/micro_obs_overhead). The
    /// core feed counters behind stats() are always maintained.
    bool metrics = true;

    /// False skips the streaming sketches (per-day HLL distinct
    /// estimates, P² hit-count quantiles) and with them those live
    /// series — bench/micro_sketch holds their cost under 3% of ingest.
    bool sketches = true;
    unsigned hll_precision = 14;  ///< 2^p registers per day-HLL (~0.8% err)
    /// Every Nth accepted record feeds the P² hit-count quantiles
    /// (1 = all). P² costs ~100ns per observation on the serial feed
    /// path; systematic 1-in-8 sampling makes it free while leaving
    /// the quantiles of a mixed stream statistically unchanged.
    unsigned quantile_sample = 8;

    /// Ring capacity of every live derived series (dashboard history).
    std::size_t history = 512;

    /// Drift detection over the derived series; events are raised into
    /// `events` (or an engine-private log when null — v6stream passes
    /// &obs::event_log::global() so --events-out sees them).
    obs::drift_options drift{};
    obs::event_log* events = nullptr;

    /// Seal hook: the roll thread calls it once per seal, after the
    /// live series took the day's values and before the day report is
    /// published, holding no engine lock. The seal_snapshot carries the
    /// day, one (metric, label, value) row per live series in live()
    /// order, and — with sketches on — the merged day HLLs and the P²
    /// hit-count estimators. Every seal consumer (flight recorder,
    /// alert rules, federation push) hangs off this one hook; v6stream
    /// composes them. A slow hook delays the next report, never ingest.
    obs::federate::seal_fn on_seal{};
};

/// Feed-side and sealed-side counters: a thin view over the engine's
/// metrics registry (same numbers a /metrics scrape reports), plus the
/// lock-consistent day fields. Invariant: fed == records + late_dropped
/// + dropped.
struct stream_stats {
    std::uint64_t fed = 0;           ///< every record offered to push()
    std::uint64_t records = 0;       ///< accepted records
    std::uint64_t hits = 0;          ///< sum of their hit counts
    std::uint64_t late_dropped = 0;  ///< records older than the open day
    std::uint64_t dropped = 0;       ///< records pushed after finish()
    std::uint64_t batches = 0;       ///< batches enqueued to shard queues
    int open_day = kNoDay;           ///< day currently accumulating
    int sealed_day = kNoDay;         ///< epoch: last day sealed everywhere
    std::size_t distinct_addresses = 0;  ///< distinct /128s, sealed days
    std::size_t distinct_projected = 0;  ///< distinct /64 prefixes, sealed days
};

/// The asynchronous roll-up produced when a day seals.
struct day_report {
    int day = kNoDay;      ///< the day that sealed
    int ref_day = kNoDay;  ///< day classified: day - window_fwd (full window)
    std::uint64_t active = 0;      ///< addresses active on ref_day
    std::uint64_t stable = 0;      ///< of those, nd-stable in the window
    std::uint64_t not_stable = 0;  ///< the rest
    std::size_t distinct_addresses = 0;  ///< totals as of this epoch
    std::size_t distinct_projected = 0;
    std::vector<density_row> density;  ///< configured n@/p classes

    // Live derived series, evaluated when this day sealed (see
    // stream_engine::live): MRA count ratios over the distinct set,
    // the nd-stable fraction of the classified day, and the sketch
    // estimates of the sealed day's distinct addresses / /48s / /64s
    // (zero when cfg.sketches is off).
    double gamma1 = 1;   ///< gamma^1 at p=64 (n_65 / n_64)
    double gamma4 = 1;   ///< gamma^4 at p=60 (n_64 / n_60)
    double gamma16 = 1;  ///< gamma^16 at p=48 (n_64 / n_48)
    double stable_fraction = 0;  ///< stable / active (0 when no active)
    double est_day_addresses = 0, est_day_48s = 0, est_day_64s = 0;

    // Introspection sampled at this seal: the v6::par pool's seat
    // utilization over the interval since the previous seal (0..1, 0
    // while the pool sat idle).
    double pool_utilization = 0;
    /// Instructions per cycle inside shard.ingest_batch scopes over the
    /// same inter-seal interval (0 without a hardware PMU or while
    /// pmu_scope collection is disabled).
    double ingest_ipc = 0;
};

/// Snapshot of one live derived series (dashboard / queries).
struct live_series_view {
    std::string name;             ///< display name, e.g. "gamma16@48"
    std::string help;
    std::string metric;           ///< registry metric name (v6class_*)
    std::string label;            ///< seal row label ("" or the class label)
    double current = 0;
    bool alarmed = false;         ///< drift alarm fired on the last sample
    std::vector<double> history;  ///< ring-buffer contents, oldest first
};

/// Everything the /dashboard page draws, at one instant.
struct live_view {
    int epoch = kNoDay;
    std::vector<live_series_view> series;
    std::vector<obs::event> events;  ///< recent, oldest first
};

/// A consistent cross-shard summary at one epoch.
struct stream_snapshot {
    int epoch = kNoDay;  ///< sealed day the sealed-state fields describe
    std::uint64_t records = 0;
    std::uint64_t hits = 0;
    std::uint64_t late_dropped = 0;
    std::size_t distinct_addresses = 0;
    std::size_t distinct_projected = 0;
    std::vector<std::uint64_t> spectrum;  ///< lifetime spectrum, 0..spectrum_max
    std::vector<density_row> density;     ///< configured n@/p classes
};

class stream_engine {
public:
    explicit stream_engine(stream_config cfg = {});

    /// Finishes (sealing the open day) if the caller has not.
    ~stream_engine();

    stream_engine(const stream_engine&) = delete;
    stream_engine& operator=(const stream_engine&) = delete;

    const stream_config& config() const noexcept { return cfg_; }

    /// Accepts one record. Blocks only when the record's shard queue is
    /// full (backpressure). Records for a day older than the open day
    /// are dropped and counted (sealed days are immutable). Counted as
    /// dropped after finish().
    void push(const stream_record& r);
    void push(int day, const address& a, std::uint64_t hits = 1) {
        push(stream_record{day, a, hits});
    }

    /// Accepts one decoded block (SoA lanes + day/hits columns) under a
    /// single push-lock acquisition — the ingest path the wire decoder
    /// feeds. Semantically identical to push() per record.
    void push_block(const simd::record_block& block);

    /// Pushes staged partial batches to the shard queues (records stage
    /// until batch_size accumulates; call before waiting on a report
    /// mid-day, not needed otherwise).
    void flush();

    /// Seals the open day, drains every queue, joins all threads and
    /// emits the final day report. Idempotent. After finish() the
    /// queries below remain valid.
    void finish();

    // ------------------------------------------------------------ queries

    stream_stats stats() const;

    /// The registry this engine's metrics live in (its own unless
    /// cfg.metrics_registry injected one). Series: v6_stream_*_total
    /// feed counters, per-shard v6_stream_queue_depth / _high_water /
    /// _shard_records_total, day gauges (open/sealed/epoch lag,
    /// distinct counts), and the seal-latency / report-build
    /// histograms.
    obs::registry& metrics() const noexcept { return *metrics_; }

    /// Epoch (last sealed day), kNoDay when nothing has sealed.
    int sealed_day() const;

    /// Consistent cross-shard summary at the current epoch.
    stream_snapshot snapshot() const;

    /// Windowed nd-stable split of ref_day's active set, merged across
    /// shards; byte-identical to the batch stability_analyzer over the
    /// same sealed days.
    stability_split classify_day(int ref_day, unsigned n) const;

    /// Lifetime spectrum (span >= n) over all sealed days.
    std::vector<std::uint64_t> stability_spectrum(unsigned max_n) const;

    /// Table-3 rows over the distinct addresses of all sealed days:
    /// configured classes from their running counts, any other class by
    /// one footnote-3 pass over the shards' runs, merged.
    std::vector<density_row> density_table(
        const std::vector<std::pair<std::uint64_t, unsigned>>& classes) const;

    /// Distinct addresses of all sealed days, sorted (the shards' runs,
    /// merged).
    std::vector<address> distinct_addresses() const;

    /// MRA aggregate counts/ratios over the distinct addresses, from
    /// the running common-prefix-length histograms.
    mra_series mra() const;

    /// The live derived series (ring histories, drift flags) plus the
    /// newest `events_n` log events — the /dashboard model. Histories
    /// gain one point per sealed day.
    live_view live(std::size_t events_n = 32) const;

    /// Day reports emitted so far, oldest first.
    std::vector<day_report> reports() const;
    std::optional<day_report> latest_report() const;

    /// Blocks until the report for `day` exists (returns it) or the
    /// engine finishes without ever sealing `day` (returns nullopt).
    std::optional<day_report> wait_for_report(int day) const;

private:
    struct shard_message {
        enum class kind { batch, seal };
        kind k = kind::batch;
        int day = kNoDay;  // seal only
        simd::address_block batch{0};  // batch only
        // Span context riding the batch: captured at enqueue so the
        // worker's ingest span parents to the pusher's span and the
        // queue dwell time is recorded as a queue_wait span. Zero when
        // tracing is off.
        obs::span_context ctx{};
        std::uint64_t enqueue_ns = 0;
    };

    // push_mutex_ held: the per-lane core behind push() and push_block().
    void push_lane_locked(int day, std::uint64_t hi, std::uint64_t lo,
                          std::uint64_t hits);
    void worker_loop(unsigned shard);
    void roll_loop();
    void flush_shard_locked(unsigned shard);   // push_mutex_ held
    void broadcast_seal_locked(int day);       // push_mutex_ held
    day_report build_report(int day) const;    // takes state_mutex_ shared
    /// state_mutex_ held exclusively, shards just sealed: merges the
    /// day's new /64s (disjoint across shards) into prefix_run_, and
    /// counts the classes with p < 64 from the shards' new addresses —
    /// their store keys past `seen`, each shard's pre-seal distinct count.
    void merge_prefix_run(const std::vector<std::size_t>& seen);
    /// state_mutex_ held (either mode): the sealed state's totals,
    /// summed over the shards and the engine-level parts.
    std::size_t distinct_addresses_locked() const;
    std::size_t distinct_prefixes_locked() const;
    std::array<std::uint64_t, 129> cpl_hist_locked() const;
    std::vector<density_count> density_counts_locked() const;
    /// The shards' runs merged into one sorted block.
    simd::address_block merged_run_locked() const;
    void init_metrics();
    void init_live();

    /// A broadcast seal not yet applied, with the P² hit-count
    /// estimators as they stood at its day boundary.
    struct pending_seal {
        int day = kNoDay;
        obs::p2_quantile hits_p50{0.5}, hits_p99{0.99};
    };

    void merge_day_sketches();  // roll thread, workers parked
    /// Roll thread: pushes this seal's value into every live series
    /// (gauge, ring history, drift detector — raising drift events).
    void update_live(const day_report& report, const pending_seal& seal);
    /// Roll thread: the seal hook's snapshot — the just-fed live series
    /// as rows, plus the day's merged sketches when they are on.
    obs::federate::seal_snapshot make_seal_snapshot(
        const pending_seal& seal) const;

    /// Pre-interned handles; instrumented code never touches the
    /// registry after construction. The sampled handles (gauges,
    /// histograms, per-shard counters) are null when cfg_.metrics is
    /// off — null handles are no-ops.
    struct metric_handles {
        obs::counter fed, records, hits, late, dropped, batches, seals;
        obs::gauge open_day, sealed_day, epoch_lag;
        obs::gauge distinct_addresses, distinct_projected;
        std::vector<obs::counter> shard_records;   // one per shard
        std::vector<obs::gauge> queue_depth;       // one per shard
        std::vector<obs::gauge> queue_high_water;  // one per shard
        obs::histogram seal_latency, report_build;
    };

    stream_config cfg_;
    std::unique_ptr<obs::registry> own_metrics_;  // when none injected
    obs::registry* metrics_ = nullptr;
    metric_handles m_;
    std::unique_ptr<obs::event_log> own_events_;  // when none injected
    obs::event_log* events_ = nullptr;

    /// Day-scoped sketches, one set per shard: written only by that
    /// shard's worker while the day is open, merged and reset by the
    /// roll thread while every worker is parked at the seal marker (the
    /// roll_mutex_ handshake orders both directions).
    struct day_sketches {
        obs::hyperloglog addresses, p48s, p64s;
        explicit day_sketches(unsigned precision)
            : addresses(precision), p48s(precision), p64s(precision) {}
    };
    std::vector<day_sketches> shard_sketches_;

    /// P² hit-count quantiles, fed in push() under push_mutex_. The
    /// roll thread must NOT take push_mutex_ to read them — the pusher
    /// can hold it across a blocking queue push, and the seal pipeline
    /// waiting on a backpressured pusher deadlocks — so
    /// broadcast_seal_locked copies them into the day's pending_seal
    /// and the roll thread reads only that copy.
    obs::p2_quantile hits_p50_{0.5}, hits_p99_{0.99};
    std::uint64_t quantile_tick_ = 0;  // push_mutex_; 1-in-N sampler

    /// The sealed day's sketches merged across shards (roll thread
    /// only): the day report's estimates and the seal hook's registers.
    obs::hyperloglog day_addresses_{4}, day_48s_{4}, day_64s_{4};

    /// One live derived series: the registry gauge, the dashboard's
    /// ring history, and — for classification series only — its drift
    /// detector. Introspection series (pool utilization, ingest IPC)
    /// describe the machine, not the addresses, and move with
    /// scheduling noise, so they carry no detector. All guarded by
    /// live_mutex_ (written once per seal by the roll thread, read by
    /// /dashboard).
    struct live_series {
        std::string name;
        std::string help;
        std::string metric;  ///< registry metric name (seal row name)
        std::string label;   ///< seal row label ("" or the class label value)
        obs::dgauge gauge;
        obs::ring_history history;
        std::optional<obs::ewma_detector> detector;
        bool alarmed = false;
        live_series(std::string n, std::string h, obs::dgauge g,
                    std::size_t capacity)
            : name(std::move(n)), help(std::move(h)), gauge(g),
              history(capacity) {}
    };
    mutable std::mutex live_mutex_;
    std::vector<live_series> live_;
    // Fixed indices into live_ (dense classes follow, then sketches).
    std::size_t li_gamma1_ = 0, li_gamma4_ = 0, li_gamma16_ = 0;
    std::size_t li_stable_fraction_ = 0, li_active_ = 0;
    std::size_t li_hits_p50_ = 0, li_hits_p99_ = 0;
    std::size_t li_dense_first_ = 0;   // one per cfg_.density_classes entry
    std::size_t li_est_first_ = 0;     // addrs, /48s, /64s (sketches on)
    std::size_t li_pool_util_ = 0;
    // SIZE_MAX = not registered (no hardware PMU on this machine).
    std::size_t li_pmu_ipc_ = SIZE_MAX;
    obs::counter drift_events_;
    // Pool-utilization baseline from the previous seal (roll thread).
    std::uint64_t last_busy_ns_ = 0;
    std::uint64_t last_util_wall_ns_ = 0;
    // shard.ingest_batch counter baselines from the previous seal
    // (roll thread only), for the per-interval IPC series.
    std::uint64_t pmu_last_cycles_ = 0;
    std::uint64_t pmu_last_instr_ = 0;
    std::vector<std::unique_ptr<stream_shard>> shards_;
    std::vector<std::unique_ptr<bounded_queue<shard_message>>> queues_;
    std::vector<std::thread> workers_;
    std::thread roll_thread_;

    // Pusher state: staging buffers and day detection. The feed
    // counters that used to live here are now the m_ registry series
    // (still written under push_mutex_, so stats() stays exact).
    std::mutex finish_mutex_;  // serializes finish() callers
    mutable std::mutex push_mutex_;
    std::vector<simd::address_block> staging_;  // per shard
    int open_day_ = kNoDay;
    bool finished_ = false;

    // Seal pipeline: drained/applied day handshake between workers and
    // the roll thread.
    mutable std::mutex roll_mutex_;
    mutable std::condition_variable roll_cv_;
    std::deque<pending_seal> seal_days_;  // broadcast, not yet applied
    std::vector<int> drained_day_;  // per shard: last seal marker reached
    int applied_day_ = kNoDay;      // last seal applied to all shards
    bool stopping_ = false;

    // Sealed state: written only by the roll thread (exclusive), read by
    // every query (shared). Beside the shards, only what straddles them:
    // the distinct /64 bases of every sealed day as one sorted run (its
    // cpl histogram holds the global run's splits above /64: adjacent
    // addresses in different /64s have their /64s' common prefix), and
    // the counts of the configured classes with p < 64 (coarse_classes_,
    // in configuration order). Both change only at seal.
    mutable std::shared_mutex state_mutex_;
    int sealed_day_ = kNoDay;
    sorted_run prefix_run_;
    std::vector<density_class> coarse_classes_;
    std::vector<density_count> coarse_counts_;  // per coarse_classes_

    // Emitted reports.
    mutable std::mutex reports_mutex_;
    mutable std::condition_variable report_cv_;
    std::deque<day_report> reports_;
    bool rolls_done_ = false;
};

}  // namespace v6
