#include "v6class/stream/engine.h"

#include <algorithm>
#include <utility>

#include "v6class/obs/introspect.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/trace.h"
#include "v6class/par/pool.h"
#include "v6class/simd/kernels.h"

namespace v6 {

namespace {

/// Ring capacity of every live derived series (dashboard history).
constexpr std::size_t kLiveHistory = 512;

/// FNV-1a over an address's 16 bytes read from its (hi, lo) lanes —
/// address_hash's hash, with the running value snapshotted after the
/// /48 and /64 bytes. Shard choice uses `p64` (fnv1a_p64); the day
/// sketches use all three, so their registers match any node hashing
/// the bytes.
struct lane_hashes {
    std::uint64_t p48, p64, p128;
};

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Folds bytes [first, last) of a lane (most significant first) into
/// the FNV-1a value h.
inline std::uint64_t fnv1a_fold(std::uint64_t h, std::uint64_t lane, int first,
                                int last) noexcept {
    constexpr std::uint64_t kPrime = 1099511628211ull;
    for (int i = first; i < last; ++i)
        h = (h ^ ((lane >> (56 - 8 * i)) & 0xff)) * kPrime;
    return h;
}

inline lane_hashes fnv1a_lanes(std::uint64_t hi, std::uint64_t lo) noexcept {
    lane_hashes out{};
    out.p48 = fnv1a_fold(kFnvBasis, hi, 0, 6);
    out.p64 = fnv1a_fold(out.p48, hi, 6, 8);
    out.p128 = fnv1a_fold(out.p64, lo, 0, 8);
    return out;
}

/// fnv1a_lanes(hi, lo).p64: the /64 hash, from the hi lane alone.
inline std::uint64_t fnv1a_p64(std::uint64_t hi) noexcept {
    return fnv1a_fold(kFnvBasis, hi, 0, 8);
}

/// Merges sorted sequences whose /64s are disjoint — the shards' — into
/// one sorted order by interleaving whole /64 groups: repeatedly the
/// group at the lowest head. sizes[i] is sequence i's length, hi(i, k)
/// the hi lane of its element k, and emit(i, k) takes that element.
template <class Hi, class Emit>
void interleave_p64_groups(const std::vector<std::size_t>& sizes, Hi&& hi,
                           Emit&& emit) {
    const std::size_t parts = sizes.size();
    std::vector<std::size_t> at(parts, 0);
    for (;;) {
        std::size_t best = parts;
        for (std::size_t i = 0; i < parts; ++i)
            if (at[i] < sizes[i] &&
                (best == parts || hi(i, at[i]) < hi(best, at[best])))
                best = i;
        if (best == parts) return;
        const std::uint64_t group = hi(best, at[best]);
        do {
            emit(best, at[best]);
        } while (++at[best] < sizes[best] && hi(best, at[best]) == group);
    }
}

}  // namespace

void stream_engine::init_metrics() {
    if (cfg_.metrics_registry) {
        metrics_ = cfg_.metrics_registry;
    } else {
        own_metrics_ = std::make_unique<obs::registry>();
        metrics_ = own_metrics_.get();
    }
    obs::registry& reg = *metrics_;
    // Core feed counters: always on; stats() is a view over these.
    m_.fed = reg.get_counter("v6_stream_fed_total", {},
                             "Records offered to push() (accepted + late + "
                             "dropped).");
    m_.records = reg.get_counter("v6_stream_records_total", {},
                                 "Records accepted into the open day.");
    m_.hits = reg.get_counter("v6_stream_hits_total", {},
                              "Sum of accepted records' hit counts.");
    m_.late = reg.get_counter("v6_stream_late_total", {},
                              "Records older than the open day, dropped "
                              "(sealed days are immutable).");
    m_.dropped = reg.get_counter("v6_stream_dropped_total", {},
                                 "Records pushed after finish(), dropped.");
    m_.batches = reg.get_counter("v6_stream_batches_total", {},
                                 "Batches enqueued to shard queues.");
    m_.seals = reg.get_counter("v6_stream_seals_total", {},
                               "Day seals applied across all shards.");
    m_.open_day = reg.get_gauge("v6_stream_open_day", {},
                                "Day currently accumulating.");
    m_.sealed_day = reg.get_gauge("v6_stream_sealed_day", {},
                                  "Epoch: last day sealed everywhere.");
    m_.epoch_lag = reg.get_gauge("v6_stream_epoch_lag_days", {},
                                 "open_day - sealed_day: how far the roll "
                                 "pipeline trails ingest.");
    m_.distinct_addresses =
        reg.get_gauge("v6_stream_distinct_addresses", {},
                      "Distinct /128s across all sealed days.");
    m_.distinct_projected =
        reg.get_gauge("v6_stream_distinct_projected", {},
                      "Distinct projected prefixes across all sealed days.");
    // Which batch-kernel dispatch level this process runs (the numeric
    // v6::simd::level value), labeled with its name; 0 = scalar (forced
    // via V6CLASS_FORCE_SCALAR or no AVX2), 2 = avx2.
    reg.get_gauge("v6class_simd_level",
                  {{"level", std::string(simd::level_name(simd::active_level()))}},
                  "Active SIMD dispatch level of the batch kernels.")
        .set(static_cast<std::int64_t>(simd::active_level()));
    if (!cfg_.metrics) return;
    // Sampled instrumentation: per-shard series and latency histograms.
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        const obs::label_list shard{{"shard", std::to_string(i)}};
        m_.shard_records.push_back(reg.get_counter(
            "v6_stream_shard_records_total", shard,
            "Records accepted per shard. Shards own whole /64s, so skew "
            "(max/min across shards) follows the feed's per-/64 volume."));
        m_.queue_depth.push_back(
            reg.get_gauge("v6_stream_queue_depth", shard,
                          "Batches waiting in the shard queue."));
        m_.queue_high_water.push_back(
            reg.get_gauge("v6_stream_queue_high_water", shard,
                          "Deepest the shard queue has been."));
    }
    m_.seal_latency = reg.get_histogram(
        "v6_stream_seal_latency_seconds", obs::latency_buckets(), {},
        "Time to apply one day seal: every shard sealed in parallel on the "
        "work pool, then the cross-shard /64 run (exclusive state lock "
        "held).");
    m_.report_build = reg.get_histogram(
        "v6_stream_report_build_seconds", obs::latency_buckets(), {},
        "Time to recompute a day report (overlaps next-day ingest).");
}

void stream_engine::init_live() {
    // Domain-level (classification) series live in the v6class_*
    // namespace, infrastructure series in v6_stream_* — see DESIGN.md
    // "Observability". Each gets a ring history; the classification
    // series also get a drift detector.
    obs::registry& reg = *metrics_;
    drift_events_ = reg.get_counter(
        "v6class_drift_events_total", {},
        "Drift alarms raised over the live derived series.");
    const auto add = [&](std::string name, const std::string& metric,
                         std::string help, obs::label_list labels = {},
                         bool detect = true) {
        // The row label is the first label's value ("" when unlabeled)
        // — enough to tell the dense-class series apart.
        std::string label = labels.empty() ? std::string{} : labels[0].second;
        live_.emplace_back(std::move(name), help,
                           reg.get_dgauge(metric, std::move(labels), help),
                           kLiveHistory);
        if (detect) live_.back().detector.emplace();
        live_.back().metric = metric;
        live_.back().label = std::move(label);
        return live_.size() - 1;
    };
    li_gamma1_ = add("gamma1@64", "v6class_gamma1_64",
                     "MRA count ratio gamma^1 at p=64 (n_65 / n_64): how "
                     "eagerly /64s split one level down.");
    li_gamma4_ = add("gamma4@60", "v6class_gamma4_60",
                     "MRA count ratio gamma^4 at p=60 (n_64 / n_60): /64s "
                     "per active /60.");
    li_gamma16_ = add("gamma16@48", "v6class_gamma16_48",
                      "MRA count ratio gamma^16 at p=48 (n_64 / n_48): /64s "
                      "per active /48 site.");
    li_stable_fraction_ =
        add("stable_fraction", "v6class_stable_fraction",
            "nd-stable share of the classified day's active addresses.");
    li_active_ = add("active", "v6class_active_addresses",
                     "Addresses active on the classified day.");
    li_hits_p50_ = add("hits_p50", "v6class_hits_p50",
                       "P2-estimated median of per-record hit counts.");
    li_hits_p99_ = add("hits_p99", "v6class_hits_p99",
                       "P2-estimated 99th percentile of per-record hit "
                       "counts.");
    li_dense_first_ = live_.size();
    for (const auto& [n, p] : cfg_.density_classes) {
        const std::string klass = std::to_string(n) + "@" + std::to_string(p);
        add("dense " + std::to_string(n) + "@/" + std::to_string(p),
            "v6class_dense_prefixes",
            "Prefixes meeting the " + klass + " density class.",
            {{"class", klass}});
    }
    li_est_first_ = live_.size();
    if (cfg_.sketches) {
        add("day_addrs_est", "v6class_day_distinct_addresses_estimate",
            "HLL estimate of the sealed day's distinct addresses.");
        add("day_48s_est", "v6class_day_distinct_48s_estimate",
            "HLL estimate of the sealed day's distinct /48 prefixes.");
        add("day_64s_est", "v6class_day_distinct_64s_estimate",
            "HLL estimate of the sealed day's distinct /64 prefixes.");
    }
    // Infrastructure introspection surfaced as a sparkline: how busy
    // the work pool's seats were between seals. No drift detector: it
    // describes the machine, not the addresses, and a steady feed must
    // raise no drift events on scheduling noise.
    li_pool_util_ = add("pool util", "v6_par_pool_utilization",
                        "v6::par pool seat utilization between this seal "
                        "and the previous one (0..1).",
                        {}, false);
    // Per-interval ingest IPC rides the same machinery, but only where
    // a hardware PMU exists — a permanently-zero series would just
    // waste a dashboard tile and tsdb space on software-only boxes.
    if (obs::pmu::available().hardware())
        li_pmu_ipc_ = add("ingest ipc", "v6class_pmu_ingest_ipc",
                          "Instructions per cycle inside shard.ingest_batch "
                          "scopes between this seal and the previous one.",
                          {}, false);
}

stream_engine::stream_engine(stream_config cfg)
    : cfg_(std::move(cfg)) {
    if (cfg_.shards == 0) cfg_.shards = 1;
    if (cfg_.batch_size == 0) cfg_.batch_size = 1;
    init_metrics();
    if (cfg_.events) {
        events_ = cfg_.events;
    } else {
        own_events_ = std::make_unique<obs::event_log>();
        events_ = own_events_.get();
    }
    init_live();
    if (cfg_.sketches) {
        shard_sketches_.reserve(cfg_.shards);
        for (unsigned i = 0; i < cfg_.shards; ++i)
            shard_sketches_.emplace_back(kDayHllPrecision);
    }
    shards_.reserve(cfg_.shards);
    queues_.reserve(cfg_.shards);
    staging_.reserve(cfg_.shards);
    drained_day_.assign(cfg_.shards, kNoDay);
    // Classes with p >= 64 never straddle shards: each shard counts its
    // own. Coarser ones are counted here.
    std::vector<density_class> fine;
    for (const density_class& cls : cfg_.density_classes)
        (cls.second >= kShardPrefixLength ? fine : coarse_classes_).push_back(cls);
    coarse_counts_.resize(coarse_classes_.size());
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        staging_.emplace_back(cfg_.batch_size);
        shards_.push_back(std::make_unique<stream_shard>(fine, cfg_.window));
        queues_.push_back(
            std::make_unique<bounded_queue<shard_message>>(cfg_.queue_capacity));
    }
    workers_.reserve(cfg_.shards);
    for (unsigned i = 0; i < cfg_.shards; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
    roll_thread_ = std::thread([this] { roll_loop(); });
}

stream_engine::~stream_engine() { finish(); }

// --------------------------------------------------------------- pusher

void stream_engine::push(const stream_record& r) {
    std::unique_lock lock(push_mutex_);
    m_.fed.inc();
    if (push_lane_locked(r.day, r.addr.hi(), r.addr.lo(), r.hits)) {
        m_.records.inc();
        m_.hits.inc(r.hits);
    }
}

std::optional<int> stream_engine::push_block(const simd::record_block& block) {
    // One lock acquisition per block (up to kWireMaxBatch records), not
    // per record, and one add per counter: the lock is held throughout,
    // so readers under push_mutex_ see whole blocks. fed goes first, so
    // fed >= records + late + dropped holds for lock-free readers too.
    std::unique_lock lock(push_mutex_);
    m_.fed.inc(block.size());
    const std::optional<int> start =
        finished_ ? std::nullopt : std::optional<int>(open_day_);
    const std::uint64_t* his = block.addrs.hi();
    const std::uint64_t* los = block.addrs.lo();
    std::uint64_t records = 0, hits = 0;
    for (std::size_t i = 0; i < block.size(); ++i)
        if (push_lane_locked(block.day[i], his[i], los[i], block.hits[i])) {
            ++records;
            hits += block.hits[i];
        }
    m_.records.inc(records);
    m_.hits.inc(hits);
    return start;
}

bool stream_engine::push_lane_locked(int day, std::uint64_t hi,
                                     std::uint64_t lo, std::uint64_t hits) {
    if (finished_) {
        m_.dropped.inc();
        return false;
    }
    if (open_day_ == kNoDay) {
        open_day_ = day;
        m_.open_day.set(day);
    }
    if (day < open_day_) {
        // Sealed (or about-to-seal) days are immutable; accepting this
        // record would tear the epoch. Count it so operators can see
        // feed disorder beyond the tolerated batching slew.
        m_.late.inc();
        return false;
    }
    if (day > open_day_) {
        // Day boundary: everything staged belongs to the finished day;
        // get it into the queues ahead of the seal markers.
        for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
        broadcast_seal_locked(open_day_);
        open_day_ = day;
        m_.open_day.set(day);
        // Lag is meaningful once sealing has started; both gauges are
        // atomics, so reading the roll thread's side here is safe.
        if (m_.seals.value() > 0)
            m_.epoch_lag.set(day - m_.sealed_day.value());
    }
    if (cfg_.sketches && ++quantile_tick_ >= cfg_.quantile_sample) {
        quantile_tick_ = 0;
        const auto h = static_cast<double>(hits);
        hits_p50_.observe(h);
        hits_p99_.observe(h);
    }
    const auto shard = static_cast<unsigned>(fnv1a_p64(hi) % cfg_.shards);
    staging_[shard].push_back(hi, lo);
    if (staging_[shard].size() >= cfg_.batch_size) flush_shard_locked(shard);
    return true;
}

void stream_engine::flush() {
    std::unique_lock lock(push_mutex_);
    if (finished_) return;
    for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
}

void stream_engine::flush_shard_locked(unsigned shard) {
    if (staging_[shard].empty()) return;
    shard_message msg;
    msg.k = shard_message::kind::batch;
    msg.batch = std::exchange(staging_[shard],
                              simd::address_block(cfg_.batch_size));
    if (obs::tracer::enabled()) {
        // Span context rides the batch: the shard worker adopts it and
        // accounts the queue dwell as a queue_wait span.
        msg.ctx = obs::tracer::current();
        msg.enqueue_ns = obs::tracer::now_ns();
    }
    m_.batches.inc();
    // Per-shard counting happens here, not per push: one fetch_add per
    // batch keeps the counter exact at batch granularity while costing
    // the hot path nothing.
    if (!m_.shard_records.empty())
        m_.shard_records[shard].inc(msg.batch.size());
    queues_[shard]->push(std::move(msg));  // blocks when full: backpressure
    if (cfg_.metrics) {
        // Sampled after the (possibly blocking) push: a full queue shows
        // as depth == capacity, which is the backpressure signal.
        const auto depth = static_cast<std::int64_t>(queues_[shard]->size());
        m_.queue_depth[shard].set(depth);
        m_.queue_high_water[shard].max_of(depth);
    }
}

void stream_engine::broadcast_seal_locked(int day) {
    for (unsigned i = 0; i < cfg_.shards; ++i) {
        shard_message msg;
        msg.k = shard_message::kind::seal;
        msg.day = day;
        queues_[i]->push(std::move(msg));
    }
    {
        // The P² estimators ride the seal entry: the roll thread folds
        // this copy into the day's live series and seal snapshot (it
        // cannot read the estimators directly; see the member comment).
        std::lock_guard roll(roll_mutex_);
        seal_days_.push_back({day, hits_p50_, hits_p99_});
    }
    roll_cv_.notify_all();
}

void stream_engine::finish() {
    // Serializes finishers (e.g. an explicit finish and the destructor).
    std::lock_guard finishing(finish_mutex_);
    {
        std::unique_lock lock(push_mutex_);
        if (finished_) {
            if (workers_.empty()) return;  // already finished and joined
        } else {
            finished_ = true;
            for (unsigned i = 0; i < cfg_.shards; ++i) flush_shard_locked(i);
            if (open_day_ != kNoDay) broadcast_seal_locked(open_day_);
        }
    }
    {
        std::lock_guard roll(roll_mutex_);
        stopping_ = true;
    }
    roll_cv_.notify_all();
    for (auto& q : queues_) q->close();
    for (auto& w : workers_) w.join();
    workers_.clear();
    if (roll_thread_.joinable()) roll_thread_.join();
}

// -------------------------------------------------------------- workers

void stream_engine::worker_loop(unsigned shard) {
    obs::name_thread("stream-worker-" + std::to_string(shard));
    while (auto msg = queues_[shard]->pop()) {
        if (cfg_.metrics)
            m_.queue_depth[shard].set(
                static_cast<std::int64_t>(queues_[shard]->size()));
        if (msg->k == shard_message::kind::batch) {
            if (msg->enqueue_ns != 0) {
                // The batch's dwell time in the shard queue, parented to
                // the pusher's span that enqueued it.
                const std::uint64_t now = obs::tracer::now_ns();
                obs::tracer::emit(
                    "shard.queue_wait", obs::span_kind::queue_wait,
                    {msg->ctx.trace_id, obs::tracer::next_id()},
                    msg->ctx.span_id, msg->enqueue_ns,
                    now > msg->enqueue_ns ? now - msg->enqueue_ns : 0);
            }
            obs::context_scope adopt(msg->ctx);
            obs::span batch_span("shard.ingest_batch");
            const simd::address_block& batch = msg->batch;
            if (cfg_.sketches) {
                // The day sketches ride the worker, not the pusher: the
                // hashing parallelizes across shards and stays off the
                // feed thread (bench/micro_sketch prices this). One
                // FNV-1a walk over the lanes' 16 bytes, snapshotted at
                // the /48 and /64 boundaries, yields all three sketch
                // hashes without masked-address copies.
                day_sketches& sk = shard_sketches_[shard];
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const lane_hashes h =
                        fnv1a_lanes(batch.hi_at(i), batch.lo_at(i));
                    sk.p48s.add(h.p48);
                    sk.p64s.add(h.p64);
                    sk.addresses.add(h.p128);
                }
            }
            shards_[shard]->buffer(batch);
            continue;
        }
        // Seal marker: hand the fully-staged day to the roll thread and
        // wait until it has been applied everywhere before touching the
        // next day's batches. The roll_mutex_ handshake orders this
        // worker's buffered writes before the roll thread's seal_day and
        // the seal_day writes before this worker's next buffer().
        std::unique_lock lock(roll_mutex_);
        drained_day_[shard] = msg->day;
        roll_cv_.notify_all();
        roll_cv_.wait(lock, [&] { return applied_day_ >= msg->day; });
    }
}

// ---------------------------------------------------------- roll thread

void stream_engine::roll_loop() {
    obs::name_thread("stream-roll");
    for (;;) {
        pending_seal seal;
        {
            std::unique_lock lock(roll_mutex_);
            roll_cv_.wait(lock, [&] { return stopping_ || !seal_days_.empty(); });
            if (seal_days_.empty()) {  // stopping, all seals applied
                lock.unlock();
                std::lock_guard done(reports_mutex_);
                rolls_done_ = true;
                report_cv_.notify_all();
                return;
            }
            seal = std::move(seal_days_.front());
            roll_cv_.wait(lock, [&] {
                return std::all_of(drained_day_.begin(), drained_day_.end(),
                                   [&](int d) { return d >= seal.day; });
            });
            seal_days_.pop_front();
        }
        const int day = seal.day;
        {
            // The only writer of sealed state; readers (queries, the
            // report build below) hold the lock shared. The histogram
            // covers exactly the exclusive section: how long ingest of
            // already-drained shards can stall behind a seal.
            obs::span span("seal_day", m_.seal_latency);
            std::unique_lock state(state_mutex_);
            // Shards share no sealed state, so each seals as one pool
            // task; the workers are parked, so nothing else touches them.
            par::run_indexed(shards_.size(), [&](std::size_t i) {
                obs::span shard_span("shard.seal");
                shards_[i]->seal_day(day);
            });
            merge_prefix_run();
            if (cfg_.sketches) merge_day_sketches();
            sealed_day_ = day;
            m_.distinct_addresses.set(
                static_cast<std::int64_t>(distinct_addresses_locked()));
            m_.distinct_projected.set(
                static_cast<std::int64_t>(distinct_prefixes_locked()));
        }
        m_.sealed_day.set(day);
        m_.seals.inc();
        m_.epoch_lag.set(std::max<std::int64_t>(0, m_.open_day.value() - day));
        {
            std::lock_guard lock(roll_mutex_);
            applied_day_ = day;
        }
        roll_cv_.notify_all();  // release the parked workers: ingest resumes
        // Asynchronous roll-up: the expensive recompute overlaps ingest
        // of the next day (workers only park again at the *next* seal,
        // which cannot be applied until this loop comes round).
        day_report report;
        {
            obs::span span("build_report", m_.report_build);
            report = build_report(day);
        }
        // Pool seat utilization over the inter-seal interval:
        // delta(busy time) spread over delta(wall time) x seat count.
        // Roll-thread-only state, so plain members suffice.
        {
            const par::pool_stats ps = par::stats();
            const std::uint64_t wall = obs::tracer::now_ns();
            const unsigned seats = ps.workers + 1;  // callers hold a seat
            if (last_util_wall_ns_ != 0 && wall > last_util_wall_ns_) {
                const double busy =
                    static_cast<double>(ps.busy_ns - last_busy_ns_);
                const double span_ns =
                    static_cast<double>(wall - last_util_wall_ns_) * seats;
                report.pool_utilization =
                    std::min(1.0, span_ns > 0 ? busy / span_ns : 0.0);
            }
            last_busy_ns_ = ps.busy_ns;
            last_util_wall_ns_ = wall;
        }
        // Ingest IPC over the same interval: delta(instructions) /
        // delta(cycles) of the shard.ingest_batch site. Roll-thread-only
        // baselines, like the pool-utilization ones above.
        {
            const obs::pmu::site_stats ingest =
                obs::pmu::site_totals("shard.ingest_batch");
            if (ingest.has(obs::pmu::counter::cycles) &&
                ingest.has(obs::pmu::counter::instructions)) {
                const std::uint64_t cyc = ingest[obs::pmu::counter::cycles];
                const std::uint64_t ins =
                    ingest[obs::pmu::counter::instructions];
                if (cyc > pmu_last_cycles_)
                    report.ingest_ipc =
                        static_cast<double>(ins - pmu_last_instr_) /
                        static_cast<double>(cyc - pmu_last_cycles_);
                pmu_last_cycles_ = cyc;
                pmu_last_instr_ = ins;
            }
        }
        if (cfg_.metrics) obs::update_process_gauges(*metrics_);
        update_live(report, seal);
        if (cfg_.on_seal) cfg_.on_seal(make_seal_snapshot(seal));
        {
            std::lock_guard lock(reports_mutex_);
            reports_.push_back(std::move(report));
        }
        report_cv_.notify_all();
    }
}

day_report stream_engine::build_report(int day) const {
    std::shared_lock state(state_mutex_);
    day_report report;
    report.day = day;
    report.ref_day = day - cfg_.window.window_fwd;
    // Per-shard classification fans out through the work pool, counting
    // only; the sums below are order-independent, so the totals match
    // the serial path.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> tallies =
        par::map_indexed<std::pair<std::uint64_t, std::uint64_t>>(
            shards_.size(), [&](std::size_t i) {
                return shards_[i]->count_day(report.ref_day, cfg_.stability_n);
            });
    for (const auto& [stable, not_stable] : tallies) {
        report.stable += stable;
        report.not_stable += not_stable;
    }
    report.distinct_addresses = distinct_addresses_locked();
    report.distinct_projected = distinct_prefixes_locked();
    report.active = report.stable + report.not_stable;
    // Density and the live MRA ratios around the /64 boundary are read
    // off the running counts the seal keeps.
    report.density =
        compute_density_table(cfg_.density_classes, density_counts_locked());
    const mra_series mra = compute_mra_from_histogram(
        cpl_hist_locked(), report.distinct_addresses == 0);
    report.gamma1 = mra.ratio(64, 1);
    report.gamma4 = mra.ratio(60, 4);
    report.gamma16 = mra.ratio(48, 16);
    report.stable_fraction =
        report.active ? static_cast<double>(report.stable) /
                            static_cast<double>(report.active)
                      : 0.0;
    if (cfg_.sketches) {
        report.est_day_addresses = day_addresses_.estimate();
        report.est_day_48s = day_48s_.estimate();
        report.est_day_64s = day_64s_.estimate();
    }
    return report;
}

void stream_engine::merge_day_sketches() {
    // Roll thread, exclusive section: every worker is parked at this
    // day's seal marker, so their sketch sets are quiescent (the
    // roll_mutex_ handshake ordered their writes before ours) and the
    // reset below is published to them the same way.
    day_addresses_ = obs::hyperloglog(kDayHllPrecision);
    day_48s_ = obs::hyperloglog(kDayHllPrecision);
    day_64s_ = obs::hyperloglog(kDayHllPrecision);
    for (day_sketches& sk : shard_sketches_) {
        day_addresses_.merge(sk.addresses);
        day_48s_.merge(sk.p48s);
        day_64s_.merge(sk.p64s);
        sk.addresses.reset();
        sk.p48s.reset();
        sk.p64s.reset();
    }
}

void stream_engine::update_live(const day_report& report,
                                const pending_seal& seal) {
    std::lock_guard lock(live_mutex_);
    const auto feed = [&](std::size_t idx, double v) {
        live_series& s = live_[idx];
        s.history.push(v);
        s.gauge.set(v);
        const std::optional<obs::ewma_detector::alarm> a =
            s.detector ? s.detector->update(v) : std::nullopt;
        s.alarmed = a.has_value();
        if (a) {
            drift_events_.inc();
            events_->log(
                obs::event_level::warn, "drift",
                s.name + " shifted from " + std::to_string(a->mean) + " to " +
                    std::to_string(a->value),
                {{"series", obs::event_field_string(s.name)},
                 {"day", obs::event_field_number(report.day)},
                 {"value", obs::event_field_number(a->value)},
                 {"mean", obs::event_field_number(a->mean)},
                 {"sigma", obs::event_field_number(a->sigma)},
                 {"z", obs::event_field_number(a->z)}});
        }
    };
    feed(li_gamma1_, report.gamma1);
    feed(li_gamma4_, report.gamma4);
    feed(li_gamma16_, report.gamma16);
    feed(li_stable_fraction_, report.stable_fraction);
    feed(li_active_, static_cast<double>(report.active));
    feed(li_hits_p50_, seal.hits_p50.value());
    feed(li_hits_p99_, seal.hits_p99.value());
    for (std::size_t i = 0; i < report.density.size(); ++i)
        feed(li_dense_first_ + i,
             static_cast<double>(report.density[i].dense_prefix_count));
    if (cfg_.sketches) {
        feed(li_est_first_ + 0, report.est_day_addresses);
        feed(li_est_first_ + 1, report.est_day_48s);
        feed(li_est_first_ + 2, report.est_day_64s);
    }
    feed(li_pool_util_, report.pool_utilization);
    if (li_pmu_ipc_ != SIZE_MAX) feed(li_pmu_ipc_, report.ingest_ipc);
}

obs::federate::seal_snapshot stream_engine::make_seal_snapshot(
    const pending_seal& seal) const {
    obs::federate::seal_snapshot snap;
    snap.day = seal.day;
    {
        std::lock_guard lock(live_mutex_);
        snap.series.reserve(live_.size());
        for (const live_series& s : live_)
            if (s.history.size() > 0)
                snap.series.push_back(
                    {s.metric, s.label, seal.day, s.history.back()});
    }
    if (cfg_.sketches) {
        snap.has_sketches = true;
        snap.addresses = day_addresses_;
        snap.p48s = day_48s_;
        snap.p64s = day_64s_;
        snap.hits_p50 = seal.hits_p50;
        snap.hits_p99 = seal.hits_p99;
    }
    return snap;
}

live_view stream_engine::live(std::size_t events_n) const {
    live_view view;
    view.epoch = sealed_day();
    {
        std::lock_guard lock(live_mutex_);
        view.series.reserve(live_.size());
        for (const live_series& s : live_) {
            live_series_view v;
            v.name = s.name;
            v.help = s.help;
            v.metric = s.metric;
            v.label = s.label;
            v.current = s.history.size() ? s.history.back() : 0.0;
            v.alarmed = s.alarmed;
            v.history = s.history.values();
            view.series.push_back(std::move(v));
        }
    }
    view.events = events_->recent(events_n);
    return view;
}

// -------------------------------------------------------------- queries

stream_stats stream_engine::stats() const {
    stream_stats out;
    {
        // The counters are registry atomics, but reading them under
        // push_mutex_ keeps the view exact with respect to open_day_
        // (no half-applied push).
        std::unique_lock lock(push_mutex_);
        out.fed = m_.fed.value();
        out.records = m_.records.value();
        out.hits = m_.hits.value();
        out.late_dropped = m_.late.value();
        out.dropped = m_.dropped.value();
        out.batches = m_.batches.value();
        out.open_day = open_day_;
    }
    std::shared_lock state(state_mutex_);
    out.sealed_day = sealed_day_;
    out.distinct_addresses = distinct_addresses_locked();
    out.distinct_projected = distinct_prefixes_locked();
    return out;
}

int stream_engine::sealed_day() const {
    std::shared_lock state(state_mutex_);
    return sealed_day_;
}

std::size_t stream_engine::distinct_addresses_locked() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->distinct_addresses();
    return n;
}

std::size_t stream_engine::distinct_prefixes_locked() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->distinct_prefixes();
    return n;
}

std::vector<std::uint64_t> stream_engine::spectrum_locked(unsigned max_n) const {
    std::vector<std::uint64_t> merged(max_n + 1, 0);
    for (const auto& s : shards_) {
        const auto spectrum = s->spectrum(max_n);
        for (std::size_t n = 0; n < spectrum.size(); ++n) merged[n] += spectrum[n];
    }
    return merged;
}

std::array<std::uint64_t, 129> stream_engine::cpl_hist_locked() const {
    // Neighbours of the global sorted order in different /64s split
    // where their /64s do: buckets below 64 are the /64 run's. Neighbours
    // inside one /64 are neighbours in that /64's shard: buckets 64 and
    // up are the shards' sums.
    std::array<std::uint64_t, 129> hist = prefix_run_.cpl_hist();
    for (const auto& s : shards_)
        for (unsigned c = kShardPrefixLength; c < hist.size(); ++c)
            hist[c] += s->run().cpl_hist()[c];
    return hist;
}

std::vector<density_count> stream_engine::density_counts_locked() const {
    std::vector<density_count> out(cfg_.density_classes.size());
    std::size_t fine = 0, coarse = 0;
    for (std::size_t c = 0; c < out.size(); ++c) {
        if (cfg_.density_classes[c].second < kShardPrefixLength) {
            out[c] = coarse_counts_[coarse++];
            continue;
        }
        for (const auto& s : shards_) {
            out[c].dense += s->run().counts()[fine].dense;
            out[c].covered += s->run().counts()[fine].covered;
        }
        ++fine;
    }
    return out;
}

simd::address_block stream_engine::merged_run_locked() const {
    simd::address_block out(0);
    out.reserve(distinct_addresses_locked());
    std::vector<std::size_t> sizes;
    for (const auto& s : shards_) sizes.push_back(s->run().size());
    interleave_p64_groups(
        sizes,
        [&](std::size_t i, std::size_t k) { return shards_[i]->run().hi()[k]; },
        [&](std::size_t i, std::size_t k) {
            const sorted_run& run = shards_[i]->run();
            out.push_back(run.hi()[k], run.lo()[k]);
        });
    return out;
}

void stream_engine::merge_prefix_run() {
    // Each shard's run merge found its new /64s; shards partition the
    // /64s, so together they are disjoint from each other and from the
    // run.
    simd::address_block fresh(0);
    for (const auto& s : shards_) fresh.append(s->fresh_prefixes());
    simd::sort_block(fresh);
    prefix_run_.merge(fresh);

    // Classes with p < 64 straddle shards. Per /p prefix touched by the
    // day's first sightings (m of them, over every shard: each run's
    // fresh keys), count its members g in the shards' merged runs by
    // binary search on the hi lane: g - m of them are old, as in
    // sorted_run::merge.
    for (std::size_t k = 0; k < coarse_classes_.size(); ++k) {
        const auto [need, p] = coarse_classes_[k];
        if (need == 0) continue;  // no prefix qualifies (as the sort path)
        const std::uint64_t mask = p == 0 ? 0 : ~0ull << (64 - p);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> groups;  // (base, m)
        for (const auto& s : shards_) {
            const simd::address_block& added = s->run().fresh();
            for (std::size_t j = 0; j < added.size(); ++j) {
                const std::uint64_t base = added.hi_at(j) & mask;
                if (groups.empty() || groups.back().first != base)
                    groups.emplace_back(base, 0);
                ++groups.back().second;
            }
        }
        std::sort(groups.begin(), groups.end());
        std::vector<std::size_t> from(shards_.size(), 0);
        for (std::size_t g = 0; g < groups.size();) {
            const std::uint64_t base = groups[g].first;
            std::uint64_t added = 0;
            for (; g < groups.size() && groups[g].first == base; ++g)
                added += groups[g].second;
            std::uint64_t members = 0;
            for (std::size_t i = 0; i < shards_.size(); ++i) {
                const sorted_run& run = shards_[i]->run();
                const std::uint64_t* end = run.hi() + run.size();
                const std::uint64_t* first =
                    std::lower_bound(run.hi() + from[i], end, base);
                const std::uint64_t* last = std::upper_bound(first, end, base | ~mask);
                members += static_cast<std::uint64_t>(last - first);
                from[i] = static_cast<std::size_t>(last - run.hi());
            }
            density_count& count = coarse_counts_[k];
            if (members - added >= need) {
                count.covered += added;
            } else if (members >= need) {
                ++count.dense;
                count.covered += members;
            }
        }
    }
}

stream_snapshot stream_engine::snapshot() const {
    stream_snapshot out;
    {
        std::unique_lock lock(push_mutex_);
        out.records = m_.records.value();
        out.hits = m_.hits.value();
        out.late_dropped = m_.late.value();
    }
    std::shared_lock state(state_mutex_);
    out.epoch = sealed_day_;
    out.distinct_addresses = distinct_addresses_locked();
    out.distinct_projected = distinct_prefixes_locked();
    out.spectrum = spectrum_locked(cfg_.spectrum_max);
    out.density =
        compute_density_table(cfg_.density_classes, density_counts_locked());
    return out;
}

stability_split stream_engine::classify_day(int ref_day, unsigned n) const {
    std::shared_lock state(state_mutex_);
    // Shards are disjoint and sealed state is read-locked: classify them
    // concurrently. Each split comes out sorted and the shards partition
    // the /64s, so merging interleaves whole /64 groups.
    const std::vector<stability_split> splits =
        par::map_indexed<stability_split>(shards_.size(), [&](std::size_t i) {
            return shards_[i]->classify_day(ref_day, n);
        });
    obs::span merge_span("merge_splits", {}, obs::span_kind::merge);
    const auto merge = [&](std::vector<address> stability_split::*part) {
        std::vector<std::size_t> sizes;
        std::size_t total = 0;
        for (const stability_split& split : splits) {
            sizes.push_back((split.*part).size());
            total += sizes.back();
        }
        std::vector<address> out;
        out.reserve(total);
        interleave_p64_groups(
            sizes,
            [&](std::size_t i, std::size_t k) { return (splits[i].*part)[k].hi(); },
            [&](std::size_t i, std::size_t k) { out.push_back((splits[i].*part)[k]); });
        return out;
    };
    return {merge(&stability_split::stable), merge(&stability_split::not_stable)};
}

std::vector<std::uint64_t> stream_engine::stability_spectrum(unsigned max_n) const {
    std::shared_lock state(state_mutex_);
    return spectrum_locked(max_n);
}

std::vector<density_row> stream_engine::density_table(
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes) const {
    std::shared_lock state(state_mutex_);
    // Configured classes are kept current at seal; any other class is a
    // footnote-3 pass over the shards' runs, merged (each is sorted).
    const std::vector<density_row> configured =
        compute_density_table(cfg_.density_classes, density_counts_locked());
    std::vector<address> distinct;  // materialised on first use
    std::vector<density_row> rows;
    rows.reserve(classes.size());
    for (const auto& cls : classes) {
        const auto it = std::find(cfg_.density_classes.begin(),
                                  cfg_.density_classes.end(), cls);
        if (it != cfg_.density_classes.end()) {
            rows.push_back(configured[it - cfg_.density_classes.begin()]);
            continue;
        }
        if (distinct.empty()) distinct = merged_run_locked().to_vector();
        rows.push_back(compute_density_table(distinct, {cls}).front());
    }
    return rows;
}

std::vector<address> stream_engine::distinct_addresses() const {
    std::shared_lock state(state_mutex_);
    return merged_run_locked().to_vector();
}

mra_series stream_engine::mra() const {
    std::shared_lock state(state_mutex_);
    return compute_mra_from_histogram(cpl_hist_locked(),
                                      distinct_addresses_locked() == 0);
}

std::vector<day_report> stream_engine::reports(std::size_t from) const {
    std::lock_guard lock(reports_mutex_);
    if (from >= reports_.size()) return {};
    return {reports_.begin() + static_cast<std::ptrdiff_t>(from), reports_.end()};
}

std::optional<day_report> stream_engine::wait_for_report(int day) const {
    std::unique_lock lock(reports_mutex_);
    for (;;) {
        for (const day_report& r : reports_)
            if (r.day == day) return r;
        if (rolls_done_) return std::nullopt;
        report_cv_.wait(lock);
    }
}

}  // namespace v6
