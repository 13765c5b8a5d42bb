// e2e_replay.cpp — end-to-end stream replay benchmark.
//
// Synthesizes a multi-day CDN capture from v6::world (setup), writes it
// as a v6wire file, and replays it into a default-config stream_engine
// through the same public calls net::replay_wire_file makes:
// wire_file_reader::next, wire_decoder::decode, net::ingest_block. A
// watcher thread stamps the day reports with wait_for_report. After each
// replay the finished engine answers the dashboard and analyst queries.
// After the timed region every replay is checked against the batch
// classifiers (stability_analyzer, observation_store,
// compute_density_table, compute_mra_sorted), and only a run whose every
// check passes prints its metrics.
//
//   e2e_replay --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--workdir DIR] [--trace-out FILE]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; with --trace 0 it carries the end-to-end metrics, with
// --trace 1 the per-layer ones. The line before it stamps the
// environment (seed, nproc, SIMD level, PMU tier, sample counts).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "span_log.h"
#include "v6class/cdnsim/world.h"
#include "v6class/net/collector.h"
#include "v6class/net/enrich.h"
#include "v6class/net/wire.h"
#include "v6class/netgen/rng.h"
#include "v6class/obs/introspect.h"
#include "v6class/obs/pmu.h"
#include "v6class/par/pool.h"
#include "v6class/simd/kernels.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"
#include "v6class/stream/engine.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace {

using namespace v6;
using e2e::now_ns;
using e2e::scoped_span;
using e2e::site;
using e2e::span_log;

// ------------------------------------------------------------ workloads

struct workload {
    std::string name;
    int first_day = 300;
    int last_day = 313;
    double scale = 1.0;
    /// Records each aggregated observation is split into, hits divided
    /// (1 = the aggregated per-day log as v6synth --wire writes it).
    unsigned split = 1;
    bool enrich = false;  ///< ASN enrichment + ledger from the route table
};

std::optional<workload> find_workload(const std::string& name, bool smoke) {
    workload w;
    w.name = name;
    if (name == "replay_14d") {
        w.first_day = 300;
        w.last_day = 313;
        w.scale = 0.5;
    } else if (name == "ingest_dup") {
        w.first_day = 300;
        w.last_day = 303;
        w.split = 8;
        w.enrich = true;
    } else {
        return std::nullopt;
    }
    if (smoke) w.scale = 0.02;
    return w;
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double seconds_between(std::uint64_t a_ns, std::uint64_t b_ns) {
    return b_ns > a_ns ? static_cast<double>(b_ns - a_ns) / 1e9 : 0.0;
}

// ------------------------------------------------------------------ rss

/// Resets the kernel's RSS high-water mark (VmHWM) to the current RSS.
void reset_rss_high_water() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    const bool ok = f && std::fputs("5", f) >= 0;
    if (f && std::fclose(f) != 0) throw std::runtime_error("cannot reset VmHWM");
    if (!ok) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

/// The kernel's RSS high-water mark since the last reset, in bytes.
std::uint64_t rss_high_water_bytes() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f))
        found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    std::fclose(f);
    if (!found) throw std::runtime_error("no VmHWM in /proc/self/status");
    return kib * 1024;
}

// ---------------------------------------------------------------- setup

/// Everything setup produces: the generated days (kept for the oracle),
/// the capture file, and the loaded ASN database.
struct capture {
    std::vector<daily_log> days;
    std::uint64_t records = 0;
    std::uint64_t hits = 0;
    std::uint64_t datagrams = 0;
    std::string wire_path;
    std::string db_path;
    std::unique_ptr<net::enrichment> enrich;
};

struct setup_times {
    double total_s = 0;
    double generate_s = 0;
};

/// Builds the world, generates the capture (and the ASN db), writes
/// both into `workdir`, and constructs one engine. Throws on I/O failure.
setup_times run_setup(const workload& w, std::uint64_t seed,
                      const std::string& workdir, capture& out) {
    const std::uint64_t t0 = now_ns();
    world_config wc;
    wc.seed = seed;
    wc.scale = w.scale;
    const world sim(wc);
    out.days.clear();
    for (int d = w.first_day; d <= w.last_day; ++d) out.days.push_back(sim.day_log(d));
    const std::uint64_t t_gen = now_ns();

    // The feed: day order; with split > 1 each observation becomes up to
    // `split` records carrying its hits between them, shuffled within
    // the day like an un-aggregated per-edge-server log.
    std::vector<stream_record> feed;
    rng shuffle_rng{seed ^ 0x5eedf00dull};
    out.hits = 0;
    for (const daily_log& log : out.days) {
        const std::size_t begin = feed.size();
        for (const observation& o : log.records) {
            out.hits += o.hits;
            const std::uint64_t parts = std::min<std::uint64_t>(w.split, o.hits);
            for (std::uint64_t i = 0; i < parts; ++i)
                feed.push_back({log.day, o.addr, o.hits / parts + (i < o.hits % parts ? 1 : 0)});
        }
        if (w.split > 1)
            for (std::size_t i = feed.size() - 1; i > begin; --i)
                std::swap(feed[i], feed[begin + shuffle_rng.uniform(i - begin + 1)]);
    }
    out.records = feed.size();
    out.wire_path = workdir + "/capture.v6w";
    const auto datagrams = net::write_wire_file(out.wire_path, feed);
    if (!datagrams) throw std::runtime_error("cannot write " + out.wire_path);
    out.datagrams = *datagrams;
    feed = {};

    out.enrich.reset();
    if (w.enrich) {
        std::vector<net::enrich_entry> entries;
        for (const bgp_route& r : sim.registry().routes())
            entries.push_back({r.pfx, {r.asn, {'-', '-'}}});
        out.db_path = workdir + "/routes.asndb";
        if (!net::write_asn_db(out.db_path, entries))
            throw std::runtime_error("cannot write " + out.db_path);
        out.enrich = std::make_unique<net::enrichment>(out.db_path);
        std::string error;
        if (!out.enrich->reload(&error)) throw std::runtime_error("asn db: " + error);
    }
    { stream_engine probe{stream_config{}}; }
    return {seconds_between(t0, now_ns()), seconds_between(t0, t_gen)};
}

// ------------------------------------------------------------- queries

/// The analyst queries' answers on the finished engine, kept for the
/// oracle.
struct analyst_result {
    int ref_day = kNoDay;
    stream_snapshot snap;
    std::uint64_t stable = 0, not_stable = 0;
    std::vector<density_row> density;
    std::array<std::uint64_t, 129> mra{};
};

/// One set of analyst queries (snapshot, classify_day, density_table,
/// mra), each timed into `m`.
analyst_result run_analyst(const stream_engine& engine, const workload& w, span_log& log,
                           std::map<std::string, double>& m) {
    const stream_config& cfg = engine.config();
    analyst_result r;
    const auto timed = [&](site where, const char* name, auto&& fn) {
        const std::uint64_t t0 = now_ns();
        {
            scoped_span s(log, where);
            fn();
        }
        m[name] = seconds_between(t0, now_ns()) * 1e3;
    };
    timed(site::q_snapshot, "stream.query_snapshot_ms", [&] { r.snap = engine.snapshot(); });
    r.ref_day = std::max(w.first_day, r.snap.epoch - cfg.window.window_fwd);
    timed(site::q_classify_day, "stream.query_classify_day_ms", [&] {
        const stability_split split = engine.classify_day(r.ref_day, cfg.stability_n);
        r.stable = split.stable.size();
        r.not_stable = split.not_stable.size();
    });
    timed(site::q_density, "stream.query_density_ms",
          [&] { r.density = engine.density_table(cfg.density_classes); });
    timed(site::q_mra, "stream.query_mra_ms", [&] {
        const mra_series series = engine.mra();
        for (unsigned p = 0; p <= 128; ++p) r.mra[p] = series.aggregate_count(p);
    });
    return r;
}

/// One dashboard query: what /dashboard draws (stats() + live()).
void dashboard_query(const stream_engine& engine) {
    const stream_stats st = engine.stats();
    const live_view lv = engine.live();
    if (lv.series.empty() || st.fed < st.records)
        throw std::runtime_error("dashboard query returned an inconsistent view");
}

// ----------------------------------------------------------------- rep

/// Span logs of the benchmark's threads (one writer at a time each).
struct span_logs {
    span_log pusher{"pusher", 1};
    span_log watcher{"watcher", 2};
    span_log queries{"queries", 3};
    span_log oracle{"oracle", 4};

    std::vector<span_log*> all() { return {&pusher, &watcher, &queries, &oracle}; }

    void arm(std::size_t datagrams, std::size_t days) {
        pusher.arm(3 * datagrams + 8);
        watcher.arm(days + 8);
        queries.arm(1u << 14);
    }
    void disarm() {
        for (span_log* l : all()) l->disarm();
    }
    std::uint64_t dropped() {
        std::uint64_t n = 0;
        for (span_log* l : all()) n += l->dropped();
        return n;
    }
};

/// Everything one replay measured or returned.
struct rep_result {
    bool traced = false;
    std::map<std::string, double> m;  ///< metric name -> value
    std::vector<day_report> reports;
    stream_stats stats;
    net::wire_decode_stats decode;
    std::uint64_t datagrams = 0;
    std::uint64_t ledger_records = 0, ledger_hits = 0;
    std::uint64_t matched = 0, unmatched = 0;
    std::optional<analyst_result> analyst;
    std::uint64_t queries = 0;        ///< dashboard + analyst queries attempted
    std::uint64_t call_failures = 0;  ///< failed queries and library calls
    std::size_t lag_samples = 0;      ///< sealed days with a report lag
    std::size_t dash_samples = 0;     ///< dashboard latency samples
    std::vector<std::string> errors;
};

/// Call and query accounting of one thread.
struct query_tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

/// Runs `fn` as `n` attempted queries (0: a call that is not a query);
/// an exception counts them (or the call) as failed and keeps its
/// message. Returns whether `fn` completed.
template <typename Fn>
bool guarded(query_tally& t, const char* what, std::uint64_t n, Fn&& fn) {
    t.attempted += n;
    try {
        fn();
        return true;
    } catch (const std::exception& e) {
        t.failed += std::max<std::uint64_t>(n, 1);
        t.errors.push_back(std::string(what) + ": " + e.what());
        return false;
    }
}

rep_result run_rep(const workload& w, const capture& cap, span_logs& logs, bool traced) {
    rep_result out;
    out.traced = traced;
    const int ndays = w.last_day - w.first_day + 1;
    if (traced) logs.arm(cap.datagrams, static_cast<std::size_t>(ndays));
    else logs.disarm();

    // Peak memory is the kernel's high-water mark over the replay, so
    // transients between reports (seal and report scratch) count.
    malloc_trim(0);
    reset_rss_high_water();
    const std::uint64_t rss_base = obs::process_rss_bytes();

    stream_engine engine{stream_config{}};
    std::unique_ptr<net::asn_ledger> ledger;
    if (w.enrich) ledger = std::make_unique<net::asn_ledger>(&engine.metrics());
    const par::pool_stats pool0 = par::stats();

    // Watcher: one wait_for_report per day, stamping when each appeared.
    std::vector<std::uint64_t> report_ns(static_cast<std::size_t>(ndays), 0);
    query_tally watcher_tally, main_tally;
    std::thread watcher([&] {
        for (int d = w.first_day; d <= w.last_day; ++d) {
            std::optional<day_report> r;
            guarded(watcher_tally, "wait_for_report", 0, [&] {
                scoped_span s(logs.watcher, site::wait_for_report);
                r = engine.wait_for_report(d);
            });
            if (!r) {
                ++watcher_tally.failed;
                watcher_tally.errors.push_back("no report for day " + std::to_string(d));
                return;
            }
            report_ns[static_cast<std::size_t>(d - w.first_day)] = now_ns();
            out.reports.push_back(std::move(*r));
        }
    });

    // Pusher: read -> decode -> ingest_block at line rate.
    std::vector<std::uint64_t> handover_ns(static_cast<std::size_t>(ndays) + 1, 0);
    std::vector<double> ingest_us;
    double read_s = 0, decode_s = 0, ingest_s = 0;
    const std::uint64_t t_begin = now_ns();
    guarded(main_tally, "replay", 0, [&] {
        scoped_span whole(logs.pusher, site::replay);
        net::wire_file_reader reader(cap.wire_path);
        if (!reader.valid()) throw std::runtime_error(cap.wire_path + ": " + reader.error());
        net::wire_decoder decoder;
        net::lookup_cache cache;
        std::vector<std::uint8_t> datagram;
        simd::record_block batch;
        int open_day = kNoDay;
        for (;;) {
            std::uint64_t t0 = traced ? now_ns() : 0;
            const bool more = reader.next(datagram);
            std::uint64_t t1 = traced ? now_ns() : 0;
            if (traced) {
                logs.pusher.add(site::read, t0, t1);
                read_s += seconds_between(t0, t1);
            }
            if (!more) break;
            ++out.datagrams;
            batch.clear();
            decoder.decode(datagram.data(), datagram.size(), batch);
            if (traced) {
                t0 = t1;
                t1 = now_ns();
                logs.pusher.add(site::decode, t0, t1);
                decode_s += seconds_between(t0, t1);
            }
            // Day hand-over: the first record of a later day is what
            // makes the engine seal the open one.
            int newest = open_day;
            for (const std::int32_t d : batch.day) newest = std::max(newest, d);
            if (newest != open_day) {
                const std::uint64_t now = now_ns();
                for (int d = std::max(open_day + 1, w.first_day); d <= newest && d <= w.last_day; ++d)
                    handover_ns[static_cast<std::size_t>(d - w.first_day)] = now;
                open_day = newest;
            }
            net::ingest_block(engine, batch, cap.enrich.get(), ledger.get(), &cache);
            if (traced) {
                t0 = t1;
                t1 = now_ns();
                logs.pusher.add(site::ingest_block, t0, t1);
                ingest_s += seconds_between(t0, t1);
                ingest_us.push_back(static_cast<double>(t1 - t0) / 1e3);
            }
        }
        if (!reader.error().empty()) throw std::runtime_error("wire read: " + reader.error());
        out.decode = decoder.stats();
    });
    const std::uint64_t t_finish_call = now_ns();
    guarded(main_tally, "finish", 0, [&] {
        scoped_span s(logs.pusher, site::finish);
        engine.finish();
    });
    const std::uint64_t t_end = now_ns();
    watcher.join();
    const std::uint64_t rss_peak = std::max(rss_base, rss_high_water_bytes());
    const par::pool_stats pool1 = par::stats();

    // ---- post-run, outside the timed region
    out.stats = engine.stats();
    const double wall = seconds_between(t_begin, t_end);
    out.m["wall_s"] = wall;
    out.m["records_per_s"] = wall > 0 ? static_cast<double>(out.stats.records) / wall : 0;

    std::vector<double> lags, lag_x;
    for (int i = 0; i + 1 < ndays; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (report_ns[u] == 0 || handover_ns[u + 1] == 0) continue;
        lags.push_back(seconds_between(handover_ns[u + 1], report_ns[u]) * 1e3);
        if (u < out.reports.size())
            lag_x.push_back(static_cast<double>(out.reports[u].distinct_addresses) / 1e6);
    }
    out.lag_samples = lags.size();
    out.m["report_lag_p50_ms"] = median(lags);
    out.m["report_lag_last_ms"] =
        seconds_between(t_finish_call, report_ns[static_cast<std::size_t>(ndays - 1)]) * 1e3;
    // Least-squares slope of per-day report lag against cumulative
    // distinct addresses: O(history) work shows as a positive slope.
    {
        double slope = 0;
        const std::size_t n = std::min(lags.size(), lag_x.size());
        if (n >= 2) {
            double mx = 0, my = 0;
            for (std::size_t i = 0; i < n; ++i) mx += lag_x[i], my += lags[i];
            mx /= static_cast<double>(n);
            my /= static_cast<double>(n);
            double sxy = 0, sxx = 0;
            for (std::size_t i = 0; i < n; ++i) {
                sxy += (lag_x[i] - mx) * (lags[i] - my);
                sxx += (lag_x[i] - mx) * (lag_x[i] - mx);
            }
            slope = sxx > 0 ? sxy / sxx : 0;
        }
        out.m["stream.report_lag_slope_ms_per_Mdistinct"] = slope;
    }
    out.m["rss_bytes_per_distinct"] =
        out.stats.distinct_addresses
            ? static_cast<double>(rss_peak - rss_base) /
                  static_cast<double>(out.stats.distinct_addresses)
            : 0;
    out.m["obs.rss_peak_bytes"] = static_cast<double>(rss_peak);

    // The dashboard on the finished engine: its cost over the full
    // history. A query takes microseconds, so each sample is the mean of
    // kBatch consecutive queries, which keeps one interrupt from setting
    // the tail.
    {
        constexpr int kBatch = 100;
        constexpr std::uint64_t kBurstNs = 200'000'000;
        std::vector<double> dash_ms;
        for (const std::uint64_t end = now_ns() + kBurstNs; now_ns() < end;) {
            const std::uint64_t t0 = now_ns();
            const bool ok = guarded(main_tally, "dashboard", kBatch, [&] {
                scoped_span s(logs.queries, site::q_dashboard);
                for (int q = 0; q < kBatch; ++q) dashboard_query(engine);
            });
            if (ok) dash_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6 / kBatch);
        }
        out.dash_samples = dash_ms.size();
        out.m["stream.dash_p50_ms"] = median(dash_ms);
        out.m["stream.dash_p99_ms"] = percentile(dash_ms, 0.99);
    }

    // The analyst queries on the final sealed state (also the oracle's
    // final snapshot).
    guarded(main_tally, "analyst", 4,
            [&] { out.analyst = run_analyst(engine, w, logs.queries, out.m); });
    for (query_tally* t : {&watcher_tally, &main_tally}) {
        out.queries += t->attempted;
        out.call_failures += t->failed;
        out.errors.insert(out.errors.end(), t->errors.begin(), t->errors.end());
    }

    // Layer counters the code already exports, read after the run.
    out.m["net.read_s"] = read_s;
    out.m["net.decode_s"] = decode_s;
    out.m["net.ingest_block_s"] = ingest_s;
    out.m["net.ingest_block_p99_us"] = percentile(ingest_us, 0.99);
    out.m["net.decode_records"] = static_cast<double>(out.decode.records);
    out.m["net.decode_rejects"] = static_cast<double>(out.decode.rejected());
    if (ledger) {
        out.matched = ledger->matched();
        out.unmatched = ledger->unmatched();
        for (int d = w.first_day; d <= w.last_day; ++d)
            for (const net::asn_row& row : ledger->take_day(d)) {
                out.ledger_records += row.records;
                out.ledger_hits += row.hits;
            }
    }
    const std::uint64_t tagged = out.matched + out.unmatched;
    out.m["net.enrich_matched_ratio"] =
        tagged ? static_cast<double>(out.matched) / static_cast<double>(tagged) : 0;

    obs::registry& reg = engine.metrics();
    std::int64_t high_water = 0;
    std::uint64_t rec_max = 0, rec_min = ~std::uint64_t{0};
    for (unsigned s = 0; s < engine.config().shards; ++s) {
        const obs::label_list shard{{"shard", std::to_string(s)}};
        high_water = std::max(high_water, reg.get_gauge("v6_stream_queue_high_water", shard).value());
        const std::uint64_t recs = reg.get_counter("v6_stream_shard_records_total", shard).value();
        rec_max = std::max(rec_max, recs);
        rec_min = std::min(rec_min, recs);
    }
    out.m["stream.queue_high_water"] = static_cast<double>(high_water);
    out.m["stream.batches"] = static_cast<double>(out.stats.batches);
    out.m["stream.shard_skew"] =
        static_cast<double>(rec_max) / static_cast<double>(std::max<std::uint64_t>(rec_min, 1));
    const obs::histogram seal = reg.get_histogram("v6_stream_seal_latency_seconds");
    const obs::histogram build = reg.get_histogram("v6_stream_report_build_seconds");
    out.m["stream.seal_s"] = seal.sum();
    out.m["stream.seals"] = static_cast<double>(seal.count());
    out.m["stream.report_build_s"] = build.sum();
    out.m["stream.finish_s"] = seconds_between(t_finish_call, t_end);
    const double seats = static_cast<double>(pool1.workers + 1);
    out.m["par.pool_utilization"] =
        wall > 0 ? static_cast<double>(pool1.busy_ns - pool0.busy_ns) / (wall * 1e9 * seats) : 0;
    return out;
}

// -------------------------------------------------------------- oracle

/// The batch classifiers' answers over the same generated days.
struct batch_truth {
    stream_config cfg;  ///< the engines' (default) configuration
    daily_series series;
    std::vector<std::size_t> distinct128, distinct64;      // cumulative, per day
    std::vector<std::array<std::uint64_t, 129>> mra;       // cumulative, per day
    std::vector<std::uint64_t> spectrum;                   // final
    std::vector<density_row> density;                      // final
    std::map<std::string, double> kernel_s;                // kernel timings
};

batch_truth compute_truth(const workload& w, const capture& cap, span_log& log) {
    batch_truth t;
    const stream_config& cfg = t.cfg;
    observation_store store128{128}, store64{64};
    std::vector<address> cumulative, merged;
    for (const daily_log& day : cap.days) {
        std::vector<address> active = day.addresses();
        store128.record_day(day.day, active);
        store64.record_day(day.day, active);
        t.distinct128.push_back(store128.distinct_count());
        t.distinct64.push_back(store64.distinct_count());
        merged.clear();
        merged.reserve(cumulative.size() + active.size());
        std::set_union(cumulative.begin(), cumulative.end(), active.begin(), active.end(),
                       std::back_inserter(merged));
        cumulative.swap(merged);
        const mra_series m = compute_mra_sorted(cumulative);
        std::array<std::uint64_t, 129> counts{};
        for (unsigned p = 0; p <= 128; ++p) counts[p] = m.aggregate_count(p);
        t.mra.push_back(counts);
        t.series.set_day(day.day, std::move(active));
    }
    t.spectrum = store128.stability_spectrum(cfg.spectrum_max);

    // The report kernels on the final sealed set, each timed.
    const auto timed = [&](site where, const char* name, auto&& fn) {
        const std::uint64_t t0 = now_ns();
        fn();
        const std::uint64_t t1 = now_ns();
        log.add(where, t0, t1);
        t.kernel_s[name] = seconds_between(t0, t1);
    };
    radix_tree tree;
    timed(site::k_bulk_build, "trie.bulk_build_s", [&] { tree.bulk_build(cumulative); });
    timed(site::k_density, "spatial.density_s",
          [&] { t.density = compute_density_table(tree, cfg.density_classes); });
    std::optional<mra_series> from_trie;
    timed(site::k_mra, "spatial.mra_s", [&] { from_trie = compute_mra_from_trie(tree); });
    for (unsigned p = 0; p <= 128; ++p)
        if (from_trie->aggregate_count(p) != t.mra.back()[p])
            throw std::runtime_error("batch MRA: trie and sorted paths disagree");
    const stability_analyzer an(t.series, cfg.window);
    timed(site::k_classify_day, "temporal.classify_day_s", [&] {
        an.classify_day(std::max(w.first_day, w.last_day - cfg.window.window_fwd), cfg.stability_n);
    });
    return t;
}

/// Counts checks and mismatches; each mismatch is described on stderr.
struct checker {
    std::uint64_t checks = 0;
    std::uint64_t mismatches = 0;

    template <typename A, typename B>
    void eq(const A& got, const B& want, const std::string& what) {
        ++checks;
        if (got == want) return;
        ++mismatches;
        if (mismatches <= 20) std::fprintf(stderr, "oracle mismatch: %s\n", what.c_str());
    }
};

bool same_rows(const std::vector<density_row>& a, const std::vector<density_row>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].n != b[i].n || a[i].p != b[i].p ||
            a[i].dense_prefix_count != b[i].dense_prefix_count ||
            a[i].covered_addresses != b[i].covered_addresses ||
            a[i].possible_addresses != b[i].possible_addresses ||
            a[i].address_density != b[i].address_density)
            return false;
    return true;
}

void check_rep(const workload& w, const capture& cap, const batch_truth& t,
               const rep_result& r, checker& c) {
    const stream_config& cfg = t.cfg;
    const int ndays = w.last_day - w.first_day + 1;
    const stability_analyzer an(t.series, cfg.window);

    // Feed accounting.
    c.eq(r.datagrams, cap.datagrams, "datagrams read");
    c.eq(r.decode.records, cap.records, "records decoded");
    c.eq(r.decode.rejected(), std::uint64_t{0}, "decode rejects");
    c.eq(r.stats.fed, cap.records, "records fed");
    c.eq(r.stats.records, cap.records, "records accepted");
    c.eq(r.stats.hits, cap.hits, "hits sum");
    c.eq(r.stats.late_dropped + r.stats.dropped, std::uint64_t{0}, "late + dropped");
    c.eq(r.stats.sealed_day, w.last_day, "final epoch");
    if (w.enrich) {
        c.eq(r.matched + r.unmatched, cap.records, "ledger matched + unmatched");
        c.eq(r.ledger_records, cap.records, "ledger record total");
        c.eq(r.ledger_hits, cap.hits, "ledger hits total");
    }

    // Every day report against the batch answers for that day.
    c.eq(r.reports.size(), static_cast<std::size_t>(ndays), "report count");
    for (const day_report& rep : r.reports) {
        const std::string at = " (day " + std::to_string(rep.day) + ")";
        if (rep.day < w.first_day || rep.day > w.last_day) {
            c.eq(rep.day, w.first_day, "report day in range" + at);
            continue;
        }
        const auto i = static_cast<std::size_t>(rep.day - w.first_day);
        c.eq(rep.ref_day, rep.day - cfg.window.window_fwd, "report ref_day" + at);
        c.eq(rep.stable, an.count_stable(rep.ref_day, cfg.stability_n), "report stable" + at);
        c.eq(rep.active, t.series.count(rep.ref_day), "report active" + at);
        c.eq(rep.not_stable + rep.stable, rep.active, "report stable + not_stable" + at);
        c.eq(rep.distinct_addresses, t.distinct128[i], "report distinct /128s" + at);
        c.eq(rep.distinct_projected, t.distinct64[i], "report distinct /64s" + at);
        const mra_series m(t.mra[i]);
        c.eq(rep.gamma1, m.ratio(64, 1), "report gamma1" + at);
        c.eq(rep.gamma4, m.ratio(60, 4), "report gamma4" + at);
        c.eq(rep.gamma16, m.ratio(48, 16), "report gamma16" + at);
        if (rep.day == w.last_day)
            c.eq(same_rows(rep.density, t.density), true, "report density" + at);
    }

    // The analyst answers on the final state.
    c.eq(r.analyst.has_value(), true, "analyst queries answered");
    if (!r.analyst) return;
    const analyst_result& a = *r.analyst;
    c.eq(a.snap.epoch, w.last_day, "snapshot epoch");
    c.eq(a.snap.records, cap.records, "snapshot records");
    c.eq(a.snap.hits, cap.hits, "snapshot hits");
    c.eq(a.snap.distinct_addresses, t.distinct128.back(), "snapshot distinct /128s");
    c.eq(a.snap.distinct_projected, t.distinct64.back(), "snapshot distinct /64s");
    c.eq(a.snap.spectrum, t.spectrum, "snapshot lifetime spectrum");
    c.eq(same_rows(a.snap.density, t.density), true, "snapshot density rows");
    const stability_split split = an.classify_day(a.ref_day, cfg.stability_n);
    c.eq(a.stable, split.stable.size(), "classify_day stable");
    c.eq(a.not_stable, split.not_stable.size(), "classify_day not stable");
    c.eq(same_rows(a.density, t.density), true, "density_table rows");
    c.eq(a.mra, t.mra.back(), "mra aggregate counts");
}

// ---------------------------------------------------------------- main

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string workdir = ".";
    std::string trace_out;
};

options parse(int argc, char** argv) {
    options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") o.workload = val, have_workload = true;
        else if (key == "--seed") o.seed = std::stoull(val);
        else if (key == "--seconds") o.seconds = std::stod(val);
        else if (key == "--trace") o.trace = std::stoi(val) != 0;
        else if (key == "--workdir") o.workdir = val;
        else if (key == "--trace-out") o.trace_out = val;
        else throw std::invalid_argument("unknown option " + key);
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return o;
}

struct metric_spec {
    const char* name;
    const char* unit;
};

const metric_spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"records_per_s", "1/s"},
    {"report_lag_p50_ms", "ms"},
    {"report_lag_last_ms", "ms"},
    {"rss_bytes_per_distinct", "B"},
};

const metric_spec kPerLayer[] = {
    {"net.read_s", "s"},
    {"net.decode_s", "s"},
    {"net.decode_records", "count"},
    {"net.decode_rejects", "count"},
    {"net.ingest_block_s", "s"},
    {"net.enrich_matched_ratio", "1"},
    {"net.ingest_block_p99_us", "us"},
    {"stream.queue_high_water", "count"},
    {"stream.batches", "count"},
    {"stream.shard_skew", "1"},
    {"stream.seal_s", "s"},
    {"stream.seals", "count"},
    {"stream.report_build_s", "s"},
    {"stream.report_lag_slope_ms_per_Mdistinct", "ms/M"},
    {"stream.finish_s", "s"},
    {"par.pool_utilization", "1"},
    {"trie.bulk_build_s", "s"},
    {"spatial.density_s", "s"},
    {"spatial.mra_s", "s"},
    {"temporal.classify_day_s", "s"},
    {"stream.query_snapshot_ms", "ms"},
    {"stream.query_classify_day_ms", "ms"},
    {"stream.query_density_ms", "ms"},
    {"stream.query_mra_ms", "ms"},
    {"stream.dash_p50_ms", "ms"},
    {"stream.dash_p99_ms", "ms"},
    {"obs.rss_peak_bytes", "B"},
    {"cdnsim.generate_s", "s"},
    {"bench.trace_overhead_frac", "1"},
    {"bench.spans_dropped", "count"},
    {"bench.failed_frac", "1"},
};

/// Median of one metric over the untraced or the traced replays from
/// index `from` on.
double median_of(const std::vector<rep_result>& reps, const std::string& name, bool traced,
                 std::size_t from = 0) {
    std::vector<double> v;
    for (std::size_t i = from; i < reps.size(); ++i)
        if (const rep_result& r = reps[i]; r.traced == traced) {
            const auto it = r.m.find(name);
            if (it != r.m.end()) v.push_back(it->second);
        }
    return median(v);
}

void write_trace(const std::string& path, span_logs& logs) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    std::uint64_t origin = ~std::uint64_t{0};
    for (const span_log* l : logs.all())
        for (const span_log::span& s : l->spans()) origin = std::min(origin, s.start_ns);
    bool first = true;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (const span_log* l : logs.all()) l->write_events(f, origin, &first);
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

int run(const options& opt) {
    const std::optional<workload> found = find_workload(opt.workload, opt.smoke);
    if (!found) throw std::invalid_argument("unknown workload " + opt.workload);
    const workload& w = *found;
    std::filesystem::create_directories(opt.workdir);

    // Setup, repeated so setup_s is a median.
    const int setup_reps = 5;
    capture cap;
    std::vector<double> setup_s, generate_s;
    for (int i = 0; i < setup_reps; ++i) {
        const setup_times st = run_setup(w, opt.seed, opt.workdir, cap);
        setup_s.push_back(st.total_s);
        generate_s.push_back(st.generate_s);
    }
    std::fprintf(stderr, "setup: %llu records, %llu datagrams, %.2f s\n",
                 static_cast<unsigned long long>(cap.records),
                 static_cast<unsigned long long>(cap.datagrams), median(setup_s));

    // The timed region: whole replays until the budget is spent. A
    // traced run alternates untraced and traced replays (odd ones
    // traced) and stops after an untraced one, so both sides have as
    // many replays past the first, which alone runs on a fresh heap.
    span_logs logs;
    std::vector<rep_result> reps;
    const std::uint64_t t0 = now_ns();
    const double budget = opt.seconds;
    for (;;) {
        const bool spent = seconds_between(t0, now_ns()) >= budget;
        if (opt.trace ? spent && reps.size() >= 3 && reps.size() % 2 == 1
                      : spent && !reps.empty())
            break;
        const bool traced = opt.trace && reps.size() % 2 == 1;
        reps.push_back(run_rep(w, cap, logs, traced));
        std::fprintf(stderr, "rep %zu%s: %.2f s wall, report lag p50 %.1f ms, last %.1f ms\n",
                     reps.size(), traced ? " (traced)" : "", reps.back().m["wall_s"],
                     reps.back().m["report_lag_p50_ms"], reps.back().m["report_lag_last_ms"]);
    }
    logs.disarm();

    // The oracle, after the timed region.
    if (opt.trace) logs.oracle.arm(16);
    const batch_truth truth = compute_truth(w, cap, logs.oracle);
    checker c;
    std::uint64_t attempted = 0, failed = 0;
    for (const rep_result& r : reps) {
        check_rep(w, cap, truth, r, c);
        attempted += r.datagrams + r.stats.fed + r.queries;
        failed += r.decode.rejected() + r.stats.late_dropped + r.stats.dropped + r.call_failures;
        for (const std::string& e : r.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
    }
    attempted += c.checks;
    failed += c.mismatches;

    std::error_code ec;
    std::filesystem::remove(cap.wire_path, ec);
    if (!cap.db_path.empty()) std::filesystem::remove(cap.db_path, ec);
    if (opt.trace && !opt.trace_out.empty()) write_trace(opt.trace_out, logs);

    if (failed != 0) {
        std::fprintf(stderr, "FAILED: %llu of %llu attempts failed (%llu oracle mismatches)\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted),
                     static_cast<unsigned long long>(c.mismatches));
        return 1;
    }

    // Environment stamp: results from different tiers are not comparable.
    std::size_t lag_samples = 0, dash_samples = 0;
    for (const rep_result& r : reps)
        if (r.traced == opt.trace) {
            lag_samples += r.lag_samples;
            dash_samples += r.dash_samples;
        }
    std::printf(
        "{\"env\":{\"workload\":\"%s\",\"seed\":%llu,\"smoke\":%s,\"nproc\":%ld,"
        "\"simd\":\"%s\",\"pmu_tier\":\"%s\",\"reps\":%zu,\"setup_reps\":%d,"
        "\"records\":%llu,\"report_lag_samples\":%zu,\"dash_samples\":%zu}}\n",
        w.name.c_str(), static_cast<unsigned long long>(opt.seed), opt.smoke ? "true" : "false",
        sysconf(_SC_NPROCESSORS_ONLN), std::string(simd::level_name(simd::active_level())).c_str(),
        obs::pmu::mode_name(obs::pmu::available().tier), reps.size(), setup_reps,
        static_cast<unsigned long long>(cap.records), lag_samples, dash_samples);

    std::map<std::string, double> values;
    if (!opt.trace) {
        for (const metric_spec& s : kEndToEnd) values[s.name] = median_of(reps, s.name, false);
        values["setup_s"] = median(setup_s);
        // Memory from the first replay, the only one that starts from a
        // fresh process heap as a v6stream run does.
        values["rss_bytes_per_distinct"] = reps.front().m.at("rss_bytes_per_distinct");
    } else {
        for (const metric_spec& s : kPerLayer) values[s.name] = median_of(reps, s.name, true);
        for (const auto& [name, secs] : truth.kernel_s) values[name] = secs;
        values["cdnsim.generate_s"] = median(generate_s);
        // Traced against untraced replays, both past the fresh-heap first.
        const double plain = median_of(reps, "wall_s", false, 1);
        values["bench.trace_overhead_frac"] =
            plain > 0 ? median_of(reps, "wall_s", true) / plain - 1 : 0;
        values["bench.spans_dropped"] = static_cast<double>(logs.dropped());
        values["bench.failed_frac"] =
            static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    }
    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const metric_spec* begin, const metric_spec* end) {
        for (const metric_spec* s = begin; s != end; ++s) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", values[s->name]);
            json += std::string(first ? "" : ", ") + "\"" + s->name + "\": {\"value\": " + buf +
                    ", \"unit\": \"" + s->unit + "\"}";
            first = false;
        }
    };
    if (opt.trace) emit(std::begin(kPerLayer), std::end(kPerLayer));
    else emit(std::begin(kEndToEnd), std::end(kEndToEnd));
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_replay: %s\n", e.what());
        return 2;
    }
}
