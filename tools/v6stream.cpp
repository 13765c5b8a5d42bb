// v6stream — always-on streaming classification of a live observation
// feed (the Section 5.1 "ongoing basis" deployment, as a daemon-shaped
// tool).
//
//   v6synth --stream ... | v6stream --shards=4
//   v6stream [--shards=N] [--batch=N] [--queue=N] [--n=3] [--back=7]
//            [--fwd=7] [--class=N@P ...] [--status-every=RECORDS]
//            [--spectrum=MAX] [feed-file|-]
//   v6stream --listen[=PORT]            ingest v6wire UDP datagrams
//   v6stream --replay=PATH [--rate=R]   replay a day_<n>.log corpus
//                                       directory, a .v6w wire capture,
//                                       or a .pcap file
//
// The text feed is "day address [hits]" lines (blank lines and '#'
// comments tolerated) from a file, a FIFO, or stdin. Every source but
// --listen cuts its records into blocks of one wire datagram's shape
// (text lines, day logs) or takes them a datagram at a time (.v6w,
// .pcap), and one ingest step paces by --rate records/second and hands
// each block to net::ingest_block — the call the --listen collector
// makes per receive burst. So every source prints the same bytes for
// the same records. One service step follows every block (and every
// --listen poll, and the last seal): it applies a pending SIGHUP and
// prints the day reports that appeared since its last run, so a day's
// report prints as the day seals. Emits JSON lines on stdout: a "day"
// object per sealed day (the asynchronous roll-up: windowed nd-stable
// split and n@/p density classes), a "day_asn" object per sealed day
// when --asn-db is active, a periodic "status" object, and a "final"
// object with the lifetime spectrum on EOF or SIGINT / SIGTERM
// (graceful shutdown: the open day is sealed and reported). With
// --asn-db, SIGHUP hot-reloads the enrichment database without
// dropping a record.
//
// With --state-dir=DIR the daemon keeps a durable flight recorder
// (v6::obs::tsdb) under DIR/tsdb: every day seal appends the live
// derived series, the per-ASN ledger rows, and new log events; a
// restart re-anchors on the stored history, so /api/series spans runs
// with no gap or duplicate. The history API rides the metrics server:
//
//   GET /api/series?name=...&label=...&from=...&to=...&step=...
//   GET /api/events?level=...&from=...&to=...&limit=...
//   GET /alerts
//
// With --alerts=FILE an alert rules engine (v6::obs::alert) evaluates
// threshold / rate-of-change / absence / event-sourced rules at every
// seal and wall-clock tick; SIGHUP reloads the rules file alongside the
// ASN db, preserving state for unchanged rules.
//
// With --push=HOST:PORT the daemon federates: every day seal pushes the
// seal-derived series and the day's HLL/P² sketches to a v6agg
// aggregator as V6TEL1 frames, and periodic status/event frames ride
// the same connection, all labeled --node=NAME. Pushes are best-effort
// (a down aggregator costs a counted failure, never ingest).
#include <chrono>
#include <ctime>
#include <filesystem>
#include <memory>

#include "daemon_host.h"
#include "tool_common.h"
#include "v6class/cdnsim/corpus.h"
#include "v6class/net/collector.h"
#include "v6class/net/enrich.h"
#include "v6class/net/replay.h"
#include "v6class/obs/federate.h"
#include "v6class/obs/introspect.h"
#include "v6class/simd/kernels.h"
#include "v6class/stream/engine.h"

using namespace v6;

namespace {

void print_density(const std::vector<density_row>& rows) {
    std::printf("\"dense\":[");
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::printf("%s{\"n\":%llu,\"p\":%u,\"prefixes\":%llu,\"covered\":%llu}",
                    i ? "," : "",
                    static_cast<unsigned long long>(rows[i].n), rows[i].p,
                    static_cast<unsigned long long>(rows[i].dense_prefix_count),
                    static_cast<unsigned long long>(rows[i].covered_addresses));
    std::printf("]");
}

void print_day_report(const day_report& r) {
    std::printf("{\"type\":\"day\",\"day\":%d,\"ref_day\":%d,\"active\":%llu,"
                "\"stable\":%llu,\"not_stable\":%llu,\"distinct_addrs\":%zu,"
                "\"distinct_64s\":%zu,",
                r.day, r.ref_day, static_cast<unsigned long long>(r.active),
                static_cast<unsigned long long>(r.stable),
                static_cast<unsigned long long>(r.not_stable),
                r.distinct_addresses, r.distinct_projected);
    print_density(r.density);
    std::printf(",\"gamma1\":%.4f,\"gamma4\":%.4f,\"gamma16\":%.4f,"
                "\"stable_fraction\":%.4f",
                r.gamma1, r.gamma4, r.gamma16, r.stable_fraction);
    if (r.est_day_addresses > 0)
        std::printf(",\"est_day_addrs\":%.0f,\"est_day_48s\":%.0f,"
                    "\"est_day_64s\":%.0f",
                    r.est_day_addresses, r.est_day_48s, r.est_day_64s);
    std::printf("}\n");
}

/// One "day_asn" JSON line: the sealed day's per-origin-ASN breakdown,
/// emitted right after the day's roll-up so downstream consumers can
/// join them on "day". ASN 0 is the no-covering-prefix bucket.
void print_day_asn(int day, const std::vector<net::asn_row>& rows) {
    std::printf("{\"type\":\"day_asn\",\"day\":%d,\"rows\":[", day);
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::printf("%s{\"asn\":%u,\"country\":\"%c%c\",\"records\":%llu,"
                    "\"hits\":%llu}",
                    i ? "," : "", rows[i].asn, rows[i].country[0],
                    rows[i].country[1],
                    static_cast<unsigned long long>(rows[i].records),
                    static_cast<unsigned long long>(rows[i].hits));
    std::printf("]}\n");
}

/// The wall-clock tick's alert sampler: the live derived series as the
/// same (metric, label, value) rows a seal snapshot carries. The engine
/// view is captured *once, here* — never from inside evaluate(), which
/// holds the alert mutex: the seal hook also calls evaluate(), so a
/// sampler that locked the engine under the alert mutex would invert
/// the lock order against a concurrent seal and deadlock the daemon.
obs::alert_engine::sampler live_sampler(const stream_engine& engine) {
    std::vector<net::tel_sample> rows;
    for (const live_series_view& v : engine.live(0).series)
        if (!v.history.empty()) rows.push_back({v.metric, v.label, 0, v.current});
    return obs::row_sampler(std::move(rows));
}

/// Builds the /dashboard model from a consistent engine view plus the
/// server's own lifecycle state.
obs::dashboard_model build_dashboard(const stream_engine& engine,
                                     const obs::metrics_server& server,
                                     const net::enrichment* enrich,
                                     const net::asn_ledger* ledger,
                                     const tools::daemon_host& host) {
    const stream_stats s = engine.stats();
    const live_view lv = engine.live();
    obs::dashboard_model model;
    model.title = "v6stream live classification";
    model.status = server.state();
    model.uptime_seconds = server.uptime_seconds();
    model.stats = {
        {"epoch", lv.epoch == kNoDay ? "-" : std::to_string(lv.epoch)},
        {"open day", s.open_day == kNoDay ? "-" : std::to_string(s.open_day)},
        {"records", std::to_string(s.records)},
        {"distinct /128s", std::to_string(s.distinct_addresses)},
        {"distinct /64s", std::to_string(s.distinct_projected)},
        {"late dropped", std::to_string(s.late_dropped)},
        {"drift events",
         std::to_string(engine.metrics()
                            .get_counter("v6class_drift_events_total")
                            .value())},
    };
    if (enrich) {
        const auto snap = enrich->snapshot();
        model.stats.push_back(
            {"asn db", snap ? "gen " + std::to_string(snap->generation()) +
                                  ", " + std::to_string(snap->size()) +
                                  " prefixes"
                            : "not loaded"});
    }
    if (ledger) {
        for (const net::asn_row& row : ledger->top(3)) {
            const std::string name =
                row.asn ? "AS" + std::to_string(row.asn) : "unrouted";
            model.stats.push_back(
                {"top asn " + name, std::to_string(row.records) + " records"});
        }
    }
    model.series.reserve(lv.series.size());
    for (const live_series_view& v : lv.series)
        model.series.push_back({v.name, v.help, v.current, v.history, v.alarmed});
    model.events = lv.events;
    model.links = {{"/metrics", "metrics"},
                   {"/trace", "trace"},
                   {"/profile", "profile"},
                   {"/pmu", "pmu"},
                   {"/healthz", "healthz"}};
    host.decorate_dashboard(model);

    // Runtime panel: the process-level gauges that /metrics exports but
    // the dashboard never surfaced — which kernel tier is live, how big
    // the process is, and whether hardware counters back the IPC series.
    model.runtime.push_back(
        {"simd", std::string(simd::level_name(simd::active_level()))});
    model.runtime.push_back(
        {"rss", obs::dashboard_value(
                    static_cast<double>(obs::process_rss_bytes()) / (1 << 20)) +
                    " MiB"});
    const obs::pmu::availability& pa = obs::pmu::available();
    model.runtime.push_back(
        {"pmu", pa.hardware()
                    ? std::string(obs::pmu::mode_name(pa.tier))
                    : std::string(obs::pmu::mode_name(pa.tier)) + " (" +
                          pa.reason + ")"});
    if (pa.hardware()) {
        const obs::pmu::site_stats ingest =
            obs::pmu::site_totals("shard.ingest_batch");
        if (ingest.spans > 0)
            model.runtime.push_back(
                {"ingest ipc", obs::dashboard_value(ingest.ipc())});
    }

    // Flight-recorder charts: the headline derived series over their
    // whole stored range (they survive restarts, unlike the in-memory
    // sparklines above), downsampled to chart resolution.
    if (const obs::tsdb::database* tsdb = host.tsdb()) {
        static constexpr std::pair<const char*, const char*> kCharts[] = {
            {"v6class_gamma16_48", "gamma^16 at p=48 over all stored days"},
            {"v6class_gamma4_60", "gamma^4 at p=60 over all stored days"},
            {"v6class_stable_fraction",
             "nd-stable fraction over all stored days"},
            {"v6class_active_addresses",
             "active addresses per classified day"},
            {"v6class_day_distinct_addresses_estimate",
             "HLL distinct-address estimate per sealed day"},
        };
        constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        for (const auto& [name, help] : kCharts) {
            const std::vector<obs::tsdb::point> pts =
                tsdb->query(name, "", kMin, kMax);
            if (pts.empty()) continue;
            const std::int64_t span = pts.back().ts - pts.front().ts;
            const std::vector<obs::tsdb::point> ds =
                obs::tsdb::downsample(pts, span > 200 ? span / 200 : 1);
            obs::dashboard_chart chart;
            chart.name = name;
            chart.help = help;
            chart.points.reserve(ds.size());
            for (const obs::tsdb::point& p : ds)
                chart.points.push_back({p.ts, p.value});
            model.charts.push_back(std::move(chart));
        }
    }
    return model;
}

void print_status(const stream_stats& s, double rate) {
    std::printf("{\"type\":\"status\",\"fed\":%llu,\"records\":%llu,"
                "\"hits\":%llu,\"late_dropped\":%llu,\"dropped\":%llu,"
                "\"rate\":%.0f,\"open_day\":%d,\"sealed_day\":%d,"
                "\"distinct_addrs\":%zu,\"distinct_64s\":%zu}\n",
                static_cast<unsigned long long>(s.fed),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.late_dropped),
                static_cast<unsigned long long>(s.dropped), rate,
                s.open_day == kNoDay ? -1 : s.open_day,
                s.sealed_day == kNoDay ? -1 : s.sealed_day,
                s.distinct_addresses, s.distinct_projected);
}

void print_final(const stream_snapshot& s, std::uint64_t malformed) {
    std::printf("{\"type\":\"final\",\"epoch\":%d,\"records\":%llu,"
                "\"hits\":%llu,\"late_dropped\":%llu,\"malformed\":%llu,"
                "\"distinct_addrs\":%zu,\"distinct_64s\":%zu,\"spectrum\":[",
                s.epoch == kNoDay ? -1 : s.epoch,
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.late_dropped),
                static_cast<unsigned long long>(malformed),
                s.distinct_addresses, s.distinct_projected);
    for (std::size_t n = 0; n < s.spectrum.size(); ++n)
        std::printf("%s%llu", n ? "," : "",
                    static_cast<unsigned long long>(s.spectrum[n]));
    std::printf("],");
    print_density(s.density);
    std::printf("}\n");
}

/// The service step. A pending SIGHUP first hot-reloads the alert rules
/// file and the enrichment db; each swap happens only after the
/// replacement loaded cleanly, so a failed reload logs and keeps the
/// previous state serving. Then it prints the day reports past the
/// first `printed`, each followed by its per-ASN breakdown when a ledger
/// is active (with a flight recorder, the day's top-ASN rows become
/// durable series here too; the seal hook records the live derived
/// series). Returns the new count of printed reports.
std::size_t service_step(tools::daemon_host& host, net::enrichment* enrich,
                         const stream_engine& engine, std::size_t printed,
                         net::asn_ledger* ledger, obs::tsdb::database* tsdb) {
    if (host.reload_on_sighup() && enrich) {
        std::string error;
        if (enrich->reload(&error)) {
            const auto snap = enrich->snapshot();
            std::fprintf(stderr,
                         "reloaded %s: %zu prefixes (generation %llu)\n",
                         enrich->path().c_str(), snap ? snap->size() : 0,
                         static_cast<unsigned long long>(
                             snap ? snap->generation() : 0));
        } else {
            std::fprintf(stderr, "warning: reload of %s failed (%s); keeping "
                                 "previous database\n",
                         enrich->path().c_str(), error.c_str());
        }
    }
    const std::vector<day_report> fresh = engine.reports(printed);
    if (fresh.empty()) return printed;
    bool flushed = false;
    for (const day_report& report : fresh) {
        print_day_report(report);
        if (ledger) {
            const auto rows = ledger->take_day(report.day);
            if (!rows.empty()) {
                print_day_asn(report.day, rows);
                if (tsdb) {
                    net::flush_day_asn(*tsdb, report.day, rows);
                    flushed = true;
                }
            }
        }
    }
    if (flushed) tsdb->commit();
    std::fflush(stdout);
    return printed + fresh.size();
}

/// One periodic federation push: the node's status frame plus any
/// events logged since the last push (the cursor makes event frames
/// incremental — a reconnecting pusher re-sends nothing already sent).
void push_telemetry(obs::federate::telemetry_pusher* pusher,
                    const stream_engine& engine,
                    std::uint64_t& event_cursor) {
    if (!pusher) return;
    const stream_stats s = engine.stats();
    net::tel_status st;
    st.records = s.records;
    st.open_day = s.open_day == kNoDay ? -1 : s.open_day;
    st.sealed_day = s.sealed_day == kNoDay ? -1 : s.sealed_day;
    st.unix_time = std::chrono::duration<double>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
    pusher->push_status(st);
    const std::vector<obs::event> events =
        obs::event_log::global().since(event_cursor);
    if (!events.empty()) {
        event_cursor = events.back().seq;
        pusher->push_events(events);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const tools::flag_set flags(argc, argv);
    unsigned shards = 4, n = 3, spectrum_max = 14;
    int back = 7, fwd = 7;
    std::size_t batch = 1024, queue = 64;
    long status_every = 100000;
    std::vector<std::string> class_texts;
    bool listen_given = false, metrics_given = false;
    std::string listen_text = "0", metrics_text = "9100";
    std::string replay_path, asn_db_path;
    std::string state_dir, alerts_path, alerts_notify;
    std::string push_text, node_name = "node";
    double tick_seconds = 60;
    std::size_t retain_bytes = 0, events_cap = 8u << 20;
    long retain_days = 0;
    double rate = 0;
    long pcap_port = 0;
    tools::flag_table cli(
        "usage: v6stream [--shards=N] [--batch=N] [--queue=N] [--n=3]\n"
        "                [--back=7] [--fwd=7] [--class=N@P ...]\n"
        "                [--status-every=RECORDS] [--spectrum=MAX]\n"
        "                [--metrics-port=P] [--asn-db=FILE]\n"
        "                [--state-dir=DIR] [--alerts=FILE]\n"
        "                [--push=HOST:PORT --node=NAME]\n"
        "                [--listen[=PORT] | --replay=PATH [--rate=R]]\n"
        "                [feed-file|-]\n"
        "streaming classification of a \"day address [hits]\" feed;\n"
        "emits JSON lines (day roll-ups, per-ASN day breakdowns, status,\n"
        "final report)");
    cli.add("shards", &shards, "engine worker shards (default 4)")
        .add("batch", &batch, "records per shard batch (default 1024)")
        .add("queue", &queue, "shard queue capacity in batches (default 64)")
        .add("n", &n, "stability threshold in days (default 3)")
        .add("back", &back, "stability window days back (default 7)")
        .add("fwd", &fwd, "stability window days forward (default 7)")
        .add("class", &class_texts, "density class N@P (repeatable)")
        .add("status-every", &status_every,
             "status JSON every N feed records (default 100000; 0 = off)")
        .add("spectrum", &spectrum_max, "lifetime spectrum max n (default 14)")
        .add("metrics-port", &metrics_given, &metrics_text,
             "serve /metrics /healthz /dashboard /trace /profile on 0.0.0.0:P")
        .add("asn-db", &asn_db_path,
             "v6mkdb binary ASN/geo db; tags records at ingest and emits\n"
             "per-ASN day breakdowns; SIGHUP hot-reloads it")
        .add("state-dir", &state_dir,
             "durable flight recorder under DIR/tsdb; day seals append the\n"
             "live series + events, restarts resume the stored history")
        .add("alerts", &alerts_path,
             "alert rules file (one \"name key=value ...\" rule per line);\n"
             "SIGHUP hot-reloads it, preserving state for unchanged rules")
        .add("alerts-notify", &alerts_notify,
             "shell command run on alert firing/resolved transitions\n"
             "(invoked with the transition JSON as its argument)")
        .add("push", &push_text,
             "federate to a v6agg aggregator at HOST:PORT: day seals push\n"
             "series + sketches, status/events ride along periodically")
        .add("node", &node_name,
             "node identity carried in every pushed frame and as the\n"
             "aggregator-side node= series label (default \"node\")")
        .add("events-cap", &events_cap,
             "--events-out file size cap in bytes before rotation to .1\n"
             "(default 8 MiB)")
        .add("tick", &tick_seconds,
             "wall-clock gauge/alert evaluation period in --listen mode,\n"
             "seconds (default 60; 0 = off)")
        .add("retain-bytes", &retain_bytes,
             "tsdb retention cap in bytes across sealed segments (0 = keep)")
        .add("retain-days", &retain_days,
             "tsdb retention horizon in day-timestamp units (0 = keep)")
        .add("listen", &listen_given, &listen_text,
             "ingest v6wire UDP datagrams on PORT (default: ephemeral,\n"
             "printed to stderr) instead of a text feed")
        .add("replay", &replay_path,
             "replay a day_<n>.log corpus dir, .v6w wire capture, or .pcap")
        .add("rate", &rate,
             "pacing in records/second for any source but --listen\n"
             "(0 = line rate)")
        .add("pcap-port", &pcap_port,
             "UDP dst-port filter for --replay of a .pcap (0 = any)");
    if (flags.has("help")) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }
    if (const auto err = cli.parse(flags)) {
        std::fprintf(stderr, "error: %s\n", err->c_str());
        return 1;
    }
    if (listen_given && !replay_path.empty()) {
        std::fprintf(stderr, "error: --listen and --replay are exclusive\n");
        return 1;
    }
    tools::obs_exporter obs_dump(flags);

    // One startup line stating where hardware counters stand, so a
    // daemon log always explains a missing IPC panel (paranoid sysctl,
    // VM without a PMU, or an explicit V6CLASS_DISABLE_PMU).
    {
        const obs::pmu::availability& pa = obs::pmu::available();
        std::fprintf(stderr, "pmu: %s (%s)\n", obs::pmu::mode_name(pa.tier),
                     pa.reason.c_str());
    }

    stream_config cfg;
    cfg.shards = shards;
    cfg.batch_size = batch;
    cfg.queue_capacity = queue;
    cfg.stability_n = n;
    cfg.window.window_back = back;
    cfg.window.window_fwd = fwd;
    cfg.spectrum_max = spectrum_max;
    std::vector<std::pair<std::uint64_t, unsigned>> classes;
    for (const std::string& text : class_texts) {
        const auto parsed = tools::parse_density_class(text);
        if (!parsed) {
            std::fprintf(stderr, "error: bad --class=%s (want e.g. 2@112)\n",
                         text.c_str());
            return 1;
        }
        classes.push_back(*parsed);
    }
    if (!classes.empty()) cfg.density_classes = std::move(classes);

    tools::daemon_host host;

    // The daemon shares the process-wide registry so one /metrics endpoint
    // covers the engine, the library phase timers, and the tool itself —
    // and likewise the process-wide event log, so --events-out sees the
    // engine's drift alarms.
    obs::registry& reg = obs::registry::global();
    cfg.metrics_registry = &reg;
    cfg.events = &obs::event_log::global();
    const obs::counter malformed_total = reg.get_counter(
        "v6_stream_malformed_total", {},
        "Feed lines that failed to parse and were skipped.");
    const obs::gauge ingest_rate = reg.get_gauge(
        "v6_stream_ingest_rate", {},
        "Accepted records per second, averaged over the last status interval.");

    // --events-out switches the event log to streaming mode up front, so
    // every event from here on (lifecycle, drift alarms, alert
    // transitions) lands in the file as it happens instead of as an
    // exit-time dump, with size-capped rotation to FILE.1.
    if (flags.has("events-out"))
        obs::event_log::global().enable_file(flags.get("events-out"),
                                             events_cap, &reg);

    // Durable flight recorder (optional).
    if (!state_dir.empty()) {
        obs::tsdb::options topt;
        topt.metrics = &reg;
        topt.retain_bytes = retain_bytes;
        topt.retain_age = retain_days;
        if (!host.open_state_dir(state_dir, topt)) return 1;
    }
    if (!alerts_path.empty() &&
        !host.load_alerts(alerts_path, alerts_notify, reg))
        return 1;
    obs::tsdb::database* const tsdb = host.tsdb();
    obs::alert_engine* const alert_ptr = host.alerts();

    // Federation pusher (optional). The connection itself is lazy — a
    // not-yet-started aggregator costs counted failures, not a startup
    // error.
    std::unique_ptr<obs::federate::telemetry_pusher> pusher;
    std::uint64_t push_event_cursor = 0;
    if (!push_text.empty()) {
        const std::size_t colon = push_text.rfind(':');
        const long push_port =
            colon == std::string::npos
                ? 0
                : std::atol(push_text.c_str() + colon + 1);
        if (colon == std::string::npos || push_port <= 0 ||
            push_port > 65535) {
            std::fprintf(stderr, "error: bad --push=%s (want HOST:PORT)\n",
                         push_text.c_str());
            return 1;
        }
        obs::federate::telemetry_pusher::config pcfg;
        pcfg.host = push_text.substr(0, colon);
        pcfg.port = static_cast<std::uint16_t>(push_port);
        pcfg.node = node_name;
        pusher = std::make_unique<obs::federate::telemetry_pusher>(pcfg);
        std::fprintf(stderr, "pushing telemetry to %s as node %s\n",
                     push_text.c_str(), node_name.c_str());
    }

    // The seal hook: alert rules first, then the flight recorder, then
    // the push — so a seal's alert transitions commit together with that
    // seal's points. The recorder is built before the engine, so events
    // logged from here on (the lifecycle start included) persist.
    std::optional<obs::tsdb::seal_sink> recorder;
    if (tsdb) recorder.emplace(*tsdb, obs::event_log::global());
    if (alert_ptr || recorder || pusher)
        cfg.on_seal = [alert_ptr, rec = recorder ? &*recorder : nullptr,
                       push = pusher.get()](
                          const obs::federate::seal_snapshot& snap) {
            if (alert_ptr)
                alert_ptr->evaluate(obs::row_sampler(snap.series), snap.day);
            if (rec) (*rec)(snap);
            if (push) push->push_seal(snap);
        };

    stream_engine engine(cfg);

    // Logged after the alert engine exists (its event cursor starts at
    // construction time), so an event=lifecycle rule sees the start.
    obs::event_log::global().log(obs::event_level::info, "lifecycle",
                                 "v6stream started", {});

    // Enrichment (optional): load the db up front — a missing db at
    // startup is an operator error, unlike a failed *re*load, which
    // keeps the previous snapshot serving.
    std::optional<net::enrichment> enrich;
    std::optional<net::asn_ledger> ledger;
    if (!asn_db_path.empty()) {
        enrich.emplace(asn_db_path, &reg);
        std::string error;
        if (!enrich->reload(&error)) {
            std::fprintf(stderr, "error: cannot load %s: %s\n",
                         asn_db_path.c_str(), error.c_str());
            return 1;
        }
        ledger.emplace(&reg);
        const auto snap = enrich->snapshot();
        std::fprintf(stderr, "loaded %s: %zu prefixes (SIGHUP reloads)\n",
                     asn_db_path.c_str(), snap ? snap->size() : 0);
    }
    net::enrichment* enrich_ptr = enrich ? &*enrich : nullptr;
    net::asn_ledger* ledger_ptr = ledger ? &*ledger : nullptr;

    obs::metrics_server server;
    if (metrics_given) {
        server.set_health_payload([&engine, &state_dir, &host] {
            const stream_stats s = engine.stats();
            std::string out =
                "\"last_seal_day\":" +
                std::to_string(s.sealed_day == kNoDay ? -1 : s.sealed_day) +
                ",\"open_day\":" +
                std::to_string(s.open_day == kNoDay ? -1 : s.open_day) +
                ",\"records\":" + std::to_string(s.records);
            if (!state_dir.empty())
                out += ",\"state_dir\":" + obs::event_field_string(state_dir);
            return out + host.health_alerts();
        });
        server.set_dashboard([&engine, &server, enrich_ptr, ledger_ptr, &host] {
            return obs::render_dashboard(
                build_dashboard(engine, server, enrich_ptr, ledger_ptr, host));
        });
        // The history API and /alerts ride the same server via the
        // generic handler table — the same pair v6agg mounts.
        host.mount(server);

        std::string error;
        const auto port =
            static_cast<std::uint16_t>(std::atol(metrics_text.c_str()));
        if (!server.start(port, &reg, &error)) {
            std::fprintf(stderr, "error: metrics server: %s\n", error.c_str());
            return 1;
        }
        // A live observability port implies live tracing and profiling:
        // /trace serves the span rings, /profile the sampled stacks.
        // (--trace-out may have enabled the tracer already; enable() is
        // idempotent, and the profiler start is skipped if --profile-out
        // already started it.)
        obs::tracer::enable();
        obs::pmu::enable();  // /pmu serves live deltas; no-op when denied
        if (!obs::profiler::running()) obs::profiler::start();
        std::fprintf(stderr,
                     "metrics on http://0.0.0.0:%u/metrics, dashboard on "
                     "http://0.0.0.0:%u/dashboard (links to /trace, "
                     "/profile, /healthz)\n",
                     static_cast<unsigned>(server.port()),
                     static_cast<unsigned>(server.port()));
    }

    std::uint64_t malformed = 0;
    std::size_t printed_reports = 0;
    const auto service = [&] {
        printed_reports = service_step(host, enrich_ptr, engine, printed_reports,
                                       ledger_ptr, tsdb);
    };
    auto rate_mark = std::chrono::steady_clock::now();
    std::uint64_t rate_records = 0;
    // One status object; its rate is accepted records per second since
    // the previous one.
    const auto status = [&] {
        const stream_stats s = engine.stats();
        const auto now = std::chrono::steady_clock::now();
        const double dt = std::chrono::duration<double>(now - rate_mark).count();
        const double r =
            dt > 0.0 ? static_cast<double>(s.records - rate_records) / dt : 0.0;
        rate_mark = now;
        rate_records = s.records;
        ingest_rate.set(static_cast<std::int64_t>(r));
        print_status(s, r);
    };

    if (listen_given) {
        // Live collector mode: the rx thread owns the socket; the daemon
        // loop polls the service step and the status line, and ticks.
        net::collector_config ccfg;
        ccfg.port = static_cast<std::uint16_t>(std::atol(listen_text.c_str()));
        ccfg.registry = &reg;
        net::udp_collector collector(engine, ccfg, enrich_ptr, ledger_ptr);
        std::string error;
        if (!collector.start(&error)) {
            std::fprintf(stderr, "error: collector: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "listening on udp port %u\n",
                     static_cast<unsigned>(collector.port()));
        std::fflush(stderr);
        // Wall-clock tick: a listening daemon may go days between seals,
        // so the throughput gauges are recorded (and the alert rules
        // evaluated) on unix-seconds cadence too.
        host.run(
            tsdb || alert_ptr || pusher ? tick_seconds : 0,
            [&] {
                service();
                const auto since = std::chrono::steady_clock::now() - rate_mark;
                if (status_every > 0 && since >= std::chrono::seconds(2))
                    status();  // resets rate_mark
            },
            [&] {
                push_telemetry(pusher.get(), engine, push_event_cursor);
                const auto now_unix =
                    static_cast<std::int64_t>(std::time(nullptr));
                if (tsdb) {
                    const stream_stats s = engine.stats();
                    tsdb->append("v6_stream_records_total", "", now_unix,
                                 static_cast<double>(s.records));
                    tsdb->append("v6_stream_ingest_rate", "", now_unix,
                                 static_cast<double>(ingest_rate.value()));
                    tsdb->append("v6_stream_distinct_addresses", "", now_unix,
                                 static_cast<double>(s.distinct_addresses));
                    tsdb->commit();
                }
                if (alert_ptr)
                    alert_ptr->evaluate(live_sampler(engine), now_unix);
            });
        // Stop receiving BEFORE sealing: everything the socket accepted
        // is in the engine when finish() runs below.
        collector.stop();
        const net::collector_stats cs = collector.stats();
        std::fprintf(stderr,
                     "collector: %llu datagrams, %llu records, %llu rejected\n",
                     static_cast<unsigned long long>(cs.datagrams),
                     static_cast<unsigned long long>(cs.records),
                     static_cast<unsigned long long>(cs.decode.rejected()));
    } else {
        // Every other source cuts its records into blocks of one wire
        // datagram's shape and hands each to this one ingest step:
        // --rate paces by records, the service step follows every
        // block, and the stop flag ends the feed, which still flows into
        // the ordered seal-then-report shutdown below.
        net::lookup_cache cache;
        const net::pacer pace(rate, &tools::g_stop);
        std::uint64_t ingested = 0;
        const auto ingest = [&](const simd::record_block& block) {
            if (!pace.wait(ingested)) return false;
            net::ingest_block(engine, block, enrich_ptr, ledger_ptr, &cache);
            ingested += block.size();
            service();
            return true;
        };
        simd::record_block block(net::kWireDefaultBatch);
        const auto flush = [&] {  // false once the feed must stop
            const bool more = block.empty() || ingest(block);
            block.clear();
            return more;
        };

        if (replay_path.empty()) {
            // The text feed. A status object counts every record up to
            // its line, so the block is cut at that line.
            std::ifstream file;
            const bool use_stdin =
                flags.positional().empty() || flags.positional()[0] == "-";
            if (!use_stdin) {
                file.open(flags.positional()[0]);
                if (!file) {
                    std::fprintf(stderr, "error: cannot open %s\n",
                                 flags.positional()[0].c_str());
                    return 1;
                }
            }
            read_stream_records(
                use_stdin ? std::cin : file,
                [&](const stream_record& r, std::uint64_t line) {
                    block.push_back(r.addr.hi(), r.addr.lo(), r.day, r.hits);
                    if (status_every > 0 &&
                        line % static_cast<std::uint64_t>(status_every) == 0) {
                        if (!flush()) return false;
                        status();
                        return true;
                    }
                    return block.size() < net::kWireDefaultBatch || flush();
                },
                [&](const read_error& e) {
                    malformed_total.inc();
                    if (++malformed <= 8)
                        std::fprintf(stderr, "warning: line %llu: malformed: %s\n",
                                     static_cast<unsigned long long>(e.line_number),
                                     e.text.c_str());
                });
        } else if (std::filesystem::is_directory(replay_path)) {
            // A day_<n>.log corpus directory, in day order.
            namespace fs = std::filesystem;
            std::vector<int> days;
            try {
                for (const auto& entry : fs::directory_iterator(replay_path)) {
                    int day = 0;
                    if (entry.is_regular_file() &&
                        std::sscanf(entry.path().filename().string().c_str(),
                                    "day_%d.log", &day) == 1)
                        days.push_back(day);
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 1;
            }
            std::sort(days.begin(), days.end());
            bool more = true;
            for (std::size_t d = 0; d < days.size() && more; ++d) {
                const daily_log log = read_log_file(
                    fs::path(replay_path) / corpus_file_name(days[d]), days[d]);
                for (std::size_t i = 0; i < log.records.size() && more; ++i) {
                    const observation& o = log.records[i];
                    block.push_back(o.addr.hi(), o.addr.lo(), days[d], o.hits);
                    if (block.size() == net::kWireDefaultBatch) more = flush();
                }
            }
        } else {
            // A .v6w wire capture or a .pcap of v6wire datagrams: each
            // datagram is already one block.
            const net::replay_result result = net::replay_wire_file(
                replay_path, ingest, static_cast<std::uint16_t>(pcap_port));
            if (!result.ok()) {
                std::fprintf(stderr, "error: %s\n", result.error.c_str());
                return 1;
            }
            std::fprintf(stderr,
                         "replayed %llu datagrams, %llu records%s (%llu rejected)\n",
                         static_cast<unsigned long long>(result.datagrams),
                         static_cast<unsigned long long>(result.records),
                         result.stopped ? " [interrupted]" : "",
                         static_cast<unsigned long long>(result.decode.rejected()));
        }
        flush();  // the text feed's or the corpus's last partial block
    }

    // Ordered shutdown (also the SIGINT/SIGTERM path, since the loops above
    // merely break out on g_stop): mark the server draining so probes stop
    // routing here, then finish() seals the open day and joins the roll
    // thread; one last service step prints the remaining reports, then the
    // final object; we stop the metrics server, and only then write the
    // metrics/events dumps — so the files reflect the fully-settled
    // registry, including the last seal.
    server.set_state("draining");
    engine.finish();
    service();
    // Final federation push: the aggregator sees the last seal's status
    // (and any shutdown events) before the connection drops.
    push_telemetry(pusher.get(), engine, push_event_cursor);
    print_final(engine.snapshot(), malformed);
    server.stop();
    obs_dump.write();
    return 0;
}
