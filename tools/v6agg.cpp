// v6agg — the fleet telemetry aggregator: one process that N federated
// v6stream collectors push V6TEL1 frames to (--push=HOST:PORT on the
// collector side), turning isolated per-vantage-point telemetry into a
// fleet view.
//
//   v6agg [--port=P] [--metrics-port=P] [--state-dir=DIR]
//         [--alerts=FILE] [--alerts-notify=CMD] [--staleness=SECONDS]
//         [--tick=SECONDS] [--keep-days=N]
//
// What it maintains:
//
//   * a per-node registry (last-seen, staleness, frame/record counts,
//     sealed day, sequence gaps), served at GET /api/nodes and as the
//     fleet panel of GET /dashboard;
//   * per-node series: every pushed seal series lands in the tsdb
//     under a `node=<id>` label, queryable via GET /api/series;
//   * global distinct-address estimates: pushed day HLL sketches are
//     union-merged register-wise across nodes — exactly the merge the
//     paper performs across vantage points — and the per-day global
//     estimates are exported as gauges, flushed to the tsdb, and shown
//     on the dashboard next to the per-node values;
//   * alerting: --alerts rules evaluate against the fleet sampler, so
//     `node=<id>` absence rules fire within one hold-down of a
//     collector going silent. SIGHUP hot-reloads the rules file.
//
// Like v6stream, SIGINT/SIGTERM runs an ordered shutdown: the server
// drains, the newest day's global estimates flush, the tsdb commits.
#include <chrono>
#include <ctime>
#include <memory>

#include "daemon_host.h"
#include "tool_common.h"
#include "v6class/obs/federate.h"

using namespace v6;

namespace {

/// The alert sampler over the aggregator: one snapshot of the node
/// registry per evaluation (captured here, never under the alert
/// mutex against a lock the aggregator's rx thread could hold while
/// calling out — the aggregator mutex is a leaf, but the snapshot
/// keeps the evaluation consistent too).
obs::alert_engine::sampler
fleet_sampler(const obs::federate::telemetry_aggregator& agg) {
    struct snap_t {
        std::vector<obs::federate::node_status> nodes;
        std::int64_t day;
        std::optional<double> addrs, p48s, p64s;
    };
    auto snap = std::make_shared<const snap_t>(snap_t{
        agg.nodes(), agg.newest_day(),
        agg.global_estimate(agg.newest_day(), net::kTelSketchDayAddresses),
        agg.global_estimate(agg.newest_day(), net::kTelSketchDay48s),
        agg.global_estimate(agg.newest_day(), net::kTelSketchDay64s)});
    return [snap](const std::string& series,
                  const std::string& label) -> std::optional<double> {
        if (series == "v6fleet_node_up") {
            for (const obs::federate::node_status& n : snap->nodes)
                if ("node=" + n.name == label)
                    return n.fresh ? std::optional<double>(1.0) : std::nullopt;
            return std::nullopt;  // unknown node == absent
        }
        if (series == "v6fleet_nodes") {
            double fresh = 0;
            for (const obs::federate::node_status& n : snap->nodes)
                if (n.fresh) ++fresh;
            return fresh;
        }
        if (series == "v6fleet_day_distinct_addresses_estimate")
            return snap->addrs;
        if (series == "v6fleet_day_distinct_48s_estimate") return snap->p48s;
        if (series == "v6fleet_day_distinct_64s_estimate") return snap->p64s;
        return std::nullopt;
    };
}

/// The /dashboard model: fleet panel + global-estimate history charts.
obs::dashboard_model build_dashboard(
    const obs::federate::telemetry_aggregator& agg,
    const obs::metrics_server& server, const tools::daemon_host& host) {
    obs::dashboard_model model;
    model.title = "v6agg fleet telemetry";
    model.status = server.state();
    model.uptime_seconds = server.uptime_seconds();
    model.show_nodes = true;

    const std::vector<obs::federate::node_status> nodes = agg.nodes();
    std::size_t fresh = 0;
    std::uint64_t records = 0;
    for (const obs::federate::node_status& n : nodes) {
        if (n.fresh) ++fresh;
        records += n.records;
        obs::dashboard_node row;
        row.name = n.name;
        row.fresh = n.fresh;
        row.age_seconds = n.age_seconds;
        row.sealed_day = n.sealed_day;
        row.records = n.records;
        row.frames = n.frames;
        if (n.seq_gaps)
            row.detail = std::to_string(n.seq_gaps) + " seq gaps";
        if (n.open_day >= 0)
            row.detail += (row.detail.empty() ? "" : ", ") + std::string("open day ") +
                          std::to_string(n.open_day);
        model.nodes.push_back(std::move(row));
    }

    const net::tel_decode_stats codec = agg.decode_stats();
    const std::int64_t day = agg.newest_day();
    model.stats = {
        {"nodes", std::to_string(nodes.size())},
        {"fresh", std::to_string(fresh)},
        {"fleet records", std::to_string(records)},
        {"frames", std::to_string(codec.frames)},
        {"rejected", std::to_string(codec.rejected())},
        {"newest day", day < 0 ? "-" : std::to_string(day)},
    };
    if (const auto est = agg.global_estimate(day, net::kTelSketchDayAddresses))
        model.stats.push_back(
            {"global distinct /128s", obs::dashboard_value(*est)});
    if (const auto est = agg.global_estimate(day, net::kTelSketchDay64s))
        model.stats.push_back(
            {"global distinct /64s", obs::dashboard_value(*est)});

    model.links = {{"/metrics", "metrics"},
                   {"/api/nodes", "nodes"},
                   {"/healthz", "healthz"}};
    host.decorate_dashboard(model);

    // Global vs per-node history: the flushed fleet estimate series
    // plus each node's own pushed estimate, so divergence (a vantage
    // point seeing addresses no one else does) is visible at a glance.
    if (const obs::tsdb::database* tsdb = host.tsdb()) {
        constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        const auto add_chart = [&](const std::string& name,
                                   const std::string& label,
                                   const std::string& help) {
            const std::vector<obs::tsdb::point> pts =
                tsdb->query(name, label, kMin, kMax);
            if (pts.empty()) return;
            obs::dashboard_chart chart;
            chart.name = label.empty() ? name : name + "{" + label + "}";
            chart.help = help;
            chart.points.reserve(pts.size());
            for (const obs::tsdb::point& p : pts)
                chart.points.push_back({p.ts, p.value});
            model.charts.push_back(std::move(chart));
        };
        add_chart("v6fleet_day_distinct_addresses_estimate", "",
                  "global distinct /128s per day (exact cross-node union)");
        add_chart("v6fleet_day_distinct_64s_estimate", "",
                  "global distinct /64s per day (exact cross-node union)");
        for (const obs::federate::node_status& n : nodes)
            add_chart("v6class_day_distinct_addresses_estimate",
                      "node=" + n.name,
                      "node " + n.name + " distinct /128s per day");
    }
    return model;
}

}  // namespace

int main(int argc, char** argv) {
    const tools::flag_set flags(argc, argv);
    bool port_given = false, metrics_given = false;
    std::string port_text = "0", metrics_text = "9200";
    std::string state_dir, alerts_path, alerts_notify;
    double staleness_seconds = 10, tick_seconds = 2;
    long keep_days = 4;
    std::size_t retain_bytes = 0;
    tools::flag_table cli(
        "usage: v6agg [--port=P] [--metrics-port=P] [--state-dir=DIR]\n"
        "             [--alerts=FILE] [--alerts-notify=CMD]\n"
        "             [--staleness=SECONDS] [--tick=SECONDS]\n"
        "             [--keep-days=N]\n"
        "fleet telemetry aggregator: ingests V6TEL1 pushes from\n"
        "`v6stream --push`, tracks per-node health, merges series into a\n"
        "flight recorder under node= labels, and maintains global\n"
        "distinct-address estimates by exact cross-node HLL union");
    cli.add("port", &port_given, &port_text,
            "TCP port collectors push to (default: ephemeral, printed to\n"
            "stderr)")
        .add("metrics-port", &metrics_given, &metrics_text,
             "serve /metrics /healthz /dashboard /api/nodes /api/series on\n"
             "0.0.0.0:P")
        .add("state-dir", &state_dir,
             "durable fleet flight recorder under DIR/tsdb (per-node\n"
             "series + flushed global estimates)")
        .add("alerts", &alerts_path,
             "alert rules file; node=<id> rules fire when a collector\n"
             "goes silent; SIGHUP hot-reloads it")
        .add("alerts-notify", &alerts_notify,
             "shell command run on alert firing/resolved transitions")
        .add("staleness", &staleness_seconds,
             "seconds without a frame before a node counts stale\n"
             "(default 10)")
        .add("tick", &tick_seconds,
             "alert evaluation / tsdb commit period in seconds (default 2)")
        .add("keep-days", &keep_days,
             "newest day-sketch windows kept for the global union\n"
             "(default 4)")
        .add("retain-bytes", &retain_bytes,
             "tsdb retention cap in bytes across sealed segments (0 = keep)");
    if (flags.has("help")) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }
    if (const auto err = cli.parse(flags)) {
        std::fprintf(stderr, "error: %s\n", err->c_str());
        return 1;
    }
    tools::obs_exporter obs_dump(flags);

    tools::daemon_host host;
    obs::registry& reg = obs::registry::global();

    // Flight recorder first (the aggregator writes into it).
    if (!state_dir.empty()) {
        obs::tsdb::options topt;
        topt.metrics = &reg;
        topt.retain_bytes = retain_bytes;
        if (!host.open_state_dir(state_dir, topt)) return 1;
    }
    obs::tsdb::database* const tsdb = host.tsdb();

    obs::federate::telemetry_aggregator::config acfg;
    acfg.port = static_cast<std::uint16_t>(std::atol(port_text.c_str()));
    acfg.staleness = std::chrono::milliseconds(
        static_cast<long>(staleness_seconds * 1000));
    acfg.metrics = &reg;
    acfg.events = &obs::event_log::global();
    acfg.tsdb = tsdb;
    acfg.keep_days = static_cast<int>(keep_days);
    obs::federate::telemetry_aggregator agg(acfg);
    std::string error;
    if (!agg.start(&error)) {
        std::fprintf(stderr, "error: aggregator: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "aggregating on tcp port %u\n",
                 static_cast<unsigned>(agg.port()));
    std::fflush(stderr);

    if (!alerts_path.empty() &&
        !host.load_alerts(alerts_path, alerts_notify, reg))
        return 1;
    obs::alert_engine* const alert_ptr = host.alerts();

    obs::metrics_server server;
    if (metrics_given) {
        server.set_health_payload([&agg, &host] {
            const std::vector<obs::federate::node_status> nodes = agg.nodes();
            std::size_t fresh = 0;
            for (const obs::federate::node_status& n : nodes)
                if (n.fresh) ++fresh;
            std::string out = "\"nodes\":" + std::to_string(nodes.size()) +
                              ",\"fresh\":" + std::to_string(fresh) +
                              ",\"newest_day\":" +
                              std::to_string(agg.newest_day());
            return out + host.health_alerts();
        });
        server.set_dashboard([&agg, &server, &host] {
            return obs::render_dashboard(build_dashboard(agg, server, host));
        });
        agg.register_http(server);
        host.mount(server);
        const auto port =
            static_cast<std::uint16_t>(std::atol(metrics_text.c_str()));
        if (!server.start(port, &reg, &error)) {
            std::fprintf(stderr, "error: metrics server: %s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "metrics on http://0.0.0.0:%u/metrics, fleet dashboard "
                     "on http://0.0.0.0:%u/dashboard\n",
                     static_cast<unsigned>(server.port()),
                     static_cast<unsigned>(server.port()));
        std::fflush(stderr);
    }

    obs::event_log::global().log(obs::event_level::info, "lifecycle",
                                 "v6agg started", {});

    // Main loop: service reloads; each tick evaluates the alerts and
    // commits the recorder.
    host.run(
        tick_seconds, [&host] { host.reload_on_sighup(); },
        [&] {
            if (alert_ptr)
                alert_ptr->evaluate(fleet_sampler(agg),
                                    static_cast<std::int64_t>(
                                        std::time(nullptr)));
            if (tsdb) tsdb->commit();
        });

    // Ordered shutdown: drain, stop ingest (flushes the newest day's
    // global estimates and commits), then stop serving and dump.
    server.set_state("draining");
    agg.stop();
    const net::tel_decode_stats codec = agg.decode_stats();
    std::fprintf(stderr, "aggregated %llu frames (%llu rejected)\n",
                 static_cast<unsigned long long>(codec.frames),
                 static_cast<unsigned long long>(codec.rejected()));
    server.stop();
    obs_dump.write();
    return 0;
}
