// daemon_host.h — the scaffolding the two daemons share. v6stream (a
// collector) and v6agg (the fleet aggregator) both stop on SIGINT /
// SIGTERM, reload on SIGHUP, keep an optional flight recorder under
// --state-dir, run an optional --alerts rules engine, and expose the
// same /alerts endpoint, /healthz alerts fragment and dashboard alert
// panel. daemon_host owns that common state and the daemon loop; each
// tool keeps only what is its own (the stream engine, the aggregator).
#pragma once

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "v6class/obs/alert.h"
#include "v6class/obs/dashboard.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/http.h"
#include "v6class/obs/tsdb.h"

namespace v6::tools {

/// Raised by SIGINT/SIGTERM; the daemon loops poll it and then run
/// their ordered shutdown.
inline volatile std::sig_atomic_t g_stop = 0;
/// Raised by SIGHUP; consumed by daemon_host::reload_on_sighup().
inline volatile std::sig_atomic_t g_reload = 0;

/// One-line rule summary for the dashboard alert panel.
inline std::string alert_detail(const obs::alert_rule& r) {
    std::string out;
    switch (r.cond) {
        case obs::alert_cond::above:
            out = r.series + " above " + obs::event_field_number(r.threshold);
            break;
        case obs::alert_cond::below:
            out = r.series + " below " + obs::event_field_number(r.threshold);
            break;
        case obs::alert_cond::delta:
            out = r.series + " delta " + obs::event_field_number(r.threshold);
            break;
        case obs::alert_cond::absent:
            out = r.series + " absent " + obs::event_field_number(r.threshold);
            break;
        case obs::alert_cond::event:
            out = "event " + r.event_kind;
            break;
    }
    if (!r.label.empty()) out += " {" + r.label + "}";
    if (r.hold) out += " for " + std::to_string(r.hold);
    return out;
}

class daemon_host {
public:
    /// Installs the SIGINT/SIGTERM (g_stop) and SIGHUP (g_reload)
    /// handlers.
    daemon_host() {
        std::signal(SIGINT, [](int) { g_stop = 1; });
        std::signal(SIGTERM, [](int) { g_stop = 1; });
        std::signal(SIGHUP, [](int) { g_reload = 1; });
    }

    daemon_host(const daemon_host&) = delete;
    daemon_host& operator=(const daemon_host&) = delete;

    /// --state-dir: opens (and recovers) the flight recorder under
    /// DIR/tsdb and reports what it recovered. False, after printing
    /// the error, when the directory cannot be opened.
    bool open_state_dir(const std::string& state_dir,
                        const obs::tsdb::options& opt) {
        std::string error;
        tsdb_ = obs::tsdb::database::open(
            (std::filesystem::path(state_dir) / "tsdb").string(), opt, &error);
        if (!tsdb_) {
            std::fprintf(stderr, "error: cannot open state dir %s: %s\n",
                         state_dir.c_str(), error.c_str());
            return false;
        }
        std::fprintf(stderr,
                     "flight recorder %s: %llu points recovered, %zu series, "
                     "%zu segments%s\n",
                     tsdb_->dir().c_str(),
                     static_cast<unsigned long long>(tsdb_->recovered_points()),
                     tsdb_->list_series().size(), tsdb_->segment_count(),
                     tsdb_->truncated_bytes() ? " [torn tail truncated]" : "");
        return true;
    }

    /// --alerts / --alerts-notify: loads the rules file. A startup
    /// parse error is an operator error and fatal (false, after
    /// printing it), unlike a failed SIGHUP reload, which keeps the
    /// previous rules running. Transitions are logged to the global
    /// event log.
    bool load_alerts(const std::string& path, const std::string& notify,
                     obs::registry& reg) {
        alerts_path_ = path;
        alerts_.emplace(&reg, &obs::event_log::global());
        std::string error;
        if (!alerts_->load_file(path, &error)) {
            std::fprintf(stderr, "error: cannot load %s: %s\n", path.c_str(),
                         error.c_str());
            return false;
        }
        if (!notify.empty()) alerts_->set_notify_command(notify);
        std::fprintf(stderr, "loaded %s: %zu alert rules (SIGHUP reloads)\n",
                     path.c_str(), alerts_->rule_count());
        return true;
    }

    /// Null unless open_state_dir() / load_alerts() succeeded.
    obs::tsdb::database* tsdb() const noexcept { return tsdb_.get(); }
    obs::alert_engine* alerts() noexcept { return alerts_ ? &*alerts_ : nullptr; }
    const obs::alert_engine* alerts() const noexcept {
        return alerts_ ? &*alerts_ : nullptr;
    }

    /// The daemon loop: until SIGINT/SIGTERM, calls `poll` every 50 ms
    /// and `tick` every `tick_seconds` (0 = never) when one is due. The
    /// caller's ordered shutdown runs after it returns.
    template <class Poll, class Tick>
    void run(double tick_seconds, Poll&& poll, Tick&& tick) {
        const std::chrono::duration<double> period(tick_seconds);
        auto last_tick = std::chrono::steady_clock::now();
        while (!g_stop) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            poll();
            const auto now = std::chrono::steady_clock::now();
            if (tick_seconds > 0 && now - last_tick >= period) {
                last_tick = now;
                tick();
            }
        }
    }

    /// Services a pending SIGHUP, true once per signal: reloads the
    /// alert rules file, preserving state for unchanged rules; a failed
    /// reload logs and keeps the previous rules. On true the caller
    /// reloads its own state too.
    bool reload_on_sighup() {
        if (!g_reload) return false;
        g_reload = 0;
        if (!alerts_) return true;
        std::string error;
        if (alerts_->load_file(alerts_path_, &error)) {
            std::fprintf(stderr, "reloaded %s: %zu alert rules\n",
                         alerts_path_.c_str(), alerts_->rule_count());
            obs::event_log::global().log(
                obs::event_level::info, "lifecycle", "alert rules reloaded",
                {{"rules", obs::event_field_number(
                               static_cast<double>(alerts_->rule_count()))}});
        } else {
            std::fprintf(stderr, "warning: reload of alert rules failed (%s); "
                                 "keeping previous rules\n",
                         error.c_str());
        }
        return true;
    }

    /// Mounts the history API over the flight recorder and GET /alerts
    /// (each when configured). Call before server.start().
    void mount(obs::metrics_server& server) const {
        if (tsdb_) obs::tsdb::register_history_api(server, tsdb_.get());
        if (const obs::alert_engine* a = alerts())
            server.add_handler("/alerts", [a](const obs::query_params&) {
                obs::http_reply reply;
                reply.body = "{\"firing\":" + std::to_string(a->firing_count()) +
                             ",\"pending\":" + std::to_string(a->pending_count()) +
                             ",\"evaluations\":" +
                             std::to_string(a->evaluations()) +
                             ",\"rules\":" + a->status_json() + "}";
                return reply;
            });
    }

    /// The /healthz alerts fragment (",\"alerts\":{...}"), or "".
    std::string health_alerts() const {
        const obs::alert_engine* a = alerts();
        if (!a) return {};
        return ",\"alerts\":{\"firing\":" + std::to_string(a->firing_count()) +
               ",\"pending\":" + std::to_string(a->pending_count()) + "}";
    }

    /// Adds the /api/series and /alerts links and the alert panel.
    void decorate_dashboard(obs::dashboard_model& model) const {
        if (tsdb_) model.links.push_back({"/api/series", "series"});
        const obs::alert_engine* a = alerts();
        if (!a) return;
        model.links.push_back({"/alerts", "alerts"});
        model.show_alerts = true;
        for (const obs::alert_engine::status& s : a->snapshot()) {
            obs::dashboard_alert row;
            row.name = s.rule.name;
            row.state = obs::alert_state_name(s.state);
            row.detail = alert_detail(s.rule);
            if (s.value) {
                row.value = *s.value;
                row.has_value = true;
            }
            model.alerts.push_back(std::move(row));
        }
    }

private:
    std::unique_ptr<obs::tsdb::database> tsdb_;
    std::optional<obs::alert_engine> alerts_;
    std::string alerts_path_;
};

}  // namespace v6::tools
