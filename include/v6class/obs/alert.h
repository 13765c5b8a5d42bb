// alert.h — a small alert rules engine over the flight recorder's
// series and the structured event log: the operator writes threshold /
// rate-of-change / absence / event-sourced rules in a text file
// (`v6stream --alerts=FILE`, hot-reloaded on SIGHUP alongside the ASN
// db), and the engine runs each rule as a pending → firing → resolved
// state machine with a `for=` hold-down, raising structured events,
// exporting v6class_alerts_* metrics, and serving state at GET /alerts.
//
// Rule file grammar (full spec in DESIGN.md §12): one rule per line,
//
//   <name> <key>=<value> ...        # '#' comments, blank lines skipped
//
//   series=<metric>   the tsdb/live series the rule samples
//   label=<label>     series label selector (default "")
//   event=<kind>      event-sourced rule: fires while events of this
//                     kind keep arriving (mutually exclusive with the
//                     sampled conditions below)
//   above=<x>         condition: sample > x
//   below=<x>         condition: sample < x
//   delta=<f>         condition: |v - prev| / max(|prev|, 1e-9) > f
//   absent=<n>        condition: no sample for n consecutive evaluations
//   node=<id>         fleet sugar: collector-absence rule. Expands to
//                     series=v6fleet_node_up label=node=<id> absent=1,
//                     sampled by the federation aggregator (which
//                     returns "no sample" for a stale or unknown node),
//                     so a silent collector fires within one hold-down
//   for=<n>           hold-down: condition must hold for n further
//                     evaluations after entering pending (default 0 —
//                     pending and firing on the same evaluation)
//   level=<l>         severity of raised events: info|warn|error
//                     (default warn)
//
// Exactly one of above/below/delta/absent/event/node per rule.
//
// State machine (per rule):
//
//            cond true                    streak > for
//   inactive ----------> pending(streak) --------------> firing
//      ^                    | cond false                   | cond false
//      |                    v                              v
//      +<------------------ +              inactive <-- resolved
//
// resolved is a visible one-evaluation state (so /alerts and the
// dashboard show the transition) that decays to inactive on the next
// evaluation. Sampled rules treat a missing sample as "no information":
// above/below/delta streaks freeze rather than reset. absence rules
// count exactly those missing evaluations. Event rules fire when a
// matching event arrived since the previous evaluation and auto-resolve
// on the first evaluation without one.
//
// Reload contract: rules are replaced wholesale, but a new rule that is
// definition-identical to a current one (same name and every field)
// keeps its state, streak, and last-sample — a SIGHUP must not resolve
// a firing alert the operator didn't touch.
//
// Thread contract: every public method is safe from any thread — one
// internal mutex serializes them (v6stream calls evaluate() from both
// the roll thread's seal path and the main thread's wall-clock tick).
// Two corollaries: the sampler runs with that mutex held, so it must
// read from a snapshot captured *before* evaluate() and never take a
// lock that another evaluate() caller holds while sampling (lock-order
// inversion); and the notify command runs after the mutex is released,
// so a slow notifier can delay only its own evaluate() call.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "v6class/net/telwire.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/metrics.h"

namespace v6::obs {

enum class alert_cond { above, below, delta, absent, event };
enum class alert_state { inactive, pending, firing, resolved };

const char* alert_state_name(alert_state s) noexcept;

/// One parsed rule.
struct alert_rule {
    std::string name;
    std::string series;  ///< sampled rules: metric name
    std::string label;   ///< sampled rules: label selector
    std::string event_kind;  ///< event rules: kind to match
    alert_cond cond = alert_cond::above;
    double threshold = 0;     ///< above/below/delta bound; absent: n evals
    std::uint32_t hold = 0;   ///< for=: extra evaluations before firing
    event_level level = event_level::warn;

    friend bool operator==(const alert_rule&, const alert_rule&) = default;
};

/// Parses a whole rules file text. Returns nullopt with *error naming
/// the offending line on any syntax error (unknown key, missing
/// condition, two conditions, bad number).
std::optional<std::vector<alert_rule>> parse_alert_rules(
    const std::string& text, std::string* error = nullptr);

class alert_engine {
public:
    /// Samples one (series, label) at evaluation time; nullopt = no
    /// sample this round (series missing or not updated).
    using sampler = std::function<std::optional<double>(
        const std::string& series, const std::string& label)>;

    /// `reg` receives the v6class_alerts_* metrics; `log` receives the
    /// raised transition events and feeds event-sourced rules. Either
    /// may be null (no metrics / event rules never match).
    explicit alert_engine(registry* reg = nullptr, event_log* log = nullptr);

    alert_engine(const alert_engine&) = delete;
    alert_engine& operator=(const alert_engine&) = delete;

    /// Replaces the rule set, preserving per-rule state for rules that
    /// are definition-identical to a current rule (see header comment).
    void load_rules(std::vector<alert_rule> rules);

    /// Reads and parses `path`, then load_rules(). On failure the
    /// current rules keep running (the reload contract the ASN db
    /// follows) and false is returned with *error set.
    bool load_file(const std::string& path, std::string* error = nullptr);

    /// Shell command run on every firing/resolved transition with one
    /// argument: the transition's JSON object. Empty disables (default).
    void set_notify_command(std::string cmd);

    /// Runs every rule once against `sample` (and any events that
    /// arrived since the previous call). `ts` labels the evaluation in
    /// raised events (the engine attaches no meaning to it).
    void evaluate(const sampler& sample, std::int64_t ts);

    /// Current state of every rule as a JSON array (GET /alerts).
    std::string status_json() const;

    /// One rule's state for structured consumers (dashboard panel).
    struct status {
        alert_rule rule;
        alert_state state = alert_state::inactive;
        std::uint32_t streak = 0;
        std::optional<double> value;  ///< newest sampled value
        std::int64_t since_ts = 0;
    };
    std::vector<status> snapshot() const;

    std::size_t firing_count() const;
    std::size_t pending_count() const;
    std::size_t rule_count() const;
    std::uint64_t evaluations() const;

private:
    struct rule_state {
        alert_rule rule;
        alert_state state = alert_state::inactive;
        std::uint32_t streak = 0;       ///< consecutive condition-true evals
        std::uint32_t missing = 0;      ///< consecutive no-sample evals
        std::optional<double> last_sample;
        std::optional<double> current;  ///< newest sample seen (for /alerts)
        std::int64_t since_ts = 0;      ///< ts of the newest state change
    };

    void transition_locked(rule_state& rs, alert_state next, std::int64_t ts);

    registry* registry_ = nullptr;
    event_log* log_ = nullptr;

    mutable std::mutex mutex_;
    std::vector<rule_state> rules_;
    std::string notify_command_;
    /// Rendered notify commands queued by transition_locked(), run by
    /// evaluate() after the mutex is released.
    std::vector<std::string> notify_queue_;
    std::uint64_t event_cursor_ = 0;  ///< last event seq consumed
    std::uint64_t evaluations_ = 0;

    counter pending_total_, firing_total_, resolved_total_;
    gauge pending_gauge_, firing_gauge_;
};

/// A sampler over (series, label, value) rows captured before
/// evaluate() — a seal snapshot's rows or a capture of the live
/// series: yields the first matching row's value, nullopt when none
/// matches. The row ts is ignored.
alert_engine::sampler row_sampler(std::vector<net::tel_sample> rows);

}  // namespace v6::obs
