#include "v6class/obs/alert.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace v6::obs {

namespace {

bool parse_number(const std::string& s, double& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end && *end == '\0';
}

}  // namespace

const char* alert_state_name(alert_state s) noexcept {
    switch (s) {
        case alert_state::inactive: return "inactive";
        case alert_state::pending: return "pending";
        case alert_state::firing: return "firing";
        case alert_state::resolved: return "resolved";
    }
    return "inactive";
}

std::optional<std::vector<alert_rule>> parse_alert_rules(
    const std::string& text, std::string* error) {
    std::vector<alert_rule> rules;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    const auto fail = [&](const std::string& what) {
        if (error)
            *error = "line " + std::to_string(lineno) + ": " + what;
        return std::nullopt;
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream words(line);
        std::string word;
        alert_rule rule;
        int conditions = 0;
        bool named = false;
        while (words >> word) {
            if (!named) {
                if (word.find('=') != std::string::npos)
                    return fail("rule name must come first");
                rule.name = word;
                named = true;
                continue;
            }
            const auto eq = word.find('=');
            if (eq == std::string::npos)
                return fail("expected key=value, got '" + word + "'");
            const std::string key = word.substr(0, eq);
            const std::string value = word.substr(eq + 1);
            double num = 0;
            if (key == "series") {
                rule.series = value;
            } else if (key == "label") {
                rule.label = value;
            } else if (key == "event") {
                rule.event_kind = value;
                rule.cond = alert_cond::event;
                ++conditions;
            } else if (key == "above" || key == "below" || key == "delta" ||
                       key == "absent") {
                if (!parse_number(value, num))
                    return fail("bad number '" + value + "' for " + key);
                rule.threshold = num;
                rule.cond = key == "above"   ? alert_cond::above
                            : key == "below" ? alert_cond::below
                            : key == "delta" ? alert_cond::delta
                                             : alert_cond::absent;
                ++conditions;
            } else if (key == "node") {
                // Fleet sugar: node=<id> expands to an absent-rule over
                // the aggregator's per-node liveness series, so a rules
                // file can say "collector-gone node=edge1 for=2" without
                // spelling the synthetic series name.
                if (value.empty())
                    return fail("node= needs a collector id");
                rule.series = "v6fleet_node_up";
                rule.label = "node=" + value;
                rule.cond = alert_cond::absent;
                rule.threshold = 1;
                ++conditions;
            } else if (key == "for") {
                if (!parse_number(value, num) || num < 0)
                    return fail("bad number '" + value + "' for for");
                rule.hold = static_cast<std::uint32_t>(num);
            } else if (key == "level") {
                if (value == "info")
                    rule.level = event_level::info;
                else if (value == "warn")
                    rule.level = event_level::warn;
                else if (value == "error")
                    rule.level = event_level::error;
                else
                    return fail("bad level '" + value + "'");
            } else {
                return fail("unknown key '" + key + "'");
            }
        }
        if (!named) continue;  // blank / comment-only line
        if (conditions != 1)
            return fail(
                "rule '" + rule.name +
                "' needs exactly one of above/below/delta/absent/event/node");
        if (rule.cond != alert_cond::event && rule.series.empty())
            return fail("rule '" + rule.name + "' needs series=");
        if (rule.cond == alert_cond::absent && rule.threshold < 1)
            return fail("rule '" + rule.name + "': absent= must be >= 1");
        rules.push_back(std::move(rule));
    }
    return rules;
}

alert_engine::alert_engine(registry* reg, event_log* log)
    : registry_(reg), log_(log) {
    if (reg) {
        pending_total_ = reg->get_counter(
            "v6class_alerts_pending_total", {},
            "Alert rules that entered the pending state.");
        firing_total_ = reg->get_counter("v6class_alerts_firing_total", {},
                                         "Alert rules that started firing.");
        resolved_total_ = reg->get_counter("v6class_alerts_resolved_total", {},
                                           "Firing alerts that resolved.");
        pending_gauge_ = reg->get_gauge("v6class_alerts_pending", {},
                                        "Alert rules currently pending.");
        firing_gauge_ = reg->get_gauge("v6class_alerts_firing", {},
                                       "Alert rules currently firing.");
    }
    if (log) event_cursor_ = log->total();  // only future events count
}

void alert_engine::load_rules(std::vector<alert_rule> rules) {
    std::lock_guard lock(mutex_);
    std::vector<rule_state> next;
    next.reserve(rules.size());
    for (alert_rule& r : rules) {
        rule_state rs;
        // Definition-identical rule: carry the whole state over so a
        // SIGHUP never resolves an untouched firing alert.
        for (rule_state& old : rules_) {
            if (old.rule == r) {
                rs = std::move(old);
                old.rule.name.clear();  // consumed; don't match twice
                break;
            }
        }
        rs.rule = std::move(r);
        next.push_back(std::move(rs));
    }
    rules_ = std::move(next);
    std::int64_t pending = 0, firing = 0;
    for (const rule_state& rs : rules_) {
        pending += rs.state == alert_state::pending;
        firing += rs.state == alert_state::firing;
    }
    pending_gauge_.set(pending);
    firing_gauge_.set(firing);
}

bool alert_engine::load_file(const std::string& path, std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error) *error = path + ": cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto rules = parse_alert_rules(buf.str(), error);
    if (!rules) {
        if (error) *error = path + ": " + *error;
        return false;
    }
    load_rules(std::move(*rules));
    return true;
}

void alert_engine::set_notify_command(std::string cmd) {
    std::lock_guard lock(mutex_);
    notify_command_ = std::move(cmd);
}

void alert_engine::transition_locked(rule_state& rs, alert_state next,
                                     std::int64_t ts) {
    const alert_state prev = rs.state;
    if (prev == next) return;
    rs.state = next;
    rs.since_ts = ts;
    if (next == alert_state::pending) pending_total_.inc();
    if (next == alert_state::firing) firing_total_.inc();
    if (next == alert_state::resolved) resolved_total_.inc();
    // inactive<->pending flaps are book-keeping; firing and resolved
    // are the transitions an operator acts on.
    const bool notable = next == alert_state::firing ||
                         next == alert_state::resolved;
    if (!notable) return;
    event_fields fields;
    fields.emplace_back("alert", event_field_string(rs.rule.name));
    fields.emplace_back("state",
                        event_field_string(alert_state_name(next)));
    fields.emplace_back("ts", event_field_number(static_cast<double>(ts)));
    if (rs.current)
        fields.emplace_back("value", event_field_number(*rs.current));
    if (log_)
        log_->log(next == alert_state::firing ? rs.rule.level
                                              : event_level::info,
                  "alert",
                  "alert " + rs.rule.name + " " + alert_state_name(next),
                  fields);
    if (!notify_command_.empty()) {
        std::string json = "{\"alert\":\"" + json_escape(rs.rule.name) +
                           "\",\"state\":\"" + alert_state_name(next) +
                           "\",\"ts\":" + std::to_string(ts) + "}";
        // Single-quote for the shell; a single quote inside the JSON
        // becomes '\'' (close, escaped quote, reopen).
        std::string arg = "'";
        for (char c : json)
            if (c == '\'')
                arg += "'\\''";
            else
                arg += c;
        arg += "'";
        // Queued, not run: the command executes after evaluate()
        // releases the mutex, so a slow or hung notifier can never
        // block status_json()/firing_count() or a seal in flight.
        notify_queue_.push_back(notify_command_ + " " + arg);
    }
}

void alert_engine::evaluate(const sampler& sample, std::int64_t ts) {
    std::vector<std::string> notifications;
    std::unique_lock lock(mutex_);
    ++evaluations_;
    // Drain events that arrived since the previous evaluation once,
    // shared by every event rule.
    std::vector<event> fresh;
    if (log_) {
        fresh = log_->since(event_cursor_);
        if (!fresh.empty()) event_cursor_ = fresh.back().seq;
        // Ignore this engine's own "alert" events: a firing transition
        // must not retrigger an event rule next round.
        std::erase_if(fresh, [](const event& e) { return e.kind == "alert"; });
    }
    for (rule_state& rs : rules_) {
        const alert_rule& r = rs.rule;
        // Decide this round's condition. nullopt = no information
        // (freeze the streak, stay in the current state).
        std::optional<bool> cond;
        if (r.cond == alert_cond::event) {
            bool matched = false;
            for (const event& e : fresh) matched |= e.kind == r.event_kind;
            cond = matched;
        } else {
            const std::optional<double> v = sample ? sample(r.series, r.label)
                                                   : std::nullopt;
            if (v) {
                rs.current = v;
                rs.missing = 0;
                switch (r.cond) {
                    case alert_cond::above: cond = *v > r.threshold; break;
                    case alert_cond::below: cond = *v < r.threshold; break;
                    case alert_cond::delta:
                        if (rs.last_sample) {
                            const double base =
                                std::max(std::fabs(*rs.last_sample), 1e-9);
                            cond = std::fabs(*v - *rs.last_sample) / base >
                                   r.threshold;
                        } else {
                            cond = false;  // first sample: no rate yet
                        }
                        break;
                    case alert_cond::absent: cond = false; break;
                    default: break;
                }
                rs.last_sample = v;
            } else {
                ++rs.missing;
                if (r.cond == alert_cond::absent)
                    cond = rs.missing >= static_cast<std::uint32_t>(r.threshold);
                // Other sampled rules: cond stays nullopt — freeze.
            }
        }
        if (!cond) {
            // A resolved state still decays even without information.
            if (rs.state == alert_state::resolved)
                transition_locked(rs, alert_state::inactive, ts);
            continue;
        }
        if (*cond) {
            ++rs.streak;
            switch (rs.state) {
                case alert_state::inactive:
                case alert_state::resolved:
                    rs.streak = 1;
                    transition_locked(rs, alert_state::pending, ts);
                    if (rs.streak > r.hold)
                        transition_locked(rs, alert_state::firing, ts);
                    break;
                case alert_state::pending:
                    if (rs.streak > r.hold)
                        transition_locked(rs, alert_state::firing, ts);
                    break;
                case alert_state::firing:
                    break;
            }
        } else {
            rs.streak = 0;
            switch (rs.state) {
                case alert_state::firing:
                    transition_locked(rs, alert_state::resolved, ts);
                    break;
                case alert_state::pending:
                case alert_state::resolved:
                    transition_locked(rs, alert_state::inactive, ts);
                    break;
                case alert_state::inactive:
                    break;
            }
        }
    }
    std::int64_t pending = 0, firing = 0;
    for (const rule_state& rs : rules_) {
        pending += rs.state == alert_state::pending;
        firing += rs.state == alert_state::firing;
    }
    pending_gauge_.set(pending);
    firing_gauge_.set(firing);
    notifications.swap(notify_queue_);
    lock.unlock();
    for (const std::string& cmd : notifications) {
        const int rc = std::system(cmd.c_str());
        (void)rc;  // notification is best-effort by design
    }
}

std::string alert_engine::status_json() const {
    std::lock_guard lock(mutex_);
    std::string out = "[";
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const rule_state& rs = rules_[i];
        if (i) out += ',';
        out += "{\"name\":\"" + json_escape(rs.rule.name) + "\"";
        out += ",\"state\":\"";
        out += alert_state_name(rs.state);
        out += "\"";
        if (!rs.rule.series.empty())
            out += ",\"series\":\"" + json_escape(rs.rule.series) + "\"";
        if (!rs.rule.label.empty())
            out += ",\"label\":\"" + json_escape(rs.rule.label) + "\"";
        if (!rs.rule.event_kind.empty())
            out += ",\"event\":\"" + json_escape(rs.rule.event_kind) + "\"";
        if (rs.current)
            out += ",\"value\":" + event_field_number(*rs.current);
        out += ",\"streak\":" + std::to_string(rs.streak);
        out += ",\"since_ts\":" + std::to_string(rs.since_ts);
        out += ",\"level\":\"";
        out += event_level_name(rs.rule.level);
        out += "\"}";
    }
    out += "]";
    return out;
}

std::vector<alert_engine::status> alert_engine::snapshot() const {
    std::lock_guard lock(mutex_);
    std::vector<status> out;
    out.reserve(rules_.size());
    for (const rule_state& rs : rules_) {
        status s;
        s.rule = rs.rule;
        s.state = rs.state;
        s.streak = rs.streak;
        s.value = rs.current;
        s.since_ts = rs.since_ts;
        out.push_back(std::move(s));
    }
    return out;
}

std::size_t alert_engine::firing_count() const {
    std::lock_guard lock(mutex_);
    std::size_t n = 0;
    for (const rule_state& rs : rules_) n += rs.state == alert_state::firing;
    return n;
}

std::size_t alert_engine::pending_count() const {
    std::lock_guard lock(mutex_);
    std::size_t n = 0;
    for (const rule_state& rs : rules_) n += rs.state == alert_state::pending;
    return n;
}

std::size_t alert_engine::rule_count() const {
    std::lock_guard lock(mutex_);
    return rules_.size();
}

std::uint64_t alert_engine::evaluations() const {
    std::lock_guard lock(mutex_);
    return evaluations_;
}

alert_engine::sampler row_sampler(std::vector<net::tel_sample> rows) {
    return [rows = std::move(rows)](
               const std::string& series,
               const std::string& label) -> std::optional<double> {
        for (const net::tel_sample& row : rows)
            if (row.name == series && row.label == label) return row.value;
        return std::nullopt;
    };
}

}  // namespace v6::obs
