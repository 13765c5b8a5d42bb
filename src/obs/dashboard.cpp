#include "v6class/obs/dashboard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace v6::obs {

std::string html_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += c;
        }
    }
    return out;
}

namespace {

std::string format_uptime(double seconds) {
    char buf[64];
    if (seconds < 120) {
        std::snprintf(buf, sizeof buf, "%.0fs", seconds);
    } else if (seconds < 7200) {
        std::snprintf(buf, sizeof buf, "%.0fm%02.0fs", seconds / 60,
                      std::fmod(seconds, 60));
    } else {
        std::snprintf(buf, sizeof buf, "%.0fh%02.0fm", seconds / 3600,
                      std::fmod(seconds, 3600) / 60);
    }
    return buf;
}

const char* kStyle = R"(
 body{font:14px/1.45 system-ui,sans-serif;margin:0;background:#11151a;color:#d7dde4}
 header{display:flex;align-items:baseline;gap:1em;padding:12px 20px;border-bottom:1px solid #2a313a}
 header h1{font-size:17px;margin:0}
 .status{padding:1px 8px;border-radius:9px;font-size:12px;background:#1f4d2e;color:#9fe0b2}
 .status.draining{background:#5a4214;color:#f0cf8a}
 .status.starting{background:#203a55;color:#9cc6f0}
 header nav{margin-left:auto;display:flex;gap:12px;font-size:12px}
 header nav a{color:#5aa9e6;text-decoration:none}
 header nav a:hover{text-decoration:underline}
 .stats{display:flex;flex-wrap:wrap;gap:20px;padding:10px 20px;color:#9aa7b4}
 .stats b{color:#d7dde4;font-variant-numeric:tabular-nums}
 .stats.runtime{padding-top:0;font-size:12px}
 .stats.runtime>span:first-child{color:#64748b;text-transform:uppercase;letter-spacing:.08em}
 .grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(240px,1fr));gap:12px;padding:8px 20px 20px}
 .tile{background:#171c23;border:1px solid #2a313a;border-radius:8px;padding:10px 12px}
 .tile.alarmed{border-color:#a4502e}
 .tile .name{font-size:12px;color:#9aa7b4}
 .tile .val{font-size:20px;font-variant-numeric:tabular-nums}
 .tile .help{font-size:11px;color:#6d7884}
 .tile svg{display:block;margin-top:6px}
 .spark{stroke:#5aa9e6;fill:none;stroke-width:1.5}
 .alarmed .spark{stroke:#e6835a}
 .sparkfill{fill:#5aa9e622;stroke:none}
 .alarmed .sparkfill{fill:#e6835a22}
 h2{font-size:13px;color:#9aa7b4;margin:4px 20px}
 table{border-collapse:collapse;margin:0 20px 24px;font-size:13px}
 td,th{padding:3px 14px 3px 0;text-align:left;vertical-align:top}
 th{color:#6d7884;font-weight:normal}
 .lvl-warn{color:#f0cf8a}.lvl-error{color:#f09a8a}.lvl-info{color:#9cc6f0}
 .fields{color:#6d7884;font-family:ui-monospace,monospace;font-size:12px}
 .empty{color:#6d7884;margin:0 20px 24px}
 .charts{display:grid;grid-template-columns:repeat(auto-fill,minmax(460px,1fr));gap:12px;padding:8px 20px 20px}
 .chartlabel{fill:#6d7884;font:10px ui-monospace,monospace}
 .node-fresh{color:#9fe0b2}.node-stale{color:#f09a8a;font-weight:bold}
 .alert-firing{color:#f09a8a;font-weight:bold}
 .alert-pending{color:#f0cf8a}
 .alert-resolved{color:#9fe0b2}
 .alert-inactive{color:#6d7884}
)";

}  // namespace

std::string dashboard_value(double v) {
    char buf[48];
    if (std::abs(v) < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v)))
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

std::string svg_sparkline(const std::vector<double>& values, unsigned width,
                          unsigned height) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "<svg width=\"%u\" height=\"%u\" viewBox=\"0 0 %u %u\" "
                  "preserveAspectRatio=\"none\">",
                  width, height, width, height);
    std::string out = head;
    const double pad = 2.0;
    double lo = 0.0, hi = 1.0;
    if (!values.empty()) {
        lo = *std::min_element(values.begin(), values.end());
        hi = *std::max_element(values.begin(), values.end());
    }
    if (hi - lo < 1e-12) {  // flat (or empty) series: centred line
        lo -= 1.0;
        hi += 1.0;
    }
    const std::size_t n = std::max<std::size_t>(values.size(), 2);
    auto x_of = [&](std::size_t i) {
        return pad + (width - 2 * pad) * static_cast<double>(i) /
                         static_cast<double>(n - 1);
    };
    auto y_of = [&](double v) {
        return pad + (height - 2 * pad) * (1.0 - (v - lo) / (hi - lo));
    };
    std::string points;
    char pt[48];
    if (values.empty()) {
        std::snprintf(pt, sizeof pt, "%.1f,%.1f %.1f,%.1f", x_of(0),
                      y_of(0.0), x_of(1), y_of(0.0));
        points = pt;
    } else if (values.size() == 1) {
        std::snprintf(pt, sizeof pt, "%.1f,%.1f %.1f,%.1f", x_of(0),
                      y_of(values[0]), x_of(1), y_of(values[0]));
        points = pt;
    } else {
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::snprintf(pt, sizeof pt, "%s%.1f,%.1f", i ? " " : "", x_of(i),
                          y_of(values[i]));
            points += pt;
        }
    }
    // Soft area fill under the line, then the line itself.
    char base[48];
    std::snprintf(base, sizeof base, " %.1f,%u %.1f,%u",
                  x_of(values.empty() ? 1 : std::max<std::size_t>(values.size(), 2) - 1),
                  height, x_of(0), height);
    out += "<polygon class=\"sparkfill\" points=\"" + points + base + "\"/>";
    out += "<polyline class=\"spark\" points=\"" + points + "\"/>";
    out += "</svg>";
    return out;
}

std::string svg_timechart(const std::vector<chart_point>& points,
                          unsigned width, unsigned height) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "<svg width=\"%u\" height=\"%u\" viewBox=\"0 0 %u %u\" "
                  "preserveAspectRatio=\"none\">",
                  width, height, width, height);
    std::string out = head;
    const double pad = 3.0, label_h = 12.0;
    double lo = 0.0, hi = 1.0;
    std::int64_t t0 = 0, t1 = 1;
    if (!points.empty()) {
        lo = hi = points.front().value;
        t0 = points.front().ts;
        t1 = points.back().ts;
        for (const chart_point& p : points) {
            lo = std::min(lo, p.value);
            hi = std::max(hi, p.value);
        }
    }
    if (hi - lo < 1e-12) {
        lo -= 1.0;
        hi += 1.0;
    }
    if (t1 <= t0) t1 = t0 + 1;
    const double span = static_cast<double>(t1 - t0);
    auto x_of = [&](std::int64_t ts) {
        return pad + (width - 2 * pad) * static_cast<double>(ts - t0) / span;
    };
    auto y_of = [&](double v) {
        return pad +
               (height - 2 * pad - label_h) * (1.0 - (v - lo) / (hi - lo));
    };
    std::string poly;
    char pt[48];
    if (points.size() == 1) {
        std::snprintf(pt, sizeof pt, "%.1f,%.1f %.1f,%.1f", x_of(t0),
                      y_of(points[0].value), x_of(t1), y_of(points[0].value));
        poly = pt;
    } else if (!points.empty()) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::snprintf(pt, sizeof pt, "%s%.1f,%.1f", i ? " " : "",
                          x_of(points[i].ts), y_of(points[i].value));
            poly += pt;
        }
    } else {
        std::snprintf(pt, sizeof pt, "%.1f,%.1f %.1f,%.1f", x_of(t0), y_of(0.0),
                      x_of(t1), y_of(0.0));
        poly = pt;
    }
    char base[48];
    const double floor_y = height - label_h;
    std::snprintf(base, sizeof base, " %.1f,%.1f %.1f,%.1f", x_of(t1), floor_y,
                  x_of(t0), floor_y);
    out += "<polygon class=\"sparkfill\" points=\"" + poly + base + "\"/>";
    out += "<polyline class=\"spark\" points=\"" + poly + "\"/>";
    // Corner labels: value range on the left edge, ts range along the
    // bottom. (No preserveAspectRatio distortion worry at this size.)
    char label[160];
    std::snprintf(label, sizeof label,
                  "<text class=\"chartlabel\" x=\"%.0f\" y=\"%.0f\">%s .. %s"
                  "</text>",
                  pad, static_cast<double>(height) - 2,
                  std::to_string(t0).c_str(), std::to_string(t1).c_str());
    out += label;
    std::snprintf(label, sizeof label,
                  "<text class=\"chartlabel\" x=\"%u\" y=\"%.0f\" "
                  "text-anchor=\"end\">%s .. %s</text>",
                  width - 4, static_cast<double>(height) - 2,
                  dashboard_value(lo).c_str(), dashboard_value(hi).c_str());
    out += label;
    out += "</svg>";
    return out;
}

std::string render_dashboard(const dashboard_model& model) {
    std::string out = "<!doctype html><html><head><meta charset=\"utf-8\">";
    if (model.refresh_seconds)
        out += "<meta http-equiv=\"refresh\" content=\"" +
               std::to_string(model.refresh_seconds) + "\">";
    out += "<title>" + html_escape(model.title) + "</title><style>";
    out += kStyle;
    out += "</style></head><body>";

    out += "<header><h1>" + html_escape(model.title) + "</h1>";
    out += "<span class=\"status " + html_escape(model.status) + "\">" +
           html_escape(model.status) + "</span>";
    out += "<span class=\"stats\">up " + format_uptime(model.uptime_seconds) +
           "</span>";
    if (!model.links.empty()) {
        out += "<nav>";
        for (const dashboard_link& l : model.links)
            out += "<a href=\"" + html_escape(l.href) + "\">" +
                   html_escape(l.label) + "</a>";
        out += "</nav>";
    }
    out += "</header>";

    out += "<div class=\"stats\">";
    for (const dashboard_stat& s : model.stats)
        out += "<span>" + html_escape(s.name) + " <b>" +
               html_escape(s.value) + "</b></span>";
    out += "</div>";

    if (!model.runtime.empty()) {
        // Process-level runtime facts (SIMD dispatch level, RSS, arena
        // occupancy, PMU availability) — one compact row, same style as
        // the headline stats but visually separated from the domain
        // counters above.
        out += "<div class=\"stats runtime\"><span>runtime</span>";
        for (const dashboard_stat& s : model.runtime)
            out += "<span>" + html_escape(s.name) + " <b>" +
                   html_escape(s.value) + "</b></span>";
        out += "</div>";
    }

    out += "<div class=\"grid\">";
    for (const dashboard_series& s : model.series) {
        out += s.alarmed ? "<div class=\"tile alarmed\">" : "<div class=\"tile\">";
        out += "<div class=\"name\">" + html_escape(s.name) + "</div>";
        out += "<div class=\"val\">" + dashboard_value(s.current) + "</div>";
        out += svg_sparkline(s.history, 216, 36);
        out += "<div class=\"help\">" + html_escape(s.help) + "</div>";
        out += "</div>";
    }
    out += "</div>";

    if (!model.charts.empty()) {
        out += "<h2>history (flight recorder)</h2><div class=\"charts\">";
        for (const dashboard_chart& c : model.charts) {
            out += "<div class=\"tile\">";
            out += "<div class=\"name\">" + html_escape(c.name) + "</div>";
            out += "<div class=\"val\">" +
                   (c.points.empty()
                        ? std::string("&ndash;")
                        : dashboard_value(c.points.back().value)) +
                   "</div>";
            out += svg_timechart(c.points, 452, 64);
            out += "<div class=\"help\">" + html_escape(c.help) + "</div>";
            out += "</div>";
        }
        out += "</div>";
    }

    if (model.show_nodes || !model.nodes.empty()) {
        out += "<h2>fleet</h2>";
        if (model.nodes.empty()) {
            out += "<p class=\"empty\">no collectors have pushed yet</p>";
        } else {
            out += "<table><tr><th>node</th><th>state</th><th>lag</th>"
                   "<th>sealed day</th><th>records</th><th>frames</th>"
                   "<th>detail</th></tr>";
            for (const dashboard_node& n : model.nodes) {
                out += "<tr><td>" + html_escape(n.name) + "</td>";
                out += n.fresh ? "<td class=\"node-fresh\">up</td>"
                               : "<td class=\"node-stale\">stale</td>";
                out += "<td>" + format_uptime(n.age_seconds) + "</td>";
                out += "<td>" +
                       (n.sealed_day < 0 ? std::string("&ndash;")
                                         : std::to_string(n.sealed_day)) +
                       "</td>";
                out += "<td>" + std::to_string(n.records) + "</td>";
                out += "<td>" + std::to_string(n.frames) + "</td>";
                out += "<td class=\"fields\">" + html_escape(n.detail) +
                       "</td></tr>";
            }
            out += "</table>";
        }
    }

    if (model.show_alerts || !model.alerts.empty()) {
        out += "<h2>alerts</h2>";
        if (model.alerts.empty()) {
            out += "<p class=\"empty\">no rules loaded</p>";
        } else {
            out += "<table><tr><th>rule</th><th>state</th><th>value</th>"
                   "<th>definition</th></tr>";
            for (const dashboard_alert& a : model.alerts) {
                out += "<tr><td>" + html_escape(a.name) + "</td>";
                out += "<td class=\"alert-" + html_escape(a.state) + "\">" +
                       html_escape(a.state) + "</td>";
                out += "<td>" +
                       (a.has_value ? dashboard_value(a.value)
                                    : std::string("&ndash;")) +
                       "</td>";
                out += "<td class=\"fields\">" + html_escape(a.detail) +
                       "</td></tr>";
            }
            out += "</table>";
        }
    }

    out += "<h2>recent events</h2>";
    if (model.events.empty()) {
        out += "<p class=\"empty\">none</p>";
    } else {
        out += "<table><tr><th>#</th><th>level</th><th>kind</th>"
               "<th>message</th><th>fields</th></tr>";
        // Newest first: what an operator glances at.
        for (auto it = model.events.rbegin(); it != model.events.rend(); ++it) {
            const event& e = *it;
            out += "<tr><td>" + std::to_string(e.seq) + "</td>";
            out += std::string("<td class=\"lvl-") + event_level_name(e.level) +
                   "\">" + event_level_name(e.level) + "</td>";
            out += "<td>" + html_escape(e.kind) + "</td>";
            out += "<td>" + html_escape(e.message) + "</td><td class=\"fields\">";
            for (std::size_t i = 0; i < e.fields.size(); ++i) {
                if (i) out += " ";
                out += html_escape(e.fields[i].first) + "=" +
                       html_escape(e.fields[i].second);
            }
            out += "</td></tr>";
        }
        out += "</table>";
    }
    out += "</body></html>";
    return out;
}

}  // namespace v6::obs
