// dashboard.h — renders the live classification dashboard served at
// GET /dashboard: one self-contained HTML page (embedded CSS, inline
// SVG sparklines, zero external dependencies — it must work from an
// air-gapped lab host) showing the ring-buffer history of every derived
// series, the headline counters, and the recent drift events.
//
// The renderer is a pure function over a plain model, so tests exercise
// it without a server and the HTTP layer stays a one-line callback.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "v6class/obs/event_log.h"

namespace v6::obs {

/// One sparkline tile.
struct dashboard_series {
    std::string name;             ///< e.g. "gamma16 @/48"
    std::string help;             ///< one-line description under the value
    double current = 0;           ///< newest value
    std::vector<double> history;  ///< oldest first (the sparkline)
    bool alarmed = false;         ///< a drift alarm fired on the last sample
};

/// One timestamped point of a history chart.
struct chart_point {
    std::int64_t ts = 0;
    double value = 0;
};

/// One time-range chart tile (flight-recorder history: survives
/// restarts, spans arbitrary windows — unlike the in-memory
/// sparklines). The x axis is the actual timestamp, so gaps show as
/// gaps rather than being squeezed out.
struct dashboard_chart {
    std::string name;
    std::string help;
    std::vector<chart_point> points;  ///< ts-ascending
};

/// One alert row of the alerts panel.
struct dashboard_alert {
    std::string name;
    std::string state;   ///< inactive | pending | firing | resolved
    std::string detail;  ///< rule summary, e.g. "v6class_gamma16_48 above 40"
    double value = 0;    ///< newest sampled value
    bool has_value = false;
};

/// One row of the fleet panel (v6agg: one federated collector).
struct dashboard_node {
    std::string name;
    bool fresh = false;           ///< pushed within the staleness window
    double age_seconds = 0;       ///< since the last frame
    std::int64_t sealed_day = -1;  ///< node's newest sealed day (-1 none)
    std::uint64_t records = 0;    ///< node-reported ingest count
    std::uint64_t frames = 0;     ///< frames accepted from the node
    std::string detail;           ///< free-form, e.g. "3 seq gaps"
};

/// One headline stat (records, epoch, distinct counts, ...).
struct dashboard_stat {
    std::string name;
    std::string value;
};

/// One header navigation link (to the sibling endpoints).
struct dashboard_link {
    std::string href;   ///< e.g. "/trace"
    std::string label;  ///< e.g. "trace"
};

struct dashboard_model {
    std::string title = "v6class live";
    std::string status = "serving";        ///< mirrors /healthz status
    double uptime_seconds = 0;
    std::vector<dashboard_stat> stats;     ///< headline row
    std::vector<dashboard_stat> runtime;   ///< compact runtime panel (SIMD
                                           ///< level, RSS, arena, PMU);
                                           ///< omitted when empty
    std::vector<dashboard_link> links;     ///< header nav (/metrics, /trace, ...)
    std::vector<dashboard_series> series;  ///< sparkline grid
    std::vector<dashboard_chart> charts;   ///< tsdb history charts
    std::vector<dashboard_alert> alerts;   ///< alert panel (omitted if empty
                                           ///< and !show_alerts)
    bool show_alerts = false;  ///< render the (empty) panel anyway
    std::vector<dashboard_node> nodes;     ///< fleet panel (omitted if empty
                                           ///< and !show_nodes)
    bool show_nodes = false;   ///< render the (empty) fleet panel anyway
    std::vector<event> events;             ///< recent, oldest first
    unsigned refresh_seconds = 2;          ///< meta-refresh cadence (0 = off)
};

/// An inline-SVG sparkline of `values` (oldest first). Empty or
/// single-valued input renders a flat placeholder line.
std::string svg_sparkline(const std::vector<double>& values, unsigned width,
                          unsigned height);

/// An inline-SVG time-range chart: x positioned by timestamp (gaps stay
/// visible), y by value, with min/max value and first/last ts labels.
std::string svg_timechart(const std::vector<chart_point>& points,
                          unsigned width, unsigned height);

/// The whole page.
std::string render_dashboard(const dashboard_model& model);

/// format_double-style value formatting for tiles: integers stay
/// integral, everything else gets 4 significant digits.
std::string dashboard_value(double v);

/// HTML text escaping for the metacharacters that matter (& < > ").
/// The one HTML escaper of the obs pages (dashboard, /pmu).
std::string html_escape(std::string_view s);

}  // namespace v6::obs
