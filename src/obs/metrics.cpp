#include "v6class/obs/metrics.h"

#include <cstdio>
#include <cstdlib>

#include "v6class/obs/atomic_file.h"

namespace v6::obs {

std::vector<double> latency_buckets() {
    // 1us .. 16s, x4 per bucket: wide enough for a trie pass over
    // millions of addresses, fine enough to see a queue stall.
    return {1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3,
            16e-3, 64e-3, 256e-3, 1.0, 4.0, 16.0};
}

registry& registry::global() {
    static registry r;
    return r;
}

detail::series* registry::intern(const std::string& name, metric_kind kind,
                                 label_list labels, const std::string& help,
                                 std::vector<double> bounds, bool fp) {
    std::lock_guard lock(mutex_);
    for (detail::series& s : series_)
        if (s.name == name && s.labels == labels) return &s;
    detail::series& s = series_.emplace_back();
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.labels = std::move(labels);
    s.fp = fp;
    if (kind == metric_kind::histogram) {
        s.bounds = bounds.empty() ? latency_buckets() : std::move(bounds);
        s.buckets =
            std::make_unique<std::atomic<std::uint64_t>[]>(s.bounds.size() + 1);
        for (std::size_t i = 0; i <= s.bounds.size(); ++i) s.buckets[i] = 0;
    }
    return &s;
}

counter registry::get_counter(const std::string& name, label_list labels,
                              const std::string& help) {
    return counter(intern(name, metric_kind::counter, std::move(labels), help, {}));
}

gauge registry::get_gauge(const std::string& name, label_list labels,
                          const std::string& help) {
    return gauge(intern(name, metric_kind::gauge, std::move(labels), help, {}));
}

dgauge registry::get_dgauge(const std::string& name, label_list labels,
                            const std::string& help) {
    return dgauge(intern(name, metric_kind::gauge, std::move(labels), help, {},
                         /*fp=*/true));
}

histogram registry::get_histogram(const std::string& name,
                                  std::vector<double> bounds, label_list labels,
                                  const std::string& help) {
    return histogram(intern(name, metric_kind::histogram, std::move(labels), help,
                            std::move(bounds)));
}

std::size_t registry::size() const {
    std::lock_guard lock(mutex_);
    return series_.size();
}

// ------------------------------------------------------------- exporters

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

namespace {

/// Shortest round-trippable formatting for metric values: integers stay
/// integers, doubles keep full precision.
std::string format_double(double v) {
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -1e15 && v < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        return buf;
    }
    // Shortest representation that round-trips: 1e-06, not
    // 9.9999999999999995e-07.
    char buf[64];
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v) return buf;
    }
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Prometheus label-value escaping: exactly backslash, quote and
/// newline, as the text exposition format specifies.
std::string prometheus_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

std::string prometheus_labels(const label_list& labels) {
    if (labels.empty()) return "";
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i) out += ',';
        out += labels[i].first + "=\"" + prometheus_escape(labels[i].second) + "\"";
    }
    out += '}';
    return out;
}

/// Labels with one extra pair appended (histogram "le" buckets).
std::string prometheus_labels_plus(const label_list& labels,
                                   const std::string& key,
                                   const std::string& value) {
    label_list with = labels;
    with.emplace_back(key, value);
    return prometheus_labels(with);
}

/// The scalar value of a counter/gauge series, formatted: double-bit
/// gauges print as doubles, everything else as the integer it is.
std::string scalar_value(const detail::series& s) {
    const std::int64_t raw = s.value.load(std::memory_order_relaxed);
    if (s.fp) return format_double(std::bit_cast<double>(raw));
    return std::to_string(raw);
}

const char* kind_name(metric_kind k) {
    switch (k) {
        case metric_kind::counter: return "counter";
        case metric_kind::gauge: return "gauge";
        case metric_kind::histogram: return "histogram";
    }
    return "untyped";
}

}  // namespace

std::string registry::prometheus_text() const {
    std::lock_guard lock(mutex_);
    std::string out;
    // HELP/TYPE precede the first series of each metric name; same-name
    // series (label variants) are grouped together, groups in
    // first-seen order.
    std::vector<const detail::series*> ordered;
    ordered.reserve(series_.size());
    std::vector<bool> taken(series_.size(), false);
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (taken[i]) continue;
        for (std::size_t j = i; j < series_.size(); ++j) {
            if (!taken[j] && series_[j].name == series_[i].name) {
                ordered.push_back(&series_[j]);
                taken[j] = true;
            }
        }
    }
    std::string last_name;
    for (const detail::series* s : ordered) {
        if (s->name != last_name) {
            last_name = s->name;
            if (!s->help.empty())
                out += "# HELP " + s->name + " " + s->help + "\n";
            out += "# TYPE " + s->name + " " + kind_name(s->kind) + "\n";
        }
        if (s->kind == metric_kind::histogram) {
            // Prometheus buckets are cumulative counts with `le` bounds.
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < s->bounds.size(); ++i) {
                cumulative += s->buckets[i].load(std::memory_order_relaxed);
                out += s->name + "_bucket" +
                       prometheus_labels_plus(s->labels, "le",
                                              format_double(s->bounds[i])) +
                       " " + std::to_string(cumulative) + "\n";
            }
            cumulative +=
                s->buckets[s->bounds.size()].load(std::memory_order_relaxed);
            out += s->name + "_bucket" +
                   prometheus_labels_plus(s->labels, "le", "+Inf") + " " +
                   std::to_string(cumulative) + "\n";
            out += s->name + "_sum" + prometheus_labels(s->labels) + " " +
                   format_double(s->sum()) + "\n";
            out += s->name + "_count" + prometheus_labels(s->labels) + " " +
                   std::to_string(s->count.load(std::memory_order_relaxed)) +
                   "\n";
        } else {
            out += s->name + prometheus_labels(s->labels) + " " +
                   scalar_value(*s) + "\n";
        }
    }
    return out;
}

std::string registry::json_text() const {
    std::lock_guard lock(mutex_);
    std::string out = "{\"metrics\":[";
    bool first = true;
    for (const detail::series& s : series_) {
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"" + json_escape(s.name) + "\",\"type\":\"" +
               kind_name(s.kind) + "\",\"labels\":{";
        for (std::size_t i = 0; i < s.labels.size(); ++i) {
            if (i) out += ',';
            out += "\"" + json_escape(s.labels[i].first) + "\":\"" +
                   json_escape(s.labels[i].second) + "\"";
        }
        out += "}";
        if (s.kind == metric_kind::histogram) {
            out += ",\"count\":" +
                   std::to_string(s.count.load(std::memory_order_relaxed));
            out += ",\"sum\":" + format_double(s.sum());
            out += ",\"buckets\":[";
            for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
                if (i) out += ',';
                const std::string le = i < s.bounds.size()
                                           ? format_double(s.bounds[i])
                                           : std::string("\"+Inf\"");
                out += "{\"le\":" + le + ",\"count\":" +
                       std::to_string(
                           s.buckets[i].load(std::memory_order_relaxed)) +
                       "}";
            }
            out += "]";
        } else {
            out += ",\"value\":" + scalar_value(s);
        }
        out += "}";
    }
    out += "]}";
    return out;
}

bool registry::write_file(const std::string& path) const {
    const bool prom =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
    std::string content = prom ? prometheus_text() : json_text();
    if (!prom) content += '\n';
    return atomic_write_file(path, content);
}

}  // namespace v6::obs
