// tool_common.h — shared plumbing for the command-line tools: flag
// parsing, input selection (file or stdin), consistent diagnostics, and
// the uniform observability flags (--metrics-out / --trace-out /
// --events-out).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "v6class/ip/io.h"
#include "v6class/obs/atomic_file.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/introspect.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/profile.h"
#include "v6class/obs/timer.h"

namespace v6::tools {

/// Minimal GNU-style flag parser: collects "--name=value" and "--name"
/// into a map, everything else into positional arguments.
class flag_set {
public:
    flag_set(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                const std::size_t eq = arg.find('=');
                if (eq == std::string::npos)
                    flags_.emplace_back(arg.substr(2), "");
                else
                    flags_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
            } else {
                positional_.push_back(arg);
            }
        }
    }

    bool has(const std::string& name) const {
        for (const auto& [k, v] : flags_)
            if (k == name) return true;
        return false;
    }

    std::string get(const std::string& name, const std::string& fallback = "") const {
        for (const auto& [k, v] : flags_)
            if (k == name) return v;
        return fallback;
    }

    long get_int(const std::string& name, long fallback) const {
        const std::string v = get(name);
        return v.empty() ? fallback : std::atol(v.c_str());
    }

    double get_double(const std::string& name, double fallback) const {
        const std::string v = get(name);
        return v.empty() ? fallback : std::atof(v.c_str());
    }

    /// Every value given for a repeatable flag.
    std::vector<std::string> get_all(const std::string& name) const {
        std::vector<std::string> out;
        for (const auto& [k, v] : flags_)
            if (k == name) out.push_back(v);
        return out;
    }

    const std::vector<std::string>& positional() const { return positional_; }

    /// Every (name, value) pair in command-line order, for table-driven
    /// parsing (flag_table below).
    const std::vector<std::pair<std::string, std::string>>& entries() const {
        return flags_;
    }

private:
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<std::string> positional_;
};

/// Declarative flag table: a tool declares each flag once — name, bound
/// target variable, help line — and gets type-checked parsing, unknown-
/// flag rejection, and generated usage text from one place, instead of
/// re-implementing `flags.get_int(...)` chains by hand.
///
///     double scale = 0.2;
///     bool wire = false;
///     tools::flag_table table("usage: v6synth --out=DIR [--scale=S]");
///     table.add("scale", &scale, "world scale factor");
///     table.add("wire", &wire, "emit the corpus as a v6wire file");
///     if (const auto err = table.parse(flags)) { ... }
///
/// Targets keep their initialized value when the flag is absent, so the
/// declaration *is* the default. parse() rejects flags not in the table
/// (catching typos like --shard=4) and non-numeric values for numeric
/// targets; the uniform observability flags (--metrics-out and friends,
/// consumed by obs_exporter) and --help are always accepted.
class flag_table {
public:
    explicit flag_table(std::string synopsis) : synopsis_(std::move(synopsis)) {}

    flag_table& add(const char* name, bool* target, const char* help) {
        defs_.push_back({name, kind::toggle, target, help});
        return *this;
    }
    flag_table& add(const char* name, long* target, const char* help) {
        defs_.push_back({name, kind::integer, target, help});
        return *this;
    }
    flag_table& add(const char* name, int* target, const char* help) {
        defs_.push_back({name, kind::int32, target, help});
        return *this;
    }
    flag_table& add(const char* name, unsigned* target, const char* help) {
        defs_.push_back({name, kind::uint32, target, help});
        return *this;
    }
    flag_table& add(const char* name, std::uint16_t* target, const char* help) {
        defs_.push_back({name, kind::uint16, target, help});
        return *this;
    }
    flag_table& add(const char* name, std::size_t* target, const char* help) {
        defs_.push_back({name, kind::size, target, help});
        return *this;
    }
    flag_table& add(const char* name, double* target, const char* help) {
        defs_.push_back({name, kind::real, target, help});
        return *this;
    }
    flag_table& add(const char* name, std::string* target, const char* help) {
        defs_.push_back({name, kind::text, target, help});
        return *this;
    }
    /// Repeatable: every occurrence appends.
    flag_table& add(const char* name, std::vector<std::string>* target,
                    const char* help) {
        defs_.push_back({name, kind::text_list, target, help});
        return *this;
    }
    /// Optional-value flag (`--x` or `--x=V`): presence sets *given,
    /// a non-empty value overwrites *value.
    flag_table& add(const char* name, bool* given, std::string* value,
                    const char* help) {
        defs_.push_back({name, kind::opt_text, given, help, value});
        return *this;
    }

    /// Applies every command-line flag to its target. Returns an error
    /// message for an unknown flag or unparsable value, nullopt on
    /// success.
    std::optional<std::string> parse(const flag_set& flags) const {
        for (const auto& [name, value] : flags.entries()) {
            if (is_uniform(name)) continue;
            const def* d = find(name);
            if (!d)
                return "unknown flag --" + name + " (see --help)";
            if (const auto err = apply(*d, value))
                return "--" + name + "=" + value + ": " + *err;
        }
        return std::nullopt;
    }

    /// The generated help text: synopsis, one line per declared flag,
    /// then the uniform observability flags.
    std::string usage() const {
        std::string out = synopsis_;
        if (!out.empty() && out.back() != '\n') out += '\n';
        out += "options:\n";
        for (const def& d : defs_) {
            std::string line = "  --";
            line += d.name;
            switch (d.k) {
                case kind::toggle: break;
                case kind::opt_text: line += "[=V]"; break;
                default: line += "=V"; break;
            }
            while (line.size() < 20) line += ' ';
            line += ' ';
            line += d.help;
            out += line;
            out += '\n';
        }
        out += obs_exporter_help();
        return out;
    }

private:
    enum class kind { toggle, integer, int32, uint32, uint16, size, real, text, text_list, opt_text };

    struct def {
        const char* name;
        kind k;
        void* target;
        const char* help;
        void* extra = nullptr;  // opt_text: the string target
    };

    static bool is_uniform(const std::string& name) {
        return name == "help" || name == "metrics-out" || name == "trace-out" ||
               name == "events-out" || name == "profile-out" ||
               name == "profile-hz" || name == "pmu-out";
    }

    const def* find(const std::string& name) const {
        for (const def& d : defs_)
            if (name == d.name) return &d;
        return nullptr;
    }

    static std::optional<std::string> apply(const def& d, const std::string& value) {
        switch (d.k) {
            case kind::toggle:
                *static_cast<bool*>(d.target) = true;
                return std::nullopt;
            case kind::opt_text:
                *static_cast<bool*>(d.target) = true;
                if (!value.empty()) *static_cast<std::string*>(d.extra) = value;
                return std::nullopt;
            case kind::text:
                *static_cast<std::string*>(d.target) = value;
                return std::nullopt;
            case kind::text_list:
                static_cast<std::vector<std::string>*>(d.target)->push_back(value);
                return std::nullopt;
            case kind::real: {
                char* end = nullptr;
                const double v = std::strtod(value.c_str(), &end);
                if (value.empty() || end != value.c_str() + value.size())
                    return "expected a number";
                *static_cast<double*>(d.target) = v;
                return std::nullopt;
            }
            default: {
                char* end = nullptr;
                const long long v = std::strtoll(value.c_str(), &end, 10);
                if (value.empty() || end != value.c_str() + value.size())
                    return "expected an integer";
                switch (d.k) {
                    case kind::integer:
                        *static_cast<long*>(d.target) = static_cast<long>(v);
                        break;
                    case kind::int32:
                        *static_cast<int*>(d.target) = static_cast<int>(v);
                        break;
                    case kind::uint32:
                        if (v < 0) return "expected a non-negative integer";
                        *static_cast<unsigned*>(d.target) = static_cast<unsigned>(v);
                        break;
                    case kind::uint16:
                        if (v < 0 || v > 65535) return "expected a port number (0..65535)";
                        *static_cast<std::uint16_t*>(d.target) =
                            static_cast<std::uint16_t>(v);
                        break;
                    case kind::size:
                        if (v < 0) return "expected a non-negative integer";
                        *static_cast<std::size_t*>(d.target) =
                            static_cast<std::size_t>(v);
                        break;
                    default:
                        break;
                }
                return std::nullopt;
            }
        }
    }

    /// Forwarded here (rather than calling obs_exporter::help_lines()
    /// directly) so usage() stays definable before obs_exporter.
    static std::string obs_exporter_help();

    std::string synopsis_;
    std::vector<def> defs_;
};

/// The uniform observability flags every tool accepts:
///
///   --metrics-out=FILE   dump the process metrics registry on exit
///                        (FILE ending in .prom: Prometheus text;
///                        anything else: structured JSON)
///   --trace-out=FILE     Chrome-trace JSON of the run's phase spans
///                        (load in chrome://tracing / ui.perfetto.dev)
///   --events-out=FILE    JSON-lines dump of the process event log
///                        (drift alarms, lifecycle events)
///   --profile-out=FILE   folded-stack text from the sampling profiler
///                        (feed to flamegraph.pl / speedscope); sampling
///                        runs for the whole tool lifetime at
///                        --profile-hz=N (default 97)
///   --pmu-out=FILE       arm hardware-counter scopes (v6::obs::pmu)
///                        and write the final per-thread/per-site
///                        snapshot as JSON; where perf_event_open is
///                        restricted the snapshot carries the reason
///                        instead of counters
///
/// All writes are atomic (tmp-file + rename), so a dump is never
/// observed half-written. Declare one after flag parsing; the
/// destructor writes the dumps on every return path, after all other
/// work of main() has finished.
class obs_exporter {
public:
    explicit obs_exporter(const flag_set& flags)
        : metrics_out_(flags.get("metrics-out")),
          events_out_(flags.get("events-out")),
          profile_out_(flags.get("profile-out")),
          pmu_out_(flags.get("pmu-out")) {
        const std::string trace_out = flags.get("trace-out");
        if (!trace_out.empty()) obs::trace_log::enable(trace_out);
        if (!pmu_out_.empty()) obs::pmu::enable();  // no-op when denied
        if (!profile_out_.empty()) {
            const auto hz =
                static_cast<unsigned>(flags.get_int("profile-hz", 97));
            if (!obs::profiler::start(hz)) {
                std::fprintf(stderr,
                             "warning: profiler unavailable; ignoring "
                             "--profile-out\n");
                profile_out_.clear();
            }
        }
    }

    ~obs_exporter() { write(); }

    obs_exporter(const obs_exporter&) = delete;
    obs_exporter& operator=(const obs_exporter&) = delete;

    /// Writes the dumps now (idempotent; also called by the destructor).
    /// Tools with an ordering requirement — v6stream must join the roll
    /// thread before the final dump — call this explicitly at the right
    /// point.
    void write() {
        if (written_) return;
        written_ = true;
        if (!metrics_out_.empty()) {
            obs::update_process_gauges(obs::registry::global());
            if (!obs::registry::global().write_file(metrics_out_))
                std::fprintf(stderr, "warning: cannot write %s\n",
                             metrics_out_.c_str());
        }
        // When the log streams to the file already (v6stream's daemon
        // mode enables size-capped rotation), the exit dump would
        // clobber the rotated file with just the retained window.
        if (!events_out_.empty() && !obs::event_log::global().file_enabled() &&
            !obs::event_log::global().dump(events_out_))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         events_out_.c_str());
        if (!profile_out_.empty()) {
            obs::profiler::stop();
            if (!obs::atomic_write_file(profile_out_,
                                        obs::profiler::folded_text()))
                std::fprintf(stderr, "warning: cannot write %s\n",
                             profile_out_.c_str());
        }
        if (!pmu_out_.empty() &&
            !obs::atomic_write_file(pmu_out_, obs::pmu::snapshot_json()))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         pmu_out_.c_str());
    }

    static const char* help_lines() {
        return "  --metrics-out=F  dump metrics on exit (.prom = Prometheus, "
               "else JSON)\n"
               "  --trace-out=F    write a Chrome-trace JSON of the run\n"
               "  --events-out=F   write the event log (drift alarms) as "
               "JSON lines\n"
               "  --profile-out=F  sample the process (--profile-hz=N, "
               "default 97) and\n"
               "                   write folded stacks for flamegraph.pl\n"
               "  --pmu-out=F      count hardware events (cycles, cache "
               "misses, ...) and\n"
               "                   write the final PMU snapshot as JSON";
    }

private:
    std::string metrics_out_;
    std::string events_out_;
    std::string profile_out_;
    std::string pmu_out_;
    bool written_ = false;
};

inline std::string flag_table::obs_exporter_help() {
    return std::string(obs_exporter::help_lines()) + "\n";
}

/// Parses a density-class spec "N@P" or "N@/P" (e.g. "2@112", the
/// paper's n@/p classes); shared by v6dense and v6stream.
inline std::optional<std::pair<std::uint64_t, unsigned>> parse_density_class(
    const std::string& text) {
    const std::size_t at = text.find('@');
    if (at == std::string::npos) return std::nullopt;
    const long n = std::atol(text.substr(0, at).c_str());
    std::string p_text = text.substr(at + 1);
    if (!p_text.empty() && p_text[0] == '/') p_text.erase(0, 1);
    const long p = std::atol(p_text.c_str());
    if (n < 1 || p < 0 || p > 128) return std::nullopt;
    return std::make_pair(static_cast<std::uint64_t>(n), static_cast<unsigned>(p));
}

/// Prints the uniform malformed-line warning: how many lines were
/// skipped, and where the first few are (line number + content), so a
/// bad feed is locatable. Blank lines and '#' comments are tolerated by
/// the readers and never reported here.
inline void report_malformed_lines(const read_report& report,
                                   const std::string& source) {
    if (report.malformed == 0) return;
    std::fprintf(stderr, "warning: %s: %llu malformed line(s) skipped\n",
                 source.c_str(),
                 static_cast<unsigned long long>(report.malformed));
    for (const read_error& e : report.first_errors)
        std::fprintf(stderr, "warning:   line %llu: %s\n",
                     static_cast<unsigned long long>(e.line_number),
                     e.text.c_str());
}

/// Reads addresses from the first positional argument (a file) or stdin
/// when none is given ("-" also means stdin). Blank lines and '#'
/// comments are tolerated; malformed lines are reported to stderr with
/// their line numbers. Returns nullopt when the file cannot be opened.
inline std::optional<std::vector<address>> read_input_addresses(const flag_set& flags) {
    static const obs::histogram read_hist = obs::registry::global().get_histogram(
        "v6_tools_read_input_seconds", obs::latency_buckets(), {},
        "Time to read and parse the input address list.");
    const obs::span span("read_input", read_hist);
    std::vector<address> addrs;
    read_report report;
    std::string source = "<stdin>";
    if (flags.positional().empty() || flags.positional()[0] == "-") {
        report = read_addresses(std::cin, addrs);
    } else {
        source = flags.positional()[0];
        std::ifstream in(source);
        if (!in) {
            std::fprintf(stderr, "error: cannot open %s\n", source.c_str());
            return std::nullopt;
        }
        report = read_addresses(in, addrs);
    }
    report_malformed_lines(report, source);
    return addrs;
}

}  // namespace v6::tools
