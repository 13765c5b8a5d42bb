// bench_common.h — shared plumbing for the experiment binaries: flag
// parsing and the week/day collection helpers every table and figure
// driver needs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "v6class/cdnsim/world.h"
#include "v6class/obs/atomic_file.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/profile.h"
#include "v6class/obs/timer.h"
#include "v6class/par/pool.h"

namespace v6::bench {

namespace detail {
inline std::string& metrics_path() {
    static std::string path;
    return path;
}
inline void dump_metrics_at_exit() {
    if (detail::metrics_path().empty()) return;
    if (!obs::registry::global().write_file(detail::metrics_path()))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     detail::metrics_path().c_str());
}
inline std::string& pmu_path() {
    static std::string path;
    return path;
}
inline void dump_pmu_at_exit() {
    if (detail::pmu_path().empty()) return;
    if (!obs::atomic_write_file(detail::pmu_path(),
                                obs::pmu::snapshot_json()))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     detail::pmu_path().c_str());
}
inline std::string& profile_path() {
    static std::string path;
    return path;
}
inline void dump_profile_at_exit() {
    if (detail::profile_path().empty()) return;
    obs::profiler::stop();
    if (!obs::atomic_write_file(detail::profile_path(),
                                obs::profiler::folded_text()))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     detail::profile_path().c_str());
}
}  // namespace detail

/// Parses "--scale=X" and "--seed=N" style flags; anything else is
/// ignored so binaries can be launched uniformly.
struct options {
    double scale = 0.5;
    std::uint64_t seed = 42;
    unsigned tail_isps = 40;
    std::string program = "bench";  // argv[0] basename, for BENCH_<name>.json
    std::string metrics_out;        // --metrics-out=F override
    bool metrics = true;            // --no-metrics disables the exit dump
    unsigned threads = 0;           // --threads=N; 0 = hardware concurrency
    std::string trace_out;          // --trace-out=F: span trace Chrome JSON
    std::string profile_out;        // --profile-out=F: folded stacks
    unsigned profile_hz = 97;       // --profile-hz=N sampling rate
    std::string pmu_out;            // --pmu-out=F: final PMU snapshot JSON
};

inline options parse_options(int argc, char** argv, double default_scale = 0.5) {
    options opt;
    opt.scale = default_scale;
    if (argc > 0 && argv[0] && *argv[0]) {
        const char* slash = std::strrchr(argv[0], '/');
        opt.program = slash ? slash + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0)
            opt.scale = std::atof(arg + 8);
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            opt.seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
        else if (std::strncmp(arg, "--tail-isps=", 12) == 0)
            opt.tail_isps = static_cast<unsigned>(std::atoi(arg + 12));
        else if (std::strncmp(arg, "--metrics-out=", 14) == 0)
            opt.metrics_out = arg + 14;
        else if (std::strcmp(arg, "--no-metrics") == 0)
            opt.metrics = false;
        else if (std::strncmp(arg, "--threads=", 10) == 0)
            opt.threads = static_cast<unsigned>(std::atoi(arg + 10));
        else if (std::strncmp(arg, "--trace-out=", 12) == 0)
            opt.trace_out = arg + 12;
        else if (std::strncmp(arg, "--profile-out=", 14) == 0)
            opt.profile_out = arg + 14;
        else if (std::strncmp(arg, "--profile-hz=", 13) == 0)
            opt.profile_hz = static_cast<unsigned>(std::atoi(arg + 13));
        else if (std::strncmp(arg, "--pmu-out=", 10) == 0)
            opt.pmu_out = arg + 10;
    }
    // Results are deterministic at any width (index-keyed slots; see
    // DESIGN.md), so the flag only trades wall time.
    par::set_default_threads(opt.threads);
    if (!opt.trace_out.empty()) obs::trace_log::enable(opt.trace_out);
    if (!opt.profile_out.empty()) {
        detail::profile_path() = opt.profile_out;
        if (obs::profiler::start(opt.profile_hz))
            std::atexit(detail::dump_profile_at_exit);
    }
    if (!opt.pmu_out.empty()) {
        obs::pmu::enable();  // no-op where perf_event_open is denied
        detail::pmu_path() = opt.pmu_out;
        std::atexit(detail::dump_pmu_at_exit);
    }
    return opt;
}

/// RAII timer for a named section of a driver: one obs::span that
/// feeds the process-wide registry (one v6_bench_phase_seconds series
/// per phase label), the Chrome trace and, under --pmu-out, the PMU
/// site totals, so BENCH_<name>.json and the tools' --metrics-out share
/// one schema.
class timed_phase {
public:
    explicit timed_phase(const char* name)
        : span_(name, obs::registry::global().get_histogram(
                          "v6_bench_phase_seconds", obs::latency_buckets(),
                          {{"phase", name}},
                          "Wall time of one named bench-driver phase.")) {}

private:
    obs::span span_;
};

inline world_config world_cfg(const options& opt) {
    world_config cfg;
    cfg.seed = opt.seed;
    cfg.scale = opt.scale;
    cfg.tail_isps = opt.tail_isps;
    return cfg;
}

/// Distinct addresses active during the 7 days starting at `first_day`.
inline std::vector<address> week_addresses(const world& w, int first_day) {
    std::vector<address> out;
    for (int d = first_day; d < first_day + 7; ++d) {
        const auto day = w.active_addresses(d);
        out.insert(out.end(), day.begin(), day.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// Masks to /64 and deduplicates.
inline std::vector<address> to_64s(const std::vector<address>& addrs) {
    std::vector<address> out;
    out.reserve(addrs.size());
    for (const address& a : addrs) out.push_back(a.masked(64));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

inline void banner(const char* title, const options& opt) {
    std::printf("=== %s ===\n", title);
    std::printf("(synthetic world: scale=%.2f seed=%llu; absolute counts are\n"
                " simulation-scale — compare shapes and proportions with the "
                "paper)\n\n",
                opt.scale, static_cast<unsigned long long>(opt.seed));
    // Every driver that prints a banner also dumps its timings on exit:
    // BENCH_<name>.json next to the cwd (or --metrics-out=F; --no-metrics
    // to skip), in the same JSON schema the tools' --metrics-out emits.
    if (opt.metrics && detail::metrics_path().empty()) {
        detail::metrics_path() = opt.metrics_out.empty()
                                     ? "BENCH_" + opt.program + ".json"
                                     : opt.metrics_out;
        // Construct the registry singleton BEFORE registering the dump:
        // exit teardown is LIFO, so the registry must predate the handler
        // or the dump would read a destroyed object.
        (void)obs::registry::global();
        std::atexit(detail::dump_metrics_at_exit);
    }
}

}  // namespace v6::bench
