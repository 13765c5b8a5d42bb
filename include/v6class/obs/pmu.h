// pmu.h — hardware performance counters for the obs layer: per-thread
// perf_event_open(2) counter groups (cycles, instructions, cache
// references/misses, branches/branch misses, plus software task-clock
// and page-faults) read back with one read(2) of the grouped ring and
// scaled for multiplexing via time_enabled/time_running.
//
// Three integration surfaces:
//   * sites — while counting is armed, every obs::span (trace.h)
//     attributes its counter delta to the site named like the span
//     ("shard.ingest_batch", "par.task", "seal_day", ...). Sites
//     accumulate process-wide; derived rates (IPC, cache-miss rate,
//     branch-miss rate) export through the metrics registry into
//     /metrics, the tsdb, and the dashboard.
//   * thread/site snapshots — the /pmu endpoint and --pmu-out dumps
//     render a per-thread topdown-style table from snapshot_json() /
//     topdown_html().
//   * benches — bench_gbench.h meters whole benchmark runs and emits
//     v6_bench_ipc / v6_bench_cache_misses_per_item for gating.
//
// Availability is probed once per process and degrades in tiers:
//   hardware  — the full group opened (reason "ok"),
//   software  — no hardware PMU (VMs, perf_event_paranoid, seccomp),
//               but software clocks count; IPC/cache rates are absent,
//   unavailable — perf_event_open denied outright, or disabled via
//               V6CLASS_DISABLE_PMU=1; everything is a no-op.
// The v6class_pmu_available gauge carries the tier and the reason, so
// a dump from a locked-down container explains itself.
//
// Disabled cost mirrors the tracer: a span pays one relaxed atomic
// load and a branch for this gate while counting is off. Armed cost is
// two read(2) syscalls per span (~1-2 us), so spans belong on
// batch-grained paths, not per-record ones. Each thread's counter
// group hangs off its entry in the obs thread registry (name_thread in
// trace.h) and is opened on the thread's first read.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace v6::obs {

class registry;

namespace pmu {

/// Counter slots in a group, in read-back order. Hardware slots may be
/// individually absent (the kernel rejects events the CPU lacks);
/// software slots survive everywhere perf_event_open works at all.
enum class counter : unsigned {
    cycles = 0,
    instructions,
    cache_references,
    cache_misses,
    branches,
    branch_misses,
    task_clock_ns,
    page_faults,
};
inline constexpr std::size_t counter_slots = 8;

const char* counter_name(counter c) noexcept;

enum class mode : int { unavailable = 0, software = 1, hardware = 2 };

const char* mode_name(mode m) noexcept;

/// Result of the one-shot process-wide probe.
struct availability {
    mode tier = mode::unavailable;
    std::string reason;  ///< "ok", or why the tier is degraded
    bool counting() const noexcept { return tier != mode::unavailable; }
    bool hardware() const noexcept { return tier == mode::hardware; }
};

/// Probes perf_event_open on first call (cheap afterwards). Honors
/// V6CLASS_DISABLE_PMU=1, which forces `unavailable` without touching
/// the syscall at all.
const availability& available();

/// Arms per-span delta collection. No-op (stays disabled) when
/// available().counting() is false, so callers need no guard.
void enable() noexcept;
void disable() noexcept;
bool enabled() noexcept;

/// Multiplexing correction: the kernel rotates groups when more are
/// open than the PMU has slots, and reports how long this group was
/// scheduled (`running`) out of how long it was enabled (`enabled`).
/// Returns raw * enabled / running (raw when the group was never
/// descheduled, 0 when it never ran). Pure — unit-testable against
/// synthetic times.
std::uint64_t scale_value(std::uint64_t raw, std::uint64_t enabled,
                          std::uint64_t running) noexcept;

/// One group read: raw counter values plus the group's scheduling
/// times. Values are raw; scaled(c) applies scale_value.
struct sample {
    std::array<std::uint64_t, counter_slots> raw{};
    std::array<bool, counter_slots> present{};
    std::uint64_t time_enabled = 0;
    std::uint64_t time_running = 0;
    bool ok = false;

    bool has(counter c) const noexcept {
        return present[static_cast<unsigned>(c)];
    }
    std::uint64_t operator[](counter c) const noexcept {
        return raw[static_cast<unsigned>(c)];
    }
    std::uint64_t scaled(counter c) const noexcept {
        return scale_value((*this)[c], time_enabled, time_running);
    }
};

/// Reads the calling thread's counter group, opening it on first use
/// (lazy: threads that never count never pay the fds). sample.ok is
/// false when the group cannot be opened or read.
sample read_current() noexcept;

/// Accumulated deltas of one span site. Totals are multiplexing-
/// scaled at scope end; nested scopes both count their overlap (the
/// outer span includes the inner, exactly like span durations).
struct site_stats {
    const char* name = "";
    std::uint64_t spans = 0;
    std::array<std::uint64_t, counter_slots> total{};
    std::array<bool, counter_slots> present{};

    std::uint64_t operator[](counter c) const noexcept {
        return total[static_cast<unsigned>(c)];
    }
    bool has(counter c) const noexcept {
        return present[static_cast<unsigned>(c)];
    }
    /// Instructions per cycle; 0 when either counter is absent/zero.
    double ipc() const noexcept;
    /// cache_misses / cache_references (0 when absent).
    double cache_miss_rate() const noexcept;
    /// branch_misses / branches (0 when absent).
    double branch_miss_rate() const noexcept;
};

/// Every site that has recorded at least one span, registration order.
std::vector<site_stats> site_snapshot();

/// One named site's totals (zeros when the site never recorded).
site_stats site_totals(const char* name);

/// One live thread's current cumulative counters.
struct thread_sample {
    std::string name;  ///< from name_thread, else "tid-<n>"
    std::uint32_t tid = 0;  ///< the obs thread number (trace "tid")
    sample s;
};

/// Reads every registered thread's group from the calling thread
/// (perf fds are readable cross-thread). Threads appear once they
/// have opened a group; exited threads drop out.
std::vector<thread_sample> thread_snapshot();

/// Full snapshot (mode, reason, threads, sites) as JSON — the /pmu
/// endpoint body and the --pmu-out file format.
std::string snapshot_json();

/// The same snapshot as a self-contained HTML topdown table
/// (/pmu?format=html).
std::string topdown_html();

/// Exports v6class_pmu_available{mode,reason} and per-site derived
/// gauges (v6class_pmu_ipc{site=...}, cache/branch miss rates,
/// task-clock seconds) into `reg`. Called from update_process_gauges.
void export_gauges(registry& reg);

/// Test hook: closes the calling thread's group, forgets all sites and
/// the cached probe (so V6CLASS_DISABLE_PMU set after startup takes
/// effect), and disables counting. Not thread-safe against concurrent
/// spans — tests only.
void reset_for_test();

namespace detail {
// Hot-path gate, exposed so obs::span inlines it to one relaxed load
// and a branch while counting is off (the common case).
extern std::atomic<bool> pmu_enabled;
struct site_rec;
site_rec* intern_site(const char* name) noexcept;
void scope_end(site_rec* site, const sample& begin) noexcept;
}  // namespace detail

}  // namespace pmu

}  // namespace v6::obs
