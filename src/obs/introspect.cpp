#include "v6class/obs/introspect.h"

#include <cstdio>

#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/profile.h"
#include "v6class/obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace v6::obs {

std::uint64_t process_rss_bytes() {
#if defined(__linux__)
    // statm field 2 is resident pages; cheaper to parse than status.
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (!f) return 0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2) return 0;
    const long page = ::sysconf(_SC_PAGESIZE);
    return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
    return 0;
#endif
}

void update_process_gauges(registry& reg) {
    // Re-interning per call keeps this correct for any registry; the
    // call sites (day seals, final dumps) are far off the hot path.
    reg.get_gauge("v6_process_rss_bytes", {},
                  "Resident set size of this process in bytes")
        .set(static_cast<std::int64_t>(process_rss_bytes()));
    // Hardware-counter availability and per-site derived rates ride
    // the same cadence so /metrics and dumps always carry them.
    pmu::export_gauges(reg);
    // Trace spans lost to ring wraparound, so a trace that looks thin
    // says why.
    reg.get_counter("v6_trace_dropped_spans_total", {},
                    "Trace spans overwritten by per-thread ring wraparound "
                    "before any export read them.")
        .max_of(tracer::dropped());
    // Likewise profiler samples lost to full per-thread buffers, so a
    // thin flamegraph says why.
    reg.get_counter("v6_profile_dropped_samples_total", {},
                    "Profiler samples discarded because the sampled "
                    "thread's buffer was full.")
        .max_of(profiler::dropped());
}

}  // namespace v6::obs
