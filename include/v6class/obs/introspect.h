// introspect.h — cheap process self-inspection for the obs layer:
// resident set size, surfaced as a gauge next to the pipeline metrics
// so memory growth (trie arenas, shard buffers) is visible per seal.
#pragma once

#include <cstdint>

namespace v6::obs {

class registry;

/// The process's resident set size in bytes (from /proc/self/statm on
/// Linux). Returns 0 where unavailable.
std::uint64_t process_rss_bytes();

/// Samples process-level series (v6_process_rss_bytes, the PMU gauges,
/// v6_trace_dropped_spans_total) into `reg`.
/// Called at day seals and metric dumps; one file read, no allocation
/// on the metrics path.
void update_process_gauges(registry& reg);

}  // namespace v6::obs
