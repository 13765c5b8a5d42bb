// timer.h — the --trace-out file façade over the span tracer.
//
// Phase timing is not a type of its own: obs::span (trace.h) with a
// histogram observes its scope's elapsed seconds, opens a tracer span
// while tracing is on and counts the site while the PMU is armed. This
// header adds trace_log, which remembers where to write the trace. Load
// the resulting file in chrome://tracing or https://ui.perfetto.dev to
// see the phases of a run laid out on a timeline per thread. Tracing is
// off until trace_log::enable(path) or tracer::enable().
#pragma once

#include <string>

#include "v6class/obs/trace.h"

namespace v6::obs {

/// File façade over the span tracer for --trace-out: enable(path)
/// turns tracing on and remembers where to write; flush() (and process
/// exit) writes the tracer's Chrome-trace JSON there atomically. Spans
/// are buffered in the tracer's lock-free rings, so tools need no
/// explicit teardown on any return path.
class trace_log {
public:
    /// Starts collecting, to be written to `path`. Idempotent (the last
    /// path wins).
    static void enable(std::string path);
    static bool enabled() noexcept;

    /// Writes the collected spans to the enabled path. Returns false
    /// when no path is set or the file cannot be written. Spans are
    /// kept, so periodic flushes write ever-longer prefixes of the run.
    static bool flush();

    /// Drops all collected spans and disables collection (tests).
    static void reset();
};

}  // namespace v6::obs
