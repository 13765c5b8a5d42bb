// trace.h — the obs layer's one instrumentation scope and its span
// tracer: per-thread lock-free span ring buffers with 64-bit trace/span
// ids.
//
// obs::span is the only scope type. One span per instrumented site:
//   * it opens a tracer span while tracing is enabled (tracer::enable,
//     --trace-out, /trace);
//   * it adds the site's hardware-counter delta to the PMU totals while
//     counting is armed (pmu::enable, --pmu-out; see pmu.h), interned
//     by the span's name;
//   * given a histogram, it observes the scope's elapsed seconds.
// The tracer span closes before the histogram observation. Disabled
// cost is one relaxed atomic load and a branch per gate (tracer, PMU),
// plus two clock reads only when a histogram is given.
//
// A span is one timed segment of work (a task run, a queue wait, a
// merge) attributed to the thread that executed it and, through its
// parent id, to the logical operation that caused it. Parentage crosses
// threads explicitly: the submitter captures tracer::current() and the
// worker adopts it with a context_scope, so a fan-out through
// v6::par::run_indexed or a stream-engine shard queue shows up in the
// trace as one tree rooted at the submitting span.
//
// Storage is one fixed-capacity ring of seqlock-guarded slots per
// emitting thread. Writers are wait-free and never contend with each
// other (single-writer rings); readers (snapshot / the /trace endpoint)
// copy slots optimistically and discard torn reads. When a ring wraps,
// the oldest spans are overwritten and tracer::dropped() counts them —
// tracing never blocks or allocates on the hot path.
//
// Threads: name_thread() registers the calling thread once in the obs
// layer's one thread registry. The entry carries the name and thread
// number for every per-thread export — trace thread metadata, /pmu
// rows and profiler stacks — and owns the thread's trace ring, counter
// group and sample buffer, each created lazily on first use. Rings
// outlive their threads, so finished workers' spans stay exportable.
// Spans never touch classification output — they carry timestamps,
// not data.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"

namespace v6::obs {

namespace detail {
// The hot-path gate, exposed so the span constructors inline to a
// single relaxed load + branch when tracing is off.
extern std::atomic<bool> trace_enabled;
}  // namespace detail

/// Identifies a position in the span tree: the root operation
/// (trace_id) and the immediate span (span_id). A zero span_id means
/// "no context" — spans started under it become new roots.
struct span_context {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    explicit operator bool() const noexcept { return span_id != 0; }
};

/// What a span's duration measures. Rendered as the Chrome-trace
/// category, so viewers can color queue time apart from run time.
enum class span_kind : std::uint8_t { run = 0, queue_wait = 1, merge = 2 };

const char* span_kind_name(span_kind k) noexcept;

/// One completed span as read back out of the rings.
struct span_record {
    const char* name = "";
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint64_t start_ns = 0;  ///< since the tracer's steady origin
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;  ///< tracer-assigned thread number
    span_kind kind = span_kind::run;
};

/// Process-wide tracer: enable/disable, per-thread ring registry,
/// export. All members are static; the tracer has no instances.
class tracer {
public:
    /// Spans each thread's ring can hold before overwriting the oldest.
    static constexpr std::size_t ring_capacity = 8192;

    static bool enabled() noexcept {
        return detail::trace_enabled.load(std::memory_order_relaxed);
    }
    static void enable() noexcept;
    static void disable() noexcept;
    /// Disables and empties every ring; resets the time origin (tests).
    static void reset() noexcept;

    /// The calling thread's current context (innermost live span, or
    /// the adopted foreign context). Zero when outside any span.
    static span_context current() noexcept;

    /// Nanoseconds since the tracer's steady-clock origin.
    static std::uint64_t now_ns() noexcept;

    /// Allocates a fresh process-unique span id (never 0).
    static std::uint64_t next_id() noexcept;

    /// Records one completed span with explicit timestamps — the
    /// escape hatch for after-the-fact segments like queue waits,
    /// where the duration was not bracketed by a live span object.
    /// A zero ctx.trace_id is replaced by ctx.span_id (a new root).
    /// No-op while disabled; never blocks, never allocates after the
    /// calling thread's first emit.
    static void emit(const char* name, span_kind kind, span_context ctx,
                     std::uint64_t parent_id, std::uint64_t start_ns,
                     std::uint64_t dur_ns) noexcept;

    /// Copies every readable span out of every ring, oldest first per
    /// thread, then sorted by start time. Safe concurrently with
    /// emitters; torn slots are skipped.
    static std::vector<span_record> snapshot();

    /// The full trace as Chrome-trace JSON ({"traceEvents":[...]}) with
    /// thread_name metadata events — loads in chrome://tracing and
    /// Perfetto.
    static std::string chrome_json();

    /// Spans lost to ring wraparound since the last reset().
    static std::uint64_t dropped() noexcept;
};

/// Names the calling thread ("par-worker-3") in every per-thread
/// export: trace thread metadata, /pmu rows and profiler stacks. The
/// one naming call a thread makes; the last name wins.
void name_thread(const std::string& name);

/// The one RAII instrumentation scope. While tracing is enabled it
/// starts a span on construction, emits it on destruction, and is the
/// thread's current context in between, so nested spans and fan-outs
/// parent to it. While PMU counting is armed it adds the scope's
/// multiplexing-scaled counter delta to the site named `name` (a
/// string literal, interned by pointer, then by content). Given a
/// histogram, it observes the scope's elapsed seconds after the span
/// closes.
class span {
public:
    explicit span(const char* name, histogram h = {},
                  span_kind kind = span_kind::run) noexcept
        : hist_(h) {
        const bool trace =
            detail::trace_enabled.load(std::memory_order_relaxed);
        const bool count =
            pmu::detail::pmu_enabled.load(std::memory_order_relaxed);
        if (trace || count || hist_) open(name, kind, trace, count);
    }
    ~span() {
        if (live_ || site_ || hist_) close();
    }

    span(const span&) = delete;
    span& operator=(const span&) = delete;

    /// This span's ids, for handing to another thread (zero if tracing
    /// was disabled at construction).
    span_context context() const noexcept { return ctx_; }

private:
    // Out of line, so a site inlines only the gates.
    void open(const char* name, span_kind kind, bool trace,
              bool count) noexcept;
    void close() noexcept;

    histogram hist_;
    std::chrono::steady_clock::time_point start_{};
    const char* name_ = "";
    span_context ctx_{};
    span_context saved_{};
    std::uint64_t parent_ = 0;
    std::uint64_t start_ns_ = 0;
    span_kind kind_ = span_kind::run;
    bool live_ = false;
    pmu::detail::site_rec* site_ = nullptr;
    std::optional<pmu::sample> counters_;  // engaged only while counting
};

/// Adopts a context captured on another thread (at submit time) as the
/// calling thread's current context for the enclosing scope, so spans
/// opened here parent to the submitter's span. No-op for a zero
/// context or while tracing is disabled.
class context_scope {
public:
    explicit context_scope(span_context parent) noexcept {
        if (parent.span_id != 0 &&
            detail::trace_enabled.load(std::memory_order_relaxed))
            adopt(parent);
    }
    ~context_scope() {
        if (live_) restore();
    }

    context_scope(const context_scope&) = delete;
    context_scope& operator=(const context_scope&) = delete;

private:
    void adopt(span_context parent) noexcept;
    void restore() noexcept;

    span_context saved_{};
    bool live_ = false;
};

}  // namespace v6::obs
