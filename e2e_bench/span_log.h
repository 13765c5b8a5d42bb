// span_log.h — the benchmark's own in-memory spans, recorded around each
// public call it makes into the library and written out at the end as
// Chrome-trace JSON (chrome://tracing, Perfetto).
//
// One span_log per benchmark thread (pusher, watcher, queries, oracle), so
// recording takes no lock. Capacity is fixed up front from the workload
// size; a span that does not fit is counted in dropped() instead of
// growing the buffer mid-run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// The public calls the benchmark brackets with spans.
enum class site : std::uint8_t {
    replay,           // one whole replay, first record to finish() return
    read,             // wire_file_reader::next
    decode,           // wire_decoder::decode
    ingest_block,     // net::ingest_block
    wait_for_report,  // stream_engine::wait_for_report
    finish,           // stream_engine::finish
    q_dashboard,      // stats() + live()
    q_snapshot,
    q_classify_day,
    q_density,
    q_mra,
    k_bulk_build,     // oracle kernels on the final sealed set
    k_density,
    k_mra,
    k_classify_day,
    count_
};

inline const char* site_name(site s) noexcept {
    static const char* const names[] = {
        "replay",         "net.read",          "net.decode",
        "net.ingest_block", "stream.wait_for_report", "stream.finish",
        "query.dashboard", "query.snapshot",   "query.classify_day",
        "query.density",  "query.mra",         "trie.bulk_build",
        "spatial.density", "spatial.mra",      "temporal.classify_day"};
    static_assert(sizeof(names) / sizeof(names[0]) ==
                  static_cast<std::size_t>(site::count_));
    return names[static_cast<std::size_t>(s)];
}

class span_log {
public:
    struct span {
        site where;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };

    span_log(const char* thread_name, std::uint32_t tid)
        : thread_(thread_name), tid_(tid) {}

    /// Arms recording with room for `capacity` spans; disarmed logs
    /// record nothing (the untraced runs).
    void arm(std::size_t capacity) {
        spans_.clear();
        spans_.reserve(capacity);
        capacity_ = capacity;
        armed_ = true;
    }
    void disarm() noexcept { armed_ = false; }
    bool armed() const noexcept { return armed_; }

    void add(site where, std::uint64_t start_ns, std::uint64_t end_ns) {
        if (!armed_) return;
        if (spans_.size() >= capacity_) {
            ++dropped_;
            return;
        }
        spans_.push_back({where, start_ns, end_ns});
    }

    const std::vector<span>& spans() const noexcept { return spans_; }
    std::uint64_t dropped() const noexcept { return dropped_; }

    /// Appends this log's spans as Chrome "X" events (microseconds from
    /// `origin_ns`), each preceded by a comma unless `*first`.
    void write_events(std::FILE* out, std::uint64_t origin_ns, bool* first) const {
        std::fprintf(out,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"name\":\"%s\"}}",
                     *first ? "" : ",\n", tid_, thread_);
        *first = false;
        for (const span& s : spans_)
            std::fprintf(out,
                         ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                         "\"ts\":%.3f,\"dur\":%.3f}",
                         site_name(s.where), tid_,
                         static_cast<double>(s.start_ns - origin_ns) / 1e3,
                         static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }

private:
    const char* thread_;
    std::uint32_t tid_;
    std::vector<span> spans_;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
    bool armed_ = false;
};

/// RAII bracket for one call: stamps start at construction and records
/// at destruction; reads no clock when the log is disarmed.
class scoped_span {
public:
    scoped_span(span_log& log, site where) noexcept
        : log_(log), where_(where), start_(log.armed() ? now_ns() : 0) {}
    ~scoped_span() {
        if (log_.armed()) log_.add(where_, start_, now_ns());
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_log& log_;
    site where_;
    std::uint64_t start_;
};

}  // namespace e2e
