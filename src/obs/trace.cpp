// trace.cpp — the span tracer (per-thread seqlock rings), the one obs
// thread registry, the span scope, and the trace_log file façade.
//
// Ring protocol: every slot field is an atomic written with relaxed
// stores, bracketed by a sequence counter (odd while a write is in
// flight, bumped to the next even value when it completes). The owning
// thread is the only writer, so writes never contend; readers copy a
// slot, fence, and re-check the sequence, discarding torn copies. This
// keeps concurrent snapshot()/emit() exact under TSan without locks on
// the emit path.
//
// Rings hang off the thread's registry entry (thread_registry.h),
// which is kept after the thread exits while it holds a ring, so a
// ring outlives its thread and its spans stay exportable.
#include "v6class/obs/timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "thread_registry.h"
#include "v6class/obs/atomic_file.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/trace.h"

namespace v6::obs {

namespace detail {

std::atomic<bool> trace_enabled{false};

struct slot {
    std::atomic<std::uint64_t> seq{0};  // even = stable, odd = mid-write
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> parent_id{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint8_t> kind{0};
};

struct thread_ring {
    thread_ring() : slots(tracer::ring_capacity) {}

    std::atomic<std::uint64_t> head{0};  // total spans ever emitted here
    std::atomic<std::uint64_t> dropped{0};
    std::vector<slot> slots;
};

namespace {

std::atomic<std::uint32_t> next_tid{1};
thread_local thread_entry* tl_self = nullptr;
thread_local bool tl_exited = false;  // trivially destructible

/// Releases the calling thread's entry at thread exit, in the order
/// thread_registry.h gives.
struct exit_holder {
    thread_entry* e = nullptr;

    exit_holder() = default;
    exit_holder(const exit_holder&) = delete;
    exit_holder& operator=(const exit_holder&) = delete;
    ~exit_holder() {
        tl_exited = true;
        if (!e) return;
        e->armed.store(nullptr, std::memory_order_relaxed);
        tl_self = nullptr;
        pmu::thread_group* group = nullptr;
        {
            thread_registry& r = threads();
            std::lock_guard<std::mutex> lock(r.mutex);
            e->live = false;
            std::swap(group, e->group);
            if (e->ring == nullptr && e->samples == nullptr) {
                r.entries.erase(
                    std::find(r.entries.begin(), r.entries.end(), e));
                delete e;
            }
        }
        if (group) close_group(group);
    }
};

}  // namespace

thread_registry& threads() {
    // Leaked on purpose: never destroyed, so emit() stays valid from any
    // thread at any point of process teardown.
    static thread_registry* r = new thread_registry;
    return *r;
}

thread_entry* this_thread() noexcept {
    if (tl_self || tl_exited) return tl_self;
    static thread_local exit_holder holder;
    try {
        auto e = std::make_unique<thread_entry>();
        e->tid = next_tid.fetch_add(1, std::memory_order_relaxed);
        e->handle = pthread_self();
        thread_registry& r = threads();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.entries.push_back(e.get());
        arm_if_profiling(*e);
        holder.e = tl_self = e.release();
    } catch (...) {
        return nullptr;  // allocation failed: run uninstrumented
    }
    return tl_self;
}

thread_entry* this_thread_if_registered() noexcept { return tl_self; }

}  // namespace detail

using detail::thread_entry;
using detail::thread_ring;

namespace {

struct trace_clock {
    std::atomic<std::uint64_t> next_span{1};
    std::mutex mutex;  // guards origin against reset()
    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
};

trace_clock& clock_state() {
    static trace_clock* c = new trace_clock;  // leaked: see threads()
    return *c;
}

thread_local span_context tl_current{};

thread_ring* local_ring() noexcept {
    thread_entry* e = detail::this_thread();
    if (!e) return nullptr;
    if (!e->ring) {
        try {
            auto ring = std::make_unique<thread_ring>();
            std::lock_guard<std::mutex> lock(detail::threads().mutex);
            e->ring = ring.release();
        } catch (...) {
            return nullptr;  // allocation failed: drop spans, don't throw
        }
    }
    return e->ring;
}

struct ring_ref {
    thread_ring* ring;
    std::uint32_t tid;
    std::string name;
};

/// Every ring with its thread's number and name, registration order.
std::vector<ring_ref> all_rings() {
    detail::thread_registry& r = detail::threads();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<ring_ref> out;
    for (const thread_entry* e : r.entries)
        if (e->ring) out.push_back({e->ring, e->tid, e->name});
    return out;
}

/// Copies one slot; returns false on a torn read (writer mid-flight or
/// the slot was overwritten while copying).
bool read_slot(const detail::slot& s, span_record& out) {
    for (int attempt = 0; attempt < 3; ++attempt) {
        const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
        if (s1 == 0 || (s1 & 1) != 0) continue;
        out.name = s.name.load(std::memory_order_relaxed);
        out.trace_id = s.trace_id.load(std::memory_order_relaxed);
        out.span_id = s.span_id.load(std::memory_order_relaxed);
        out.parent_id = s.parent_id.load(std::memory_order_relaxed);
        out.start_ns = s.start_ns.load(std::memory_order_relaxed);
        out.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
        out.kind = static_cast<span_kind>(s.kind.load(std::memory_order_relaxed));
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) == s1) {
            if (out.name == nullptr) out.name = "";
            return true;
        }
    }
    return false;
}

/// File sink for trace_log: remembers the --trace-out path and flushes
/// the tracer's Chrome JSON there at process exit, matching the PR 2
/// behaviour (tools need no explicit teardown on any return path).
struct file_sink {
    std::mutex mutex;
    std::string path;

    ~file_sink() { write_locked(); }

    bool write_locked() {
        if (path.empty()) return false;
        // Atomic replace: a periodic flush can race a reader loading the
        // trace into a viewer; it must always see complete JSON.
        return atomic_write_file(path, tracer::chrome_json());
    }
};

file_sink& sink() {
    static file_sink s;
    return s;
}

}  // namespace

const char* span_kind_name(span_kind k) noexcept {
    switch (k) {
        case span_kind::queue_wait: return "queue_wait";
        case span_kind::merge: return "merge";
        case span_kind::run: break;
    }
    return "run";
}

void tracer::enable() noexcept {
    clock_state();  // fix the time origin before the first span
    detail::trace_enabled.store(true, std::memory_order_relaxed);
}

void tracer::disable() noexcept {
    detail::trace_enabled.store(false, std::memory_order_relaxed);
}

void tracer::reset() noexcept {
    disable();
    for (const ring_ref& r : all_rings()) {
        // Emptying head is enough: snapshot() only reads below head, and
        // the owning thread (if mid-emit) re-publishes its slot after.
        r.ring->head.store(0, std::memory_order_release);
        r.ring->dropped.store(0, std::memory_order_relaxed);
    }
    trace_clock& c = clock_state();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.origin = std::chrono::steady_clock::now();
}

span_context tracer::current() noexcept { return tl_current; }

std::uint64_t tracer::now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - clock_state().origin)
            .count());
}

std::uint64_t tracer::next_id() noexcept {
    return clock_state().next_span.fetch_add(1, std::memory_order_relaxed);
}

void tracer::emit(const char* name, span_kind kind, span_context ctx,
                  std::uint64_t parent_id, std::uint64_t start_ns,
                  std::uint64_t dur_ns) noexcept {
    if (!enabled()) return;
    thread_ring* ring = local_ring();
    if (!ring) return;
    if (ctx.trace_id == 0) ctx.trace_id = ctx.span_id;

    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    detail::slot& s = ring->slots[h % ring_capacity];
    const std::uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_release);  // odd: write begins
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(name, std::memory_order_relaxed);
    s.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
    s.span_id.store(ctx.span_id, std::memory_order_relaxed);
    s.parent_id.store(parent_id, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    s.seq.store(seq0 + 2, std::memory_order_release);  // even: stable
    ring->head.store(h + 1, std::memory_order_release);
    if (h >= ring_capacity) ring->dropped.fetch_add(1, std::memory_order_relaxed);
}

std::vector<span_record> tracer::snapshot() {
    std::vector<span_record> out;
    for (const ring_ref& r : all_rings()) {
        const std::uint64_t head = r.ring->head.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(head, ring_capacity);
        for (std::uint64_t k = head - n; k < head; ++k) {
            span_record rec;
            if (!read_slot(r.ring->slots[k % ring_capacity], rec)) continue;
            rec.tid = r.tid;
            out.push_back(rec);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const span_record& a, const span_record& b) {
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.span_id < b.span_id;
              });
    return out;
}

std::string tracer::chrome_json() {
    const std::vector<span_record> spans = snapshot();
    std::string out = "{\"traceEvents\":[\n";
    out +=
        " {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"v6class\"}}";
    for (const ring_ref& r : all_rings()) {
        if (r.name.empty()) continue;
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      ",\n {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,",
                      r.tid);
        out += buf;
        out += "\"args\":{\"name\":\"" + json_escape(r.name) + "\"}}";
    }
    for (const span_record& s : spans) {
        out += ",\n {\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"";
        out += span_kind_name(s.kind);
        char buf[224];
        std::snprintf(
            buf, sizeof buf,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"trace\":\"%llx\",\"span\":\"%llx\","
            "\"parent\":\"%llx\"}}",
            s.tid, static_cast<double>(s.start_ns) / 1e3,
            static_cast<double>(s.dur_ns) / 1e3,
            static_cast<unsigned long long>(s.trace_id),
            static_cast<unsigned long long>(s.span_id),
            static_cast<unsigned long long>(s.parent_id));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

std::uint64_t tracer::dropped() noexcept {
    std::uint64_t total = 0;
    for (const ring_ref& r : all_rings())
        total += r.ring->dropped.load(std::memory_order_relaxed);
    return total;
}

void span::open(const char* name, span_kind kind, bool trace,
                bool count) noexcept {
    if (hist_) start_ = std::chrono::steady_clock::now();
    if (trace) {
        name_ = name;
        kind_ = kind;
        saved_ = tl_current;
        parent_ = saved_.span_id;
        ctx_.span_id = tracer::next_id();
        ctx_.trace_id = saved_.trace_id != 0 ? saved_.trace_id : ctx_.span_id;
        tl_current = ctx_;
        start_ns_ = tracer::now_ns();
        live_ = true;
    }
    if (count) {
        counters_ = pmu::read_current();
        if (counters_->ok) site_ = pmu::detail::intern_site(name);
    }
}

void span::close() noexcept {
    // Innermost first: the PMU delta excludes the tracer's emit, and the
    // span closes before the histogram observation.
    if (site_) pmu::detail::scope_end(site_, *counters_);
    if (live_) {
        const std::uint64_t now = tracer::now_ns();
        tracer::emit(name_, kind_, ctx_, parent_, start_ns_,
                     now > start_ns_ ? now - start_ns_ : 0);
        tl_current = saved_;
        live_ = false;
    }
    if (hist_)
        hist_.observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
}

void name_thread(const std::string& name) {
    thread_entry* e = detail::this_thread();
    if (!e) return;
    try {
        std::lock_guard<std::mutex> lock(detail::threads().mutex);
        e->name = name;
    } catch (...) {
        // Out of memory for the name: the thread stays unnamed.
    }
}

void context_scope::adopt(span_context parent) noexcept {
    saved_ = tl_current;
    tl_current = parent;
    live_ = true;
}

void context_scope::restore() noexcept {
    tl_current = saved_;
    live_ = false;
}

void trace_log::enable(std::string path) {
    file_sink& s = sink();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.path = std::move(path);
    }
    tracer::enable();
}

bool trace_log::enabled() noexcept { return tracer::enabled(); }

bool trace_log::flush() {
    file_sink& s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.write_locked();
}

void trace_log::reset() {
    file_sink& s = sink();
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.path.clear();
    }
    tracer::reset();
}

}  // namespace v6::obs
