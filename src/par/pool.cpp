#include "v6class/par/pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "v6class/obs/metrics.h"
#include "v6class/obs/trace.h"

namespace v6::par {

namespace {

std::atomic<unsigned> g_default_threads{0};  // 0 = hardware concurrency

// Set while a pool worker (or an inline nested run) is executing tasks;
// nested run_indexed calls detect it and run inline, so a parallel
// driver can call internally-parallel library code without deadlock.
thread_local bool tl_in_task = false;

// pool_stats inputs, kept as plain atomics (not registry handles) so
// stats() works even for callers that never touch the obs registry.
std::atomic<unsigned> g_workers{0};
std::atomic<unsigned> g_active{0};
std::atomic<std::uint64_t> g_busy_ns{0};

obs::counter& tasks_total() {
    static obs::counter c = obs::registry::global().get_counter(
        "v6_par_tasks_total", {},
        "Tasks executed through the v6::par work pool");
    return c;
}

obs::gauge& workers_gauge() {
    static obs::gauge g = obs::registry::global().get_gauge(
        "v6_par_pool_workers", {},
        "Persistent worker threads spawned by the v6::par pool");
    return g;
}

obs::gauge& active_gauge() {
    static obs::gauge g = obs::registry::global().get_gauge(
        "v6_par_active_seats", {},
        "Seats currently executing pool tasks (caller threads included)");
    return g;
}

std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// One fanned-out task set. Heap-held via shared_ptr so a worker that
/// wakes late and still holds a reference cannot dangle after the caller
/// returned (the caller only waits for *tasks* to finish, not for every
/// worker to drop its reference).
struct job {
    std::function<void(std::size_t)> fn;
    std::size_t n = 0;
    unsigned width = 1;                     // max participants, caller included
    std::atomic<std::size_t> cursor{0};     // next index to claim
    std::atomic<std::size_t> finished{0};   // tasks completed
    std::atomic<unsigned> participants{1};  // caller holds seat 0
    std::mutex mu;                          // guards error, pairs with done_cv
    std::condition_variable done_cv;
    std::exception_ptr error;
    // Trace context captured at submit: workers adopt it so their task
    // spans parent to the submitting span, and the gap from submit to a
    // participant's first claim is recorded as a queue_wait span.
    obs::span_context submit_ctx{};
    std::uint64_t submit_ns = 0;

    // Claims and runs tasks until the cursor runs out. Returns after
    // contributing; does not wait for other participants.
    void work() {
        tl_in_task = true;
        g_active.fetch_add(1, std::memory_order_relaxed);
        active_gauge().add(1);
        const std::uint64_t entered = steady_ns();
        bool first_claim = true;
        for (;;) {
            const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            if (first_claim && submit_ns != 0) {
                first_claim = false;
                // One queue_wait span per participant: submit → first
                // claim on this thread.
                const std::uint64_t now = obs::tracer::now_ns();
                obs::tracer::emit(
                    "par.queue_wait", obs::span_kind::queue_wait,
                    {submit_ctx.trace_id, obs::tracer::next_id()},
                    submit_ctx.span_id, submit_ns,
                    now > submit_ns ? now - submit_ns : 0);
            }
            {
                obs::context_scope adopt(submit_ctx);
                obs::span task_span("par.task");
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mu);
                    if (!error) error = std::current_exception();
                }
            }
            tasks_total().inc();
            const std::size_t done = finished.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (done == n) {
                std::lock_guard<std::mutex> lock(mu);  // order before notify
                done_cv.notify_all();
            }
        }
        g_busy_ns.fetch_add(steady_ns() - entered, std::memory_order_relaxed);
        active_gauge().add(-1);
        g_active.fetch_sub(1, std::memory_order_relaxed);
        tl_in_task = false;
    }
};

/// Persistent worker threads. Workers sleep on a condition variable and
/// wake per published job; the pool grows lazily to the widest request
/// seen (so --threads above the core count still exercises real
/// concurrency, e.g. under TSan).
class pool {
public:
    static pool& instance() {
        static pool p;
        return p;
    }

    void run(const std::shared_ptr<job>& j) {
        ensure_workers(j->width - 1);
        {
            std::lock_guard<std::mutex> lock(mu_);
            current_ = j;
            ++generation_;
        }
        cv_.notify_all();
        j->work();  // the caller is participant 0
        std::unique_lock<std::mutex> lock(j->mu);
        j->done_cv.wait(lock, [&] {
            return j->finished.load(std::memory_order_acquire) >= j->n;
        });
        {
            std::lock_guard<std::mutex> pl(mu_);
            if (current_ == j) current_.reset();
        }
    }

private:
    // Statics are destroyed in reverse order of construction. Touching
    // the handles here constructs registry::global() (and them) before
    // the pool finishes constructing, so the registry outlives the pool:
    // ~pool joins workers that may still be bumping these gauges.
    pool() {
        tasks_total();
        workers_gauge();
        active_gauge();
    }
    ~pool() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    void ensure_workers(unsigned want) {
        static constexpr unsigned kmax_workers = 64;
        want = std::min(want, kmax_workers);
        std::lock_guard<std::mutex> lock(mu_);
        while (workers_.size() < want) {
            const unsigned index = static_cast<unsigned>(workers_.size());
            workers_.emplace_back([this, index] { worker_loop(index); });
        }
        g_workers.store(static_cast<unsigned>(workers_.size()),
                        std::memory_order_relaxed);
        workers_gauge().set(static_cast<std::int64_t>(workers_.size()));
    }

    void worker_loop(unsigned index) {
        obs::name_thread("par-worker-" + std::to_string(index));
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<job> j;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
                if (stop_) return;
                seen = generation_;
                j = current_;
            }
            if (!j) continue;
            // Seats bound concurrency to the requested width without
            // tracking which threads work: late wakers find no seat.
            unsigned seat = j->participants.load(std::memory_order_relaxed);
            while (seat < j->width &&
                   !j->participants.compare_exchange_weak(
                       seat, seat + 1, std::memory_order_relaxed)) {
            }
            if (seat < j->width) j->work();
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::shared_ptr<job> current_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace

unsigned default_threads() noexcept {
    const unsigned v = g_default_threads.load(std::memory_order_relaxed);
    if (v > 0) return v;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void set_default_threads(unsigned n) noexcept {
    g_default_threads.store(n, std::memory_order_relaxed);
}

pool_stats stats() noexcept {
    pool_stats s;
    s.workers = g_workers.load(std::memory_order_relaxed);
    s.active = g_active.load(std::memory_order_relaxed);
    s.busy_ns = g_busy_ns.load(std::memory_order_relaxed);
    return s;
}

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                 unsigned threads) {
    if (n == 0) return;
    if (threads == 0) threads = default_threads();

    // Serial path: one thread requested, a single task, or we are already
    // inside a pool task (nested fan-out runs inline — workers must never
    // block waiting on other workers). Inline tasks run under the
    // caller's current span, so no context propagation is needed.
    if (threads <= 1 || n == 1 || tl_in_task) {
        const bool outer = tl_in_task;
        tl_in_task = true;
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!error) error = std::current_exception();
            }
            tasks_total().inc();
        }
        tl_in_task = outer;
        if (error) std::rethrow_exception(error);
        return;
    }

    auto j = std::make_shared<job>();
    j->fn = fn;
    j->n = n;
    j->width = static_cast<unsigned>(std::min<std::size_t>(threads, n));
    if (obs::tracer::enabled()) {
        j->submit_ctx = obs::tracer::current();
        j->submit_ns = obs::tracer::now_ns();
    }
    pool::instance().run(j);
    if (j->error) std::rethrow_exception(j->error);
}

}  // namespace v6::par
