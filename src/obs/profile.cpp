// profile.cpp — SIGPROF sampling profiler.
//
// Shape: one sampler thread wakes at the configured rate and
// pthread_kill()s every live thread of the obs thread registry
// (thread_registry.h); the SIGPROF handler runs on the signaled thread,
// walks its own stack with ::backtrace() into a stack-local array, and
// copies the frames into that thread's sample buffer with relaxed
// atomic stores (single writer per buffer — a thread's handler cannot
// race itself, SIGPROF does not nest).
//
// Sample buffers (~2 MB each) hang off the registry entries. start()
// allocates one for every live entry and publishes it through the
// entry's `armed` pointer; threads registering while a profile runs get
// theirs at registration. So pipelines that name their workers
// unconditionally pay nothing until a profile is actually requested.
//
// Safety invariants:
//  - ::backtrace() is warmed (called once) before the first signal, so
//    its lazy dynamic-linker initialization never runs in the handler.
//  - The handler finds its buffer through the entry's atomic `armed`
//    pointer (acquire, pairing with arm()'s release, so the buffer's
//    construction happens-before its first sample), which the
//    registry's thread-exit holder nulls FIRST, so a signal landing
//    during thread teardown drops the sample instead of touching
//    released state.
//  - The sampler only signals live entries while holding the registry
//    mutex; the exit holder marks its entry dead under the same mutex
//    before the thread exits, so pthread_kill never targets a joined
//    thread.
//  - Buffers are shared_ptr-held and stay on the (dead) entry at thread
//    exit, so folded_text() still sees samples from finished workers
//    under their name; the next start() drops them.
#include "v6class/obs/profile.h"

#include "thread_registry.h"

#if defined(__has_include)
#if __has_include(<execinfo.h>) && __has_include(<dlfcn.h>) && \
    __has_include(<pthread.h>)
#define V6CLASS_PROFILER_SUPPORTED 1
#endif
#endif

#ifndef V6CLASS_PROFILER_SUPPORTED
#define V6CLASS_PROFILER_SUPPORTED 0
#endif

#if V6CLASS_PROFILER_SUPPORTED
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cxxabi.h>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace v6::obs {

namespace detail {

struct sample_buffer {
    // Flat frame storage: sample k occupies pcs[k*max_depth ..]; head
    // published last (release) so the reader never sees a half-written
    // sample. No wraparound: once full, samples are counted as dropped
    // — early samples are kept, which suits one-shot profile-a-run use.
    std::vector<std::atomic<void*>> pcs;
    std::vector<std::atomic<std::uint16_t>> depths;
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> dropped{0};

    sample_buffer()
        : pcs(profiler::samples_per_thread * profiler::max_depth),
          depths(profiler::samples_per_thread) {}
};

}  // namespace detail

namespace {

using detail::sample_buffer;
using detail::thread_entry;

struct sampler_state {
    std::atomic<bool> running{false};
    std::thread thread;  // guarded by the registry mutex
};

sampler_state& sampler() {
    static auto* s = new sampler_state;  // leaked: see threads()
    return *s;
}

void prof_signal_handler(int, siginfo_t*, void*) {
    const thread_entry* e = detail::this_thread_if_registered();
    if (e == nullptr) return;
    sample_buffer* buf = e->armed.load(std::memory_order_acquire);
    if (buf == nullptr) return;
    const std::uint64_t h = buf->head.load(std::memory_order_relaxed);
    if (h >= profiler::samples_per_thread) {
        buf->dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    void* frames[profiler::max_depth];
    const int depth = ::backtrace(frames, profiler::max_depth);
    if (depth <= 0) return;
    std::atomic<void*>* slot = buf->pcs.data() + h * profiler::max_depth;
    for (int i = 0; i < depth; ++i)
        slot[i].store(frames[i], std::memory_order_relaxed);
    buf->depths[h].store(static_cast<std::uint16_t>(depth),
                         std::memory_order_relaxed);
    buf->head.store(h + 1, std::memory_order_release);
}

void sampler_loop(unsigned hz) {
    detail::thread_registry& r = detail::threads();
    const auto period =
        std::chrono::nanoseconds(1'000'000'000ull / std::max(1u, hz));
    while (sampler().running.load(std::memory_order_relaxed)) {
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            for (const thread_entry* e : r.entries)
                if (e->live && e->samples) pthread_kill(e->handle, SIGPROF);
        }
        std::this_thread::sleep_for(period);
    }
}

std::string frame_name(void* pc) {
    Dl_info info{};
    if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
        int status = 0;
        char* demangled =
            abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
        if (status == 0 && demangled != nullptr) {
            std::string out(demangled);
            std::free(demangled);
            return out;
        }
        return info.dli_sname;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(
                      reinterpret_cast<std::uintptr_t>(pc)));
    return buf;
}

/// Gives `e` an empty buffer and publishes it to the owning thread's
/// handler. Registry mutex held.
void arm(thread_entry& e) {
    if (!e.samples) e.samples = std::make_shared<sample_buffer>();
    e.samples->head.store(0, std::memory_order_relaxed);
    e.samples->dropped.store(0, std::memory_order_relaxed);
    e.armed.store(e.samples.get(), std::memory_order_release);
}

/// Sums `field` over every entry's buffer. Registry mutex taken.
std::uint64_t sum_buffers(std::atomic<std::uint64_t> sample_buffer::*field) {
    detail::thread_registry& r = detail::threads();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::uint64_t total = 0;
    for (const thread_entry* e : r.entries)
        if (e->samples)
            total += ((*e->samples).*field).load(std::memory_order_acquire);
    return total;
}

}  // namespace

void detail::arm_if_profiling(thread_entry& e) {
    if (sampler().running.load(std::memory_order_relaxed)) arm(e);
}

bool profiler::start(unsigned hz) {
    detail::thread_registry& r = detail::threads();
    sampler_state& st = sampler();
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (st.running.load(std::memory_order_relaxed)) return false;

        struct sigaction sa{};
        sa.sa_sigaction = prof_signal_handler;
        sa.sa_flags = SA_RESTART | SA_SIGINFO;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGPROF, &sa, nullptr) != 0) return false;

        // Warm ::backtrace outside the handler: its first call may
        // dlopen libgcc, which is not async-signal-safe.
        void* warm[4];
        ::backtrace(warm, 4);

        // Fresh run: drop samples of threads that exited since the last
        // run and arm every live thread. No signals are in flight here
        // (the old sampler was joined before running went true).
        for (thread_entry* e : r.entries) {
            if (e->live)
                arm(*e);
            else
                e->samples.reset();
        }
        // Exited threads without a trace ring have nothing left to keep.
        std::erase_if(r.entries, [](thread_entry* e) {
            if (e->live || e->ring) return false;
            delete e;
            return true;
        });

        st.running.store(true, std::memory_order_relaxed);
        st.thread = std::thread(sampler_loop, hz);
    }
    // The calling thread is sampled too (armed at registration if it
    // was not registered yet), as "main" unless it has a name.
    if (thread_entry* e = detail::this_thread()) {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (e->name.empty()) e->name = "main";
    }
    return true;
}

void profiler::stop() {
    sampler_state& st = sampler();
    std::thread thread;
    {
        std::lock_guard<std::mutex> lock(detail::threads().mutex);
        if (!st.running.load(std::memory_order_relaxed)) return;
        st.running.store(false, std::memory_order_relaxed);
        thread = std::move(st.thread);
    }
    if (thread.joinable()) thread.join();
}

bool profiler::running() noexcept {
    return sampler().running.load(std::memory_order_relaxed);
}

std::uint64_t profiler::sample_count() noexcept {
    return sum_buffers(&sample_buffer::head);
}

std::uint64_t profiler::dropped() noexcept {
    return sum_buffers(&sample_buffer::dropped);
}

std::string profiler::folded_text() {
    std::vector<std::shared_ptr<sample_buffer>> buffers;
    std::vector<std::string> names;
    {
        detail::thread_registry& r = detail::threads();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (const thread_entry* e : r.entries) {
            if (!e->samples) continue;
            buffers.push_back(e->samples);
            names.push_back(e->name);
        }
    }

    // Aggregate identical stacks, then symbolize each distinct pc once.
    std::map<std::pair<std::string, std::vector<void*>>, std::uint64_t> stacks;
    for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
        const auto& buf = buffers[bi];
        const std::uint64_t n = std::min<std::uint64_t>(
            buf->head.load(std::memory_order_acquire), samples_per_thread);
        for (std::uint64_t k = 0; k < n; ++k) {
            const int depth = buf->depths[k].load(std::memory_order_relaxed);
            const std::atomic<void*>* slot = buf->pcs.data() + k * max_depth;
            // Frames 0..1 are the handler and the kernel's signal
            // trampoline; drop them so stacks start at the interrupted
            // frame (best-effort — extra frames only widen the base).
            const int first = depth > 2 ? 2 : 0;
            std::vector<void*> stack;
            stack.reserve(static_cast<std::size_t>(depth - first));
            for (int i = depth - 1; i >= first; --i)  // outermost first
                stack.push_back(slot[i].load(std::memory_order_relaxed));
            ++stacks[{names[bi].empty() ? "thread" : names[bi],
                      std::move(stack)}];
        }
    }

    std::map<void*, std::string> symbols;
    std::string out;
    for (const auto& [key, count] : stacks) {
        out += key.first;
        for (void* pc : key.second) {
            auto it = symbols.find(pc);
            if (it == symbols.end())
                it = symbols.emplace(pc, frame_name(pc)).first;
            out += ';';
            // Folded format reserves ';' and ' ' as separators.
            for (char c : it->second) out += (c == ';' || c == ' ') ? '_' : c;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(count));
        out += buf;
    }
    return out;
}

}  // namespace v6::obs

#else  // !V6CLASS_PROFILER_SUPPORTED

namespace v6::obs {

void detail::arm_if_profiling(thread_entry&) {}
bool profiler::start(unsigned) { return false; }
void profiler::stop() {}
bool profiler::running() noexcept { return false; }
std::uint64_t profiler::sample_count() noexcept { return 0; }
std::uint64_t profiler::dropped() noexcept { return 0; }
std::string profiler::folded_text() { return {}; }

}  // namespace v6::obs

#endif
