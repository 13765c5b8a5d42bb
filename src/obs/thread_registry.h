// thread_registry.h — the obs layer's one per-thread registry, shared
// by the tracer (trace.cpp), the PMU (pmu.cpp) and the profiler
// (profile.cpp). Internal to v6_obs.
//
// A thread gets one entry, on its first name_thread(), span emit,
// counter read or profiler registration. The entry holds the thread's
// name and number and the three per-thread resources, each created
// lazily by its subsystem: the trace ring, the perf counter group and
// the profiler's sample buffer.
//
// The registry is leaked (process lifetime), so pool workers that emit
// during static destruction still find it. One thread_local holder
// releases the entry at thread exit, in this order:
//   1. `armed` is nulled, so a SIGPROF landing during teardown drops
//      its sample instead of touching the buffer;
//   2. under the registry mutex the entry is marked dead (the sampler
//      signals only live entries, under the same mutex, so pthread_kill
//      never targets an exited thread) and its counter group unlinked;
//   3. the group is closed; the entry itself is kept while it holds a
//      ring or a sample buffer, so finished threads' spans and samples
//      stay exportable under their name. Entries holding neither are
//      freed.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace v6::obs::pmu {
struct thread_group;  // pmu.cpp
}  // namespace v6::obs::pmu

namespace v6::obs::detail {

struct thread_ring;    // trace.cpp
struct sample_buffer;  // profile.cpp

struct thread_entry {
    std::uint32_t tid = 0;  ///< process-unique thread number, from 1
    pthread_t handle{};
    // Guarded by the registry mutex.
    std::string name;
    bool live = true;
    std::shared_ptr<sample_buffer> samples;  ///< null until a profile runs
    // Written by the owning thread (published under the mutex), read
    // lock-free by the owner and under the mutex by exporters.
    thread_ring* ring = nullptr;  ///< never freed: outlives the thread
    pmu::thread_group* group = nullptr;  ///< closed at thread exit
    bool group_tried = false;     ///< owning thread only
    /// The SIGPROF handler's route to `samples`.
    std::atomic<sample_buffer*> armed{nullptr};
};

struct thread_registry {
    std::mutex mutex;
    std::vector<thread_entry*> entries;
};

thread_registry& threads();

/// The calling thread's entry, registered on first call. Null when
/// allocation fails or the thread is already exiting.
thread_entry* this_thread() noexcept;

/// The calling thread's entry if it has one; never registers, locks or
/// allocates, so the SIGPROF handler may call it.
thread_entry* this_thread_if_registered() noexcept;

/// Closes and frees a counter group (pmu.cpp).
void close_group(pmu::thread_group* g) noexcept;

/// Gives a newly registered entry a sample buffer when a profile is
/// running (profile.cpp). Registry mutex held.
void arm_if_profiling(thread_entry& e);

}  // namespace v6::obs::detail
