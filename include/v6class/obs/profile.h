// profile.h — sampling self-profiler: a sampler thread periodically
// signals the threads of the obs thread registry (SIGPROF), whose
// handler captures a backtrace into a per-thread preallocated sample
// buffer; export collapses the samples into folded-stack text for
// flamegraph.pl or speedscope ("thread;frame;frame count" lines).
//
// A thread is sampled once it is in the registry: obs::name_thread()
// (trace.h; the pool and stream workers call it on startup) registers
// it and names its stacks, and start() registers the calling thread.
// The registry's thread-exit holder stops sampling a thread before its
// id can dangle. The handler is async-signal-safe: it calls only
// ::backtrace() (warmed at start()) and relaxed atomic stores into a
// fixed-size buffer; symbolization happens at export time on the
// reader.
//
// On platforms without <execinfo.h> the profiler compiles to no-ops
// (start() returns false) so callers need no #ifdefs.
#pragma once

#include <cstdint>
#include <string>

namespace v6::obs {

class profiler {
public:
    /// Deepest stack captured per sample; deeper frames are truncated.
    static constexpr int max_depth = 64;
    /// Samples each thread's buffer holds (~42 s at 97 Hz); once full,
    /// further samples on that thread are counted in dropped() instead
    /// of recorded (no wraparound — early samples are kept, which suits
    /// one-shot profile-a-run usage). Buffers are only allocated while
    /// a profile runs (~2 MB per registered thread).
    static constexpr std::size_t samples_per_thread = 4096;

    /// Starts sampling at `hz` samples/second/thread (default 97 — a
    /// prime, so sampling does not beat against periodic work). The
    /// calling thread is registered, named "main" unless it has a
    /// name. Returns false if profiling is unsupported on this platform
    /// or a profiler is already running.
    static bool start(unsigned hz = 97);

    /// Stops the sampler thread. Collected samples are kept for
    /// folded_text(). Safe to call when not running.
    static void stop();

    static bool running() noexcept;

    /// Total samples captured since the last start().
    static std::uint64_t sample_count() noexcept;

    /// Samples lost to full per-thread buffers since the last start()
    /// (exported as v6_profile_dropped_samples_total).
    static std::uint64_t dropped() noexcept;

    /// The collected samples as folded stacks: one
    /// "thread;outer;...;leaf count" line per distinct stack,
    /// symbolized via dladdr (hex addresses where no symbol is known).
    /// Empty when nothing was sampled.
    static std::string folded_text();
};

}  // namespace v6::obs
