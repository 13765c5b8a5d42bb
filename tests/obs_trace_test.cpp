// Tests for the execution tracer (per-thread span rings, cross-thread
// context propagation through the v6::par pool), the one thread
// registry behind name_thread(), and the sampling self-profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "v6class/obs/introspect.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/profile.h"
#include "v6class/obs/trace.h"
#include "v6class/par/pool.h"

namespace {

using namespace v6;
using v6::testing::json_checker;

class ObsTracerTest : public ::testing::Test {
protected:
    void SetUp() override { obs::tracer::reset(); }
    void TearDown() override {
        obs::tracer::reset();
        par::set_default_threads(0);
    }
};

TEST_F(ObsTracerTest, DisabledSpansAreNoOps) {
    ASSERT_FALSE(obs::tracer::enabled());
    {
        const obs::span outer("outer");
        EXPECT_EQ(outer.context().span_id, 0u);  // never started
        const obs::span inner("inner");
        EXPECT_EQ(obs::tracer::current().span_id, 0u);
    }
    EXPECT_TRUE(obs::tracer::snapshot().empty());
    EXPECT_EQ(obs::tracer::dropped(), 0u);
}

TEST_F(ObsTracerTest, NestedSpansParentOnOneThread) {
    obs::tracer::enable();
    std::uint64_t outer_id = 0, trace_id = 0;
    {
        const obs::span outer("outer");
        outer_id = outer.context().span_id;
        trace_id = outer.context().trace_id;
        EXPECT_NE(outer_id, 0u);
        EXPECT_EQ(trace_id, outer_id);  // root: trace_id = own span id
        const obs::span inner("inner");
        EXPECT_EQ(inner.context().trace_id, trace_id);
        EXPECT_EQ(obs::tracer::current().span_id, inner.context().span_id);
    }
    EXPECT_EQ(obs::tracer::current().span_id, 0u);

    const auto spans = obs::tracer::snapshot();
    ASSERT_EQ(spans.size(), 2u);  // inner emitted first (closes first)
    EXPECT_STREQ(spans[0].name, "outer");  // sorted by start time
    EXPECT_STREQ(spans[1].name, "inner");
    EXPECT_EQ(spans[1].parent_id, outer_id);
    EXPECT_EQ(spans[0].parent_id, 0u);
    EXPECT_EQ(spans[0].trace_id, trace_id);
    EXPECT_EQ(spans[1].trace_id, trace_id);
}

TEST_F(ObsTracerTest, SpanParentChildAcrossParFanOut) {
    obs::tracer::enable();
    par::set_default_threads(4);
    std::uint64_t root_id = 0, trace_id = 0;
    {
        const obs::span root("root");
        root_id = root.context().span_id;
        trace_id = root.context().trace_id;
        par::run_indexed(8, [](std::size_t) {
            const obs::span mid("mid");
            // Nested fan-out runs inline on the same thread, so leaf
            // spans parent to this task's mid span.
            par::run_indexed(2, [](std::size_t) { const obs::span leaf("leaf"); });
        });
    }

    const auto spans = obs::tracer::snapshot();
    std::vector<std::uint64_t> task_ids, mid_ids;
    std::size_t queue_waits = 0, leaves = 0;
    for (const auto& s : spans) {
        if (std::string(s.name) == "par.task") {
            EXPECT_EQ(s.trace_id, trace_id);
            EXPECT_EQ(s.parent_id, root_id);
            EXPECT_EQ(s.kind, obs::span_kind::run);
            task_ids.push_back(s.span_id);
        } else if (std::string(s.name) == "par.queue_wait") {
            EXPECT_EQ(s.trace_id, trace_id);
            EXPECT_EQ(s.parent_id, root_id);
            EXPECT_EQ(s.kind, obs::span_kind::queue_wait);
            ++queue_waits;
        } else if (std::string(s.name) == "mid") {
            EXPECT_EQ(s.trace_id, trace_id);
            mid_ids.push_back(s.parent_id);  // must be some par.task id
        } else if (std::string(s.name) == "leaf") {
            EXPECT_EQ(s.trace_id, trace_id);
            ++leaves;
        }
    }
    EXPECT_EQ(task_ids.size(), 8u);
    EXPECT_EQ(mid_ids.size(), 8u);
    EXPECT_EQ(leaves, 16u);
    // The submitting thread participates and always claims at least one
    // task, so at least one queue_wait span exists.
    EXPECT_GE(queue_waits, 1u);
    for (const std::uint64_t parent : mid_ids)
        EXPECT_NE(std::find(task_ids.begin(), task_ids.end(), parent),
                  task_ids.end());
}

TEST_F(ObsTracerTest, ContextScopeAdoptsForeignContext) {
    obs::tracer::enable();
    const obs::span root("root");
    const obs::span_context ctx = root.context();
    std::thread t([ctx] {
        const obs::context_scope adopt(ctx);
        const obs::span child("remote_child");
    });
    t.join();
    bool found = false;
    for (const auto& s : obs::tracer::snapshot()) {
        if (std::string(s.name) != "remote_child") continue;
        found = true;
        EXPECT_EQ(s.trace_id, ctx.trace_id);
        EXPECT_EQ(s.parent_id, ctx.span_id);
    }
    EXPECT_TRUE(found);
}

TEST_F(ObsTracerTest, RingWraparoundCountsDropped) {
    obs::tracer::enable();
    const std::size_t extra = 100;
    for (std::size_t i = 0; i < obs::tracer::ring_capacity + extra; ++i)
        obs::tracer::emit("wrap", obs::span_kind::run,
                          {0, obs::tracer::next_id()}, 0, i, 1);
    EXPECT_GE(obs::tracer::dropped(), extra);
    EXPECT_LE(obs::tracer::snapshot().size(), obs::tracer::ring_capacity);
    obs::tracer::reset();
    EXPECT_EQ(obs::tracer::dropped(), 0u);
    EXPECT_TRUE(obs::tracer::snapshot().empty());
}

TEST_F(ObsTracerTest, DroppedSpansAreExportedAsACounter) {
    obs::tracer::enable();
    const std::size_t extra = 37;  // wraps this thread's ring
    for (std::size_t i = 0; i < obs::tracer::ring_capacity + extra; ++i)
        obs::tracer::emit("wrap", obs::span_kind::run,
                          {0, obs::tracer::next_id()}, 0, i, 1);
    const std::uint64_t dropped = obs::tracer::dropped();
    ASSERT_EQ(dropped, extra);

    obs::registry reg;
    obs::update_process_gauges(reg);
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("# TYPE v6_trace_dropped_spans_total counter\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\nv6_trace_dropped_spans_total " +
                        std::to_string(dropped) + "\n"),
              std::string::npos)
        << text;

    // A later sample follows the running total; it never moves back.
    obs::tracer::emit("wrap", obs::span_kind::run,
                      {0, obs::tracer::next_id()}, 0, 0, 1);
    obs::update_process_gauges(reg);
    EXPECT_EQ(reg.get_counter("v6_trace_dropped_spans_total").value(),
              dropped + 1);
    obs::tracer::reset();
    obs::update_process_gauges(reg);
    EXPECT_EQ(reg.get_counter("v6_trace_dropped_spans_total").value(),
              dropped + 1);
}

TEST_F(ObsTracerTest, ConcurrentEmitAndSnapshot) {
    obs::tracer::enable();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([w] {
            for (int i = 0; i < 20000; ++i) {
                const obs::span s(w % 2 ? "writer_odd" : "writer_even");
            }
        });
    }
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto spans = obs::tracer::snapshot();
            for (const auto& s : spans) {
                // A torn read would show as a wild pointer; touching the
                // name under ASan/TSan is the real assertion here.
                ASSERT_NE(s.name, nullptr);
            }
        }
    });
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_TRUE(json_checker::valid(obs::tracer::chrome_json()));
}

TEST_F(ObsTracerTest, ChromeJsonShapeAndThreadNames) {
    obs::tracer::enable();
    obs::name_thread("trace-test-main");
    {
        const obs::span s("alpha", {}, obs::span_kind::merge);
    }
    const std::string json = obs::tracer::chrome_json();
    EXPECT_TRUE(json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("trace-test-main"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"merge\""), std::string::npos);  // the category
}

TEST_F(ObsTracerTest, EmitWhileDisabledIsDiscarded) {
    obs::tracer::emit("ghost", obs::span_kind::run, {0, 1}, 0, 0, 1);
    EXPECT_TRUE(obs::tracer::snapshot().empty());
}

TEST(ObsProfilerTest, StartSamplesAndStops) {
    if (!obs::profiler::start(500)) GTEST_SKIP() << "profiler unsupported";
    // Busy work until at least one SIGPROF sample lands (bounded wait).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<std::uint64_t> sink{0};
    while (obs::profiler::sample_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 100000; ++i)
            sink.fetch_add(static_cast<std::uint64_t>(i),
                           std::memory_order_relaxed);
    }
    obs::profiler::stop();
    EXPECT_FALSE(obs::profiler::running());
    obs::profiler::stop();  // idempotent
    ASSERT_GE(obs::profiler::sample_count(), 1u);
    const std::string folded = obs::profiler::folded_text();
    ASSERT_FALSE(folded.empty());
    // Folded lines are "thread;frame;... count"; the calling thread was
    // registered as "main" by start().
    EXPECT_NE(folded.find("main"), std::string::npos);
    EXPECT_NE(folded.find(' '), std::string::npos);
}

/// Spins until `done` holds or `seconds` pass, so SIGPROF samples land
/// on the calling thread.
template <class Done>
void spin_until(Done done, int seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    std::atomic<std::uint64_t> sink{0};
    while (!done() && std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 100000; ++i)
            sink.fetch_add(static_cast<std::uint64_t>(i),
                           std::memory_order_relaxed);
    }
}

TEST(ObsProfilerTest, OneNamingCallNamesTraceAndProfile) {
    obs::tracer::reset();
    obs::tracer::enable();
    obs::name_thread("obs-named-thread");
    { const obs::span s("named_work"); }
    const std::string json = obs::tracer::chrome_json();
    EXPECT_TRUE(json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"obs-named-thread\""), std::string::npos) << json;
    obs::tracer::reset();

    if (!obs::profiler::start(500)) GTEST_SKIP() << "profiler unsupported";
    spin_until([] { return obs::profiler::sample_count() > 0; }, 10);
    obs::profiler::stop();
    ASSERT_GE(obs::profiler::sample_count(), 1u);
    // start() keeps the registered name instead of calling the thread
    // "main": profiler stacks carry the one name the thread was given.
    const std::string folded = "\n" + obs::profiler::folded_text();
    EXPECT_NE(folded.find("\nobs-named-thread;"), std::string::npos) << folded;
    EXPECT_EQ(folded.find("\nmain;"), std::string::npos) << folded;
}

TEST(ObsProfilerTest, DroppedSamplesAreExportedAsACounter) {
    // A high rate fills this thread's buffer within a second or so; the
    // samples past samples_per_thread are dropped, not recorded.
    if (!obs::profiler::start(20000)) GTEST_SKIP() << "profiler unsupported";
    spin_until([] { return obs::profiler::dropped() > 0; }, 60);
    obs::profiler::stop();
    const std::uint64_t dropped = obs::profiler::dropped();
    ASSERT_GE(dropped, 1u);
    EXPECT_GE(obs::profiler::sample_count(),
              obs::profiler::samples_per_thread);

    obs::registry reg;
    obs::update_process_gauges(reg);
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("# TYPE v6_profile_dropped_samples_total counter\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\nv6_profile_dropped_samples_total " +
                        std::to_string(dropped) + "\n"),
              std::string::npos)
        << text;

    // A fresh run restarts the profiler's count; the exported counter
    // never moves back.
    ASSERT_TRUE(obs::profiler::start(97));
    obs::profiler::stop();
    EXPECT_LT(obs::profiler::dropped(), dropped);
    obs::update_process_gauges(reg);
    EXPECT_EQ(reg.get_counter("v6_profile_dropped_samples_total").value(),
              dropped);
}

TEST(ObsProfilerTest, SecondStartWhileRunningFails) {
    if (!obs::profiler::start(101)) GTEST_SKIP() << "profiler unsupported";
    EXPECT_TRUE(obs::profiler::running());
    EXPECT_FALSE(obs::profiler::start(101));
    obs::profiler::stop();
}

}  // namespace
