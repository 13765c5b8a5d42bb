// Tests for v6::obs::pmu — the perf_event_open counter groups behind
// obs::span's site counting, /pmu, and the bench IPC counters. The box
// running the suite decides how much hardware there is (a locked-down
// perf_event_paranoid or a VM without a PMU degrades the probe to the
// software tier or to unavailable), so every test that needs live
// counters GTEST_SKIPs rather than fails when the tier is too low: the
// scaling math, the JSON/HTML shape, the export and HTTP plumbing, and
// the V6CLASS_DISABLE_PMU kill switch are still exercised everywhere.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "json_lite.h"
#include "v6class/obs/http.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/trace.h"

namespace {

using namespace v6;

/// Burns enough user-space cycles that any live counter must move.
std::uint64_t spin() {
    volatile std::uint64_t acc = 1;
    for (std::uint64_t i = 1; i < 2000000; ++i) acc = acc * 31 + i;
    return acc;
}

std::string http_get(std::uint16_t port, const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return "";
    }
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, request.data(), request.size(), 0);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

/// Every test starts from a clean slate (fresh probe, empty sites) and
/// leaves the global disabled so tests cannot observe each other.
class ObsPmuTest : public ::testing::Test {
protected:
    void SetUp() override {
        ::unsetenv("V6CLASS_DISABLE_PMU");
        obs::pmu::reset_for_test();
    }
    void TearDown() override {
        ::unsetenv("V6CLASS_DISABLE_PMU");
        obs::pmu::reset_for_test();
    }
};

// ---- multiplexing scale math: pure arithmetic, runs on any box ----

TEST_F(ObsPmuTest, ScaleValuePassthroughWhenNeverMultiplexed) {
    // enabled == running: the kernel scheduled the group the whole time.
    EXPECT_EQ(obs::pmu::scale_value(1000, 500, 500), 1000u);
    EXPECT_EQ(obs::pmu::scale_value(0, 123, 123), 0u);
}

TEST_F(ObsPmuTest, ScaleValueExtrapolatesMultiplexedWindows) {
    // Scheduled half the time -> the estimate doubles (rounded).
    EXPECT_EQ(obs::pmu::scale_value(1000, 1000, 500), 2000u);
    // Scheduled 3/4 of the time: 900 * 4/3 = 1200.
    EXPECT_EQ(obs::pmu::scale_value(900, 1000, 750), 1200u);
    // Rounding, not truncation: 10 * 3/2 = 15.
    EXPECT_EQ(obs::pmu::scale_value(10, 3, 2), 15u);
}

TEST_F(ObsPmuTest, ScaleValueNeverScheduledIsZeroOrRaw) {
    // Enabled but never scheduled: no basis to extrapolate -> 0.
    EXPECT_EQ(obs::pmu::scale_value(7, 1000, 0), 0u);
    // Never even enabled (both zero): the raw value passes through.
    EXPECT_EQ(obs::pmu::scale_value(7, 0, 0), 7u);
}

// ---- availability probe ----

TEST_F(ObsPmuTest, ProbeAlwaysExplainsItself) {
    const obs::pmu::availability& pa = obs::pmu::available();
    EXPECT_FALSE(pa.reason.empty());
    if (pa.hardware()) {
        EXPECT_EQ(pa.reason, "ok");
    }
    // The probe is cached: a second call returns the identical object.
    EXPECT_EQ(&pa, &obs::pmu::available());
}

TEST_F(ObsPmuTest, DisableEnvForcesUnavailableNoOp) {
    ::setenv("V6CLASS_DISABLE_PMU", "1", 1);
    obs::pmu::reset_for_test();
    const obs::pmu::availability& pa = obs::pmu::available();
    EXPECT_FALSE(pa.counting());
    EXPECT_NE(pa.reason.find("V6CLASS_DISABLE_PMU"), std::string::npos);
    obs::pmu::enable();  // must refuse: nothing to count
    EXPECT_FALSE(obs::pmu::enabled());
    {
        const obs::span scope("pmu_test.disabled");
        spin();
    }
    EXPECT_EQ(obs::pmu::site_totals("pmu_test.disabled").spans, 0u);
    EXPECT_FALSE(obs::pmu::read_current().ok);
    // The snapshot still renders (mode + reason), it just has no data.
    const std::string json = obs::pmu::snapshot_json();
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("unavailable"), std::string::npos);
}

TEST_F(ObsPmuTest, DisableEnvZeroMeansEnabled) {
    ::setenv("V6CLASS_DISABLE_PMU", "0", 1);
    obs::pmu::reset_for_test();
    // "0" is not a disable: the probe proceeds to the real tiers.
    EXPECT_EQ(obs::pmu::available().reason.find("V6CLASS_DISABLE_PMU"),
              std::string::npos);
}

// ---- live counting (skips where the probe found nothing) ----

TEST_F(ObsPmuTest, GroupReadIsSaneUnderLoad) {
    if (!obs::pmu::available().counting())
        GTEST_SKIP() << "pmu unavailable: " << obs::pmu::available().reason;
    obs::pmu::enable();
    const obs::pmu::sample a = obs::pmu::read_current();
    ASSERT_TRUE(a.ok);
    spin();
    const obs::pmu::sample b = obs::pmu::read_current();
    ASSERT_TRUE(b.ok);
    // task-clock rides in every tier and only moves forward; the spin
    // is milliseconds of pure user CPU, so it must have advanced.
    ASSERT_TRUE(b.has(obs::pmu::counter::task_clock_ns));
    EXPECT_GT(b[obs::pmu::counter::task_clock_ns],
              a[obs::pmu::counter::task_clock_ns]);
    EXPECT_GE(b.time_enabled, a.time_enabled);
    EXPECT_GE(b.time_running, a.time_running);
    if (obs::pmu::available().hardware()) {
        ASSERT_TRUE(b.has(obs::pmu::counter::instructions));
        EXPECT_GT(b.scaled(obs::pmu::counter::instructions),
                  a.scaled(obs::pmu::counter::instructions));
        EXPECT_GT(b.scaled(obs::pmu::counter::cycles), 0u);
    }
}

TEST_F(ObsPmuTest, ScopeDeltasAccumulateAtTheirSite) {
    if (!obs::pmu::available().counting())
        GTEST_SKIP() << "pmu unavailable: " << obs::pmu::available().reason;
    obs::pmu::enable();
    for (int i = 0; i < 3; ++i) {
        const obs::span scope("pmu_test.outer");
        spin();
        {  // nested scopes attribute to their own site, not the outer's
            const obs::span inner("pmu_test.inner");
            spin();
        }
    }
    const obs::pmu::site_stats outer = obs::pmu::site_totals("pmu_test.outer");
    const obs::pmu::site_stats inner = obs::pmu::site_totals("pmu_test.inner");
    EXPECT_EQ(outer.spans, 3u);
    EXPECT_EQ(inner.spans, 3u);
    using c = obs::pmu::counter;
    ASSERT_TRUE(outer.has(c::task_clock_ns));
    EXPECT_GT(outer[c::task_clock_ns], 0u);
    // The outer scope wraps the inner spin too, so it burned more CPU.
    EXPECT_GT(outer[c::task_clock_ns], inner[c::task_clock_ns]);
    if (obs::pmu::available().hardware()) {
        EXPECT_GT(outer.ipc(), 0.0);
        EXPECT_LT(outer.ipc(), 16.0);  // sane bound on any real core
    }
}

TEST_F(ObsPmuTest, ScopesAreFreeWhileDisabled) {
    if (!obs::pmu::available().counting())
        GTEST_SKIP() << "pmu unavailable: " << obs::pmu::available().reason;
    // Never enabled: scopes must not intern sites or touch counters.
    {
        const obs::span scope("pmu_test.never_enabled");
        spin();
    }
    EXPECT_EQ(obs::pmu::site_totals("pmu_test.never_enabled").spans, 0u);
}

TEST_F(ObsPmuTest, OneNamingCallNamesThePmuThread) {
    if (!obs::pmu::available().counting())
        GTEST_SKIP() << "pmu unavailable: " << obs::pmu::available().reason;
    obs::name_thread("pmu-named-thread");
    ASSERT_TRUE(obs::pmu::read_current().ok);  // opens this thread's group
    bool found = false;
    for (const obs::pmu::thread_sample& ts : obs::pmu::thread_snapshot())
        found = found || ts.name == "pmu-named-thread";
    EXPECT_TRUE(found);
    const std::string json = obs::pmu::snapshot_json();
    EXPECT_NE(json.find("\"pmu-named-thread\""), std::string::npos) << json;
}

TEST_F(ObsPmuTest, OneSpanFeedsHistogramTraceAndPmuSite) {
    obs::registry reg;
    const obs::histogram h = reg.get_histogram("pmu_test_span_seconds");
    const bool counting = obs::pmu::available().counting();
    obs::tracer::reset();
    obs::tracer::enable();
    obs::pmu::enable();  // no-op where the probe found nothing
    {
        const obs::span scope("pmu_test.one_scope", h);
        spin();
    }
    obs::pmu::disable();
    std::size_t records = 0;
    for (const obs::span_record& r : obs::tracer::snapshot())
        records += std::string(r.name) == "pmu_test.one_scope";
    obs::tracer::reset();
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.sum(), 0.0);
    EXPECT_EQ(records, 1u);
    if (!counting)
        GTEST_SKIP() << "pmu unavailable: " << obs::pmu::available().reason;
    const obs::pmu::site_stats site =
        obs::pmu::site_totals("pmu_test.one_scope");
    EXPECT_EQ(site.spans, 1u);
    EXPECT_TRUE(site.has(obs::pmu::counter::task_clock_ns));
}

// ---- snapshot, export, HTTP ----

TEST_F(ObsPmuTest, SnapshotJsonIsWellFormedAndHtmlRenders) {
    if (obs::pmu::available().counting()) {
        obs::pmu::enable();
        const obs::span scope("pmu_test.snapshot");
        spin();
    }
    const std::string json = obs::pmu::snapshot_json();
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"mode\""), std::string::npos);
    EXPECT_NE(json.find("\"reason\""), std::string::npos);
    EXPECT_NE(json.find("\"sites\""), std::string::npos);
    const std::string html = obs::pmu::topdown_html();
    EXPECT_NE(html.find("<html"), std::string::npos);
    EXPECT_NE(html.find("pmu"), std::string::npos);
}

TEST_F(ObsPmuTest, ExportGaugesPublishesAvailabilityAndSites) {
    obs::registry reg;
    if (obs::pmu::available().counting()) {
        obs::pmu::enable();
        const obs::span scope("pmu_test.export");
        spin();
    }
    obs::pmu::export_gauges(reg);
    const std::string text = reg.prometheus_text();
    // The availability gauge always exports, tier and reason as labels.
    EXPECT_NE(text.find("v6class_pmu_available"), std::string::npos);
    EXPECT_NE(text.find("mode="), std::string::npos);
    if (obs::pmu::available().counting()) {
        EXPECT_NE(text.find("v6class_pmu_site_spans"), std::string::npos);
        EXPECT_NE(text.find("pmu_test.export"), std::string::npos);
    }
}

TEST_F(ObsPmuTest, PmuEndpointServesJsonAndHtml) {
    obs::registry reg;
    obs::metrics_server server;
    std::string error;
    ASSERT_TRUE(server.start(0, &reg, &error)) << error;
    if (obs::pmu::available().counting()) {
        obs::pmu::enable();
        const obs::span scope("pmu_test.http");
        spin();
    }
    const std::string json_reply = http_get(server.port(), "/pmu");
    EXPECT_NE(json_reply.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(json_reply.find("application/json"), std::string::npos);
    const std::string body = json_reply.substr(json_reply.find("\r\n\r\n") + 4);
    EXPECT_TRUE(v6::testing::json_checker::valid(body)) << body;
    const std::string html_reply =
        http_get(server.port(), "/pmu?format=html");
    EXPECT_NE(html_reply.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(html_reply.find("text/html"), std::string::npos);
    EXPECT_NE(html_reply.find("<html"), std::string::npos);
    server.stop();
}

}  // namespace
