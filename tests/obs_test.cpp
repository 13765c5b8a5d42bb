// Tests for the v6::obs metrics registry: handle semantics, exact
// concurrent counting, half-open histogram buckets, and both export
// formats (Prometheus text round-tripped through a line parser, JSON
// through the syntax checker).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/timer.h"

namespace {

using namespace v6;

TEST(ObsCounterTest, StartsAtZeroAndIncrements) {
    obs::registry reg;
    const obs::counter c = reg.get_counter("t_total");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounterTest, ReRegistrationReturnsTheSameSeries) {
    obs::registry reg;
    const obs::counter a = reg.get_counter("t_total");
    const obs::counter b = reg.get_counter("t_total");
    a.inc(3);
    b.inc(4);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsCounterTest, LabelVariantsAreDistinctSeries) {
    obs::registry reg;
    const obs::counter a = reg.get_counter("t_total", {{"shard", "0"}});
    const obs::counter b = reg.get_counter("t_total", {{"shard", "1"}});
    a.inc();
    EXPECT_EQ(a.value(), 1u);
    EXPECT_EQ(b.value(), 0u);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsCounterTest, ConcurrentIncrementsSumExactly) {
    obs::registry reg;
    const obs::counter c = reg.get_counter("t_total");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 100000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, SetAddAndHighWaterRatchet) {
    obs::registry reg;
    const obs::gauge g = reg.get_gauge("t_depth");
    g.set(5);
    EXPECT_EQ(g.value(), 5);
    g.add(-2);
    EXPECT_EQ(g.value(), 3);
    const obs::gauge hw = reg.get_gauge("t_high_water");
    hw.max_of(7);
    hw.max_of(3);  // lower value must not regress the mark
    EXPECT_EQ(hw.value(), 7);
    hw.max_of(11);
    EXPECT_EQ(hw.value(), 11);
}

TEST(ObsHistogramTest, BucketsAreHalfOpen) {
    obs::registry reg;
    const obs::histogram h =
        reg.get_histogram("t_seconds", {1.0, 2.0, 4.0});
    // Cell i covers [bounds[i-1], bounds[i]); an observation equal to a
    // bound belongs to the cell ABOVE it.
    h.observe(0.5);   // [-inf, 1)
    h.observe(1.0);   // [1, 2)
    h.observe(1.999); // [1, 2)
    h.observe(2.0);   // [2, 4)
    h.observe(4.0);   // [4, +inf) — the overflow cell
    h.observe(100.0);
    EXPECT_EQ(h.bucket_count(0), 1u);
    EXPECT_EQ(h.bucket_count(1), 2u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.bucket_count(3), 2u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.999 + 2.0 + 4.0 + 100.0);
}

TEST(ObsHistogramTest, ConcurrentObservationsKeepCountAndSumConsistent) {
    obs::registry reg;
    const obs::histogram h = reg.get_histogram("t_seconds", {0.5});
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i) h.observe(1.0);
        });
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
    EXPECT_EQ(h.bucket_count(1), h.count());  // all above the 0.5 bound
}

TEST(ObsHandleTest, NullHandlesAreSafeNoOps) {
    const obs::counter c;
    const obs::gauge g;
    const obs::histogram h;
    EXPECT_FALSE(static_cast<bool>(c));
    c.inc();
    g.set(5);
    g.max_of(9);
    h.observe(1.0);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(ObsScopeTest, SpanObservesOnceIntoTheHistogram) {
    obs::registry reg;
    const obs::histogram h = reg.get_histogram("t_seconds");
    {
        const obs::span span("t_phase", h);
        EXPECT_EQ(h.count(), 0u);  // observed at scope exit, not before
    }
    EXPECT_EQ(h.count(), 1u);  // exactly once
    EXPECT_GE(h.sum(), 0.0);   // the elapsed seconds
}

TEST(ObsScopeTest, NullHistogramSpanIsInert) {
    ASSERT_FALSE(obs::tracer::enabled());
    ASSERT_FALSE(obs::pmu::enabled());
    const obs::histogram null_hist;
    {
        const obs::span span("t_inert", null_hist);
        EXPECT_EQ(span.context().span_id, 0u);  // no tracer span opened
    }
    EXPECT_EQ(null_hist.count(), 0u);
    EXPECT_EQ(obs::pmu::site_totals("t_inert").spans, 0u);
}

// ---------------------------------------------------------------------
// Prometheus text round-trip: parse every line back and cross-check
// against the handles.

struct prom_sample {
    std::string name;
    std::string labels;  // raw text between {} (possibly empty)
    double value = 0.0;
};

/// Parses exposition text into samples; fails the test on any line that
/// is neither a comment nor "name[{labels}] value".
std::vector<prom_sample> parse_prometheus(const std::string& text) {
    std::vector<prom_sample> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
            continue;
        EXPECT_NE(line[0], '#') << "unknown comment: " << line;
        prom_sample s;
        std::size_t i = line.find_first_of("{ ");
        if (i == std::string::npos) {
            ADD_FAILURE() << "unparsable line: " << line;
            continue;
        }
        s.name = line.substr(0, i);
        if (line[i] == '{') {
            const std::size_t close = line.find('}', i);
            if (close == std::string::npos) {
                ADD_FAILURE() << "unclosed labels: " << line;
                continue;
            }
            s.labels = line.substr(i + 1, close - i - 1);
            i = close + 1;
        }
        if (i >= line.size() || line[i] != ' ') {
            ADD_FAILURE() << "missing value: " << line;
            continue;
        }
        std::size_t parsed = 0;
        s.value = std::stod(line.substr(i + 1), &parsed);
        EXPECT_EQ(i + 1 + parsed, line.size()) << "trailing junk: " << line;
        out.push_back(std::move(s));
    }
    return out;
}

TEST(ObsExportTest, PrometheusTextRoundTrips) {
    obs::registry reg;
    reg.get_counter("t_requests_total", {}, "Requests.").inc(7);
    reg.get_gauge("t_depth", {{"shard", "0"}}).set(-3);
    const obs::histogram h = reg.get_histogram("t_lat_seconds", {1.0, 2.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(9.0);

    const std::string text = reg.prometheus_text();
    const std::vector<prom_sample> samples = parse_prometheus(text);

    std::map<std::string, double> by_key;
    for (const prom_sample& s : samples)
        by_key[s.name + "{" + s.labels + "}"] = s.value;

    EXPECT_EQ(by_key.at("t_requests_total{}"), 7.0);
    EXPECT_EQ(by_key.at("t_depth{shard=\"0\"}"), -3.0);
    // Cumulative le buckets; the boundary observation 1.5 is < 2.
    EXPECT_EQ(by_key.at("t_lat_seconds_bucket{le=\"1\"}"), 1.0);
    EXPECT_EQ(by_key.at("t_lat_seconds_bucket{le=\"2\"}"), 2.0);
    EXPECT_EQ(by_key.at("t_lat_seconds_bucket{le=\"+Inf\"}"), 3.0);
    EXPECT_EQ(by_key.at("t_lat_seconds_sum{}"), 11.0);
    EXPECT_EQ(by_key.at("t_lat_seconds_count{}"), 3.0);

    // TYPE lines precede their series, once per metric name.
    EXPECT_NE(text.find("# TYPE t_requests_total counter"), std::string::npos);
    EXPECT_NE(text.find("# TYPE t_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE t_lat_seconds histogram"), std::string::npos);
    EXPECT_NE(text.find("# HELP t_requests_total Requests."),
              std::string::npos);
}

TEST(ObsExportTest, HistogramBucketsAreCumulativeAndNonDecreasing) {
    obs::registry reg;
    const obs::histogram h =
        reg.get_histogram("t_seconds", {0.001, 0.01, 0.1, 1.0});
    for (int i = 0; i < 100; ++i) h.observe(0.0001 * i * i);
    double last = 0.0;
    for (const prom_sample& s : parse_prometheus(reg.prometheus_text())) {
        if (s.name != "t_seconds_bucket") continue;
        EXPECT_GE(s.value, last) << "bucket regressed at le " << s.labels;
        last = s.value;
    }
    EXPECT_EQ(last, 100.0);  // +Inf bucket holds everything
}

TEST(ObsExportTest, LabelValuesAreEscaped) {
    obs::registry reg;
    reg.get_counter("t_total", {{"path", "a\"b\\c\nd"}}).inc();
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
    EXPECT_TRUE(v6::testing::json_checker::valid(reg.json_text()));
}

TEST(ObsExportTest, JsonEscapesControlCharactersInLabels) {
    obs::registry reg;
    reg.get_counter("t_total", {{"path", "x\ty"}}).inc();
    const std::string json = reg.json_text();
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"path\":\"x\\ty\""), std::string::npos) << json;
    // Prometheus text keeps its own escaping: only \\, \" and \n.
    EXPECT_NE(reg.prometheus_text().find("path=\"x\ty\""), std::string::npos);
}

TEST(ObsExportTest, JsonDumpIsWellFormedAndComplete) {
    obs::registry reg;
    reg.get_counter("t_requests_total").inc(3);
    reg.get_gauge("t_depth", {{"shard", "1"}}).set(9);
    reg.get_histogram("t_lat_seconds", {1.0}).observe(0.5);
    const std::string json = reg.json_text();
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"t_requests_total\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":3"), std::string::npos);
    EXPECT_NE(json.find("\"shard\":\"1\""), std::string::npos);
    EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
}

TEST(ObsExportTest, WriteFilePicksFormatBySuffix) {
    obs::registry reg;
    reg.get_counter("t_total").inc(5);
    namespace fs = std::filesystem;
    const fs::path prom = fs::temp_directory_path() / "v6class_obs_test.prom";
    const fs::path json = fs::temp_directory_path() / "v6class_obs_test.json";
    ASSERT_TRUE(reg.write_file(prom.string()));
    ASSERT_TRUE(reg.write_file(json.string()));
    std::stringstream pb, jb;
    pb << std::ifstream(prom).rdbuf();
    jb << std::ifstream(json).rdbuf();
    EXPECT_NE(pb.str().find("# TYPE t_total counter"), std::string::npos);
    EXPECT_TRUE(v6::testing::json_checker::valid(jb.str()));
    EXPECT_FALSE(reg.write_file("/nonexistent-dir/x.json"));
    fs::remove(prom);
    fs::remove(json);
}

TEST(ObsTraceTest, ScopesAreRecordedAndFlushedAsJson) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / "v6class_obs_trace.json";
    obs::trace_log::reset();
    EXPECT_FALSE(obs::trace_log::enabled());
    EXPECT_FALSE(obs::trace_log::flush());  // disabled: nothing to write
    obs::trace_log::enable(path.string());
    EXPECT_TRUE(obs::trace_log::enabled());
    { const obs::span span("unit_phase"); }
    ASSERT_TRUE(obs::trace_log::flush());
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    EXPECT_TRUE(v6::testing::json_checker::valid(buf.str())) << buf.str();
    EXPECT_NE(buf.str().find("\"unit_phase\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"ph\":\"X\""), std::string::npos);
    obs::trace_log::reset();
    fs::remove(path);
}

TEST(ObsRegistryTest, GlobalIsASingleton) {
    obs::registry& a = obs::registry::global();
    obs::registry& b = obs::registry::global();
    EXPECT_EQ(&a, &b);
}

TEST(ObsRegistryTest, ConcurrentRegistrationIsSafe) {
    obs::registry reg;
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t)
        workers.emplace_back([&reg, t] {
            for (int i = 0; i < 200; ++i) {
                // Half the names collide across threads, half are unique.
                const std::string name =
                    "t_total_" + std::to_string(i % 2 ? t : 0);
                reg.get_counter(name).inc();
            }
        });
    for (std::thread& w : workers) w.join();
    std::uint64_t total = 0;
    for (int t = 0; t < 8; ++t)
        total += reg.get_counter("t_total_" + std::to_string(t)).value();
    EXPECT_EQ(total, 8u * 200u);
}

}  // namespace
