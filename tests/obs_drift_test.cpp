// Tests of the drift-detection stack: the ring history, the EWMA
// z-score detector's fire-once discipline, the structured event log
// (JSON-lines validity, retention, atomic dump), the atomic file
// writer, and the dashboard renderer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.h"
#include "v6class/obs/atomic_file.h"
#include "v6class/obs/dashboard.h"
#include "v6class/obs/drift.h"
#include "v6class/obs/event_log.h"

namespace {

using namespace v6;

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ------------------------------------------------------------ ring_history

TEST(RingHistoryTest, FillsThenWrapsOldestFirst) {
    obs::ring_history ring(4);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.back(), 0.0);
    for (double v : {1.0, 2.0, 3.0}) ring.push(v);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.at(0), 1.0);
    EXPECT_EQ(ring.back(), 3.0);
    for (double v : {4.0, 5.0, 6.0}) ring.push(v);  // overwrites 1 and 2
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.total(), 6u);
    EXPECT_EQ(ring.values(), (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
    EXPECT_EQ(ring.back(), 6.0);
}

TEST(RingHistoryTest, ZeroCapacityIsClampedToOne) {
    obs::ring_history ring(0);
    ring.push(1.0);
    ring.push(2.0);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.back(), 2.0);
}

// ------------------------------------------------------------ ewma_detector

TEST(EwmaDetectorTest, StepChangeFiresExactlyOnce) {
    obs::ewma_detector det;
    // Settle at one level (with a little noise so sigma is honest)...
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(det.update(10.0 + 0.1 * (i % 3)).has_value()) << i;
    // ...then step to a new level: the first post-step sample alarms...
    const auto alarm = det.update(20.0);
    ASSERT_TRUE(alarm.has_value());
    EXPECT_NEAR(alarm->mean, 10.0, 0.5);
    EXPECT_EQ(alarm->value, 20.0);
    EXPECT_GT(alarm->z, det.options().z_threshold);
    // ...and the re-baselined detector accepts the new normal without
    // flapping: no further alarms while the series stays there.
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(det.update(20.0 + 0.1 * (i % 3)).has_value()) << i;
}

TEST(EwmaDetectorTest, WarmupNeverAlarms) {
    obs::drift_options opt;
    opt.min_samples = 5;
    obs::ewma_detector det(opt);
    // Wild swings inside the warm-up window are learning material, not
    // alarms.
    for (double v : {1.0, 100.0, 1.0, 100.0}) EXPECT_FALSE(det.update(v));
}

TEST(EwmaDetectorTest, FlatSeriesTolerates2PercentWiggle) {
    obs::ewma_detector det;  // rel_sigma = 0.02 floors sigma at 2% of mean
    for (int i = 0; i < 20; ++i) EXPECT_FALSE(det.update(1000.0));
    // A perfectly flat history would have sigma = 0 and infinite z; the
    // relative floor keeps a small wiggle unalarmed...
    EXPECT_FALSE(det.update(1030.0).has_value());
    // ...while a genuine jump still fires.
    EXPECT_TRUE(det.update(1200.0).has_value());
}

TEST(EwmaDetectorTest, SecondStepFiresAgainAfterRebaseline) {
    obs::ewma_detector det;
    for (int i = 0; i < 20; ++i) det.update(10.0 + 0.1 * (i % 2));
    ASSERT_TRUE(det.update(30.0).has_value());
    // Warm up at the new level, then step again: a distinct alarm.
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(det.update(30.0 + 0.1 * (i % 2)).has_value());
    EXPECT_TRUE(det.update(90.0).has_value());
}

// ------------------------------------------------------------ event_log

TEST(EventLogTest, StampsSequenceAndTime) {
    obs::event_log log;
    log.log(obs::event_level::info, "lifecycle", "started");
    log.log(obs::event_level::warn, "drift", "gamma16 shifted",
            {{"day", obs::event_field_number(12)},
             {"series", obs::event_field_string("gamma16@48")}});
    EXPECT_EQ(log.total(), 2u);
    const std::vector<obs::event> recent = log.recent(10);
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_EQ(recent[0].seq, 1u);
    EXPECT_EQ(recent[1].seq, 2u);
    EXPECT_GT(recent[0].unix_time, 1.0e9);  // a plausible wall clock
    EXPECT_EQ(recent[1].kind, "drift");
    EXPECT_EQ(recent[1].level, obs::event_level::warn);
}

TEST(EventLogTest, JsonLinesAreValidJson) {
    obs::event_log log;
    log.log(obs::event_level::error, "io", "write \"failed\"\n",
            {{"path", obs::event_field_string("/tmp/x \"y\"")},
             {"errno", obs::event_field_number(28)}});
    const std::string lines = log.json_lines();
    std::istringstream in(lines);
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(v6::testing::json_checker::valid(line)) << line;
        ++count;
    }
    EXPECT_EQ(count, 1u);
    EXPECT_NE(lines.find("\"level\":\"error\""), std::string::npos);
    EXPECT_NE(lines.find("\"errno\":28"), std::string::npos);
}

TEST(EventLogTest, ControlCharactersAreEscapedInJson) {
    obs::event e;
    e.kind = "k\t\r\x01";
    e.message = "a\tb\rc\x01";
    e.fields = {{"f\t\r\x01", obs::event_field_string("v\t\r\x01")}};
    const std::string json = obs::event_json(e);
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"a\\tb\\rc\\u0001\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"k\\t\\r\\u0001\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"f\\t\\r\\u0001\":\"v\\t\\r\\u0001\""),
              std::string::npos)
        << json;
}

TEST(EventLogTest, RetentionDropsOldestButCountsAll) {
    obs::event_log log(3);
    for (int i = 0; i < 10; ++i)
        log.log(obs::event_level::info, "tick", std::to_string(i));
    EXPECT_EQ(log.total(), 10u);
    const std::vector<obs::event> recent = log.recent(100);
    ASSERT_EQ(recent.size(), 3u);
    EXPECT_EQ(recent.front().message, "7");  // oldest retained
    EXPECT_EQ(recent.back().message, "9");
    EXPECT_EQ(recent.back().seq, 10u);
}

TEST(EventLogTest, DumpWritesJsonLinesAtomically) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "v6_events_test.jsonl")
            .string();
    obs::event_log log;
    log.log(obs::event_level::warn, "drift", "shift");
    ASSERT_TRUE(log.dump(path));
    const std::string content = read_file(path);
    EXPECT_NE(content.find("\"kind\":\"drift\""), std::string::npos);
    // No tmp sibling left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(EventLogTest, GlobalIsASingleton) {
    EXPECT_EQ(&obs::event_log::global(), &obs::event_log::global());
}

TEST(EventLogTest, SinceReturnsOnlyNewerEventsOldestFirst) {
    obs::event_log log;
    for (int i = 0; i < 5; ++i)
        log.log(obs::event_level::info, "tick", std::to_string(i));
    const auto tail = log.since(3);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].seq, 4u);
    EXPECT_EQ(tail[1].seq, 5u);
    EXPECT_TRUE(log.since(5).empty());
    EXPECT_EQ(log.since(0).size(), 5u);
}

TEST(EventLogTest, StreamingFileGetsRetainedBacklogThenAppends) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "v6_events_stream.jsonl")
            .string();
    std::remove(path.c_str());
    obs::event_log log;
    log.log(obs::event_level::info, "early", "before streaming");
    ASSERT_TRUE(log.enable_file(path, 1u << 20));
    EXPECT_TRUE(log.file_enabled());
    log.log(obs::event_level::warn, "late", "after streaming");

    std::istringstream in(read_file(path));
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);  // backlog replayed, then live append
    EXPECT_NE(lines[0].find("\"kind\":\"early\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"kind\":\"late\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(EventLogTest, StreamingFileRotatesAtTheCapAndCountsIt) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "v6_events_rot.jsonl")
            .string();
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    obs::registry reg;
    obs::event_log log;
    ASSERT_TRUE(log.enable_file(path, 256, &reg));  // tiny cap
    for (int i = 0; i < 40; ++i)
        log.log(obs::event_level::info, "tick",
                "event number " + std::to_string(i));

    EXPECT_TRUE(std::filesystem::exists(path + ".1"));  // one generation kept
    EXPECT_LE(std::filesystem::file_size(path + ".1"), 512u);
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6class_event_log_rotations_total"),
              std::string::npos)
        << text;
    // Every line in both generations is still whole JSON.
    for (const std::string& p : {path, path + ".1"}) {
        std::istringstream in(read_file(p));
        std::string line;
        while (std::getline(in, line))
            EXPECT_TRUE(v6::testing::json_checker::valid(line)) << line;
    }
    // The in-memory view is unaffected by rotation.
    EXPECT_EQ(log.total(), 40u);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(EventLogTest, StreamingHealthIsExportedAsMetrics) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "v6_events_gauge.jsonl")
            .string();
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    obs::registry reg;
    obs::event_log log;
    EXPECT_EQ(log.rotations(), 0u);
    EXPECT_EQ(log.file_bytes(), 0u);  // no streaming file yet

    ASSERT_TRUE(log.enable_file(path, 256, &reg));
    log.log(obs::event_level::info, "tick", "one event");
    EXPECT_GT(log.file_bytes(), 0u);
    EXPECT_EQ(log.file_bytes(), std::filesystem::file_size(path));

    // The accessors are mirrored into the registry, so a /metrics
    // scrape can watch the sink without filesystem access: the current
    // file size as a gauge, rotations as a counter.
    std::string text = reg.prometheus_text();
    const std::string want_gauge =
        "v6class_event_log_file_bytes " + std::to_string(log.file_bytes());
    EXPECT_NE(text.find(want_gauge), std::string::npos) << text;

    for (int i = 0; i < 40; ++i)
        log.log(obs::event_level::info, "tick",
                "event number " + std::to_string(i));
    ASSERT_GT(log.rotations(), 0u);
    text = reg.prometheus_text();
    EXPECT_NE(text.find("v6class_event_log_rotations_total " +
                        std::to_string(log.rotations())),
              std::string::npos)
        << text;
    // After a rotation the gauge tracks the fresh file, not the total
    // ever written.
    EXPECT_EQ(log.file_bytes(), std::filesystem::file_size(path));
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

// ------------------------------------------------------------ atomic_file

TEST(AtomicFileTest, WritesAndReplacesWholeFiles) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "v6_atomic_test.txt")
            .string();
    ASSERT_TRUE(obs::atomic_write_file(path, "first\n"));
    EXPECT_EQ(read_file(path), "first\n");
    ASSERT_TRUE(obs::atomic_write_file(path, "second\n"));
    EXPECT_EQ(read_file(path), "second\n");
    std::remove(path.c_str());
}

TEST(AtomicFileTest, FailsCleanlyOnUnwritableDirectory) {
    EXPECT_FALSE(obs::atomic_write_file("/nonexistent-dir/x/y.txt", "data"));
}

// ------------------------------------------------------------ dashboard

TEST(DashboardTest, SparklineIsInlineSvg) {
    const std::string svg = obs::svg_sparkline({1.0, 3.0, 2.0, 5.0}, 120, 28);
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("polyline"), std::string::npos);
    EXPECT_EQ(svg.find("http"), std::string::npos);  // self-contained
}

TEST(DashboardTest, FlatAndEmptySeriesStillRender) {
    EXPECT_NE(obs::svg_sparkline({}, 120, 28).find("<svg"), std::string::npos);
    EXPECT_NE(obs::svg_sparkline({7.0}, 120, 28).find("<svg"),
              std::string::npos);
    EXPECT_NE(obs::svg_sparkline({4.0, 4.0, 4.0}, 120, 28).find("polyline"),
              std::string::npos);
}

TEST(DashboardTest, RendersModelWithSeriesStatsAndEvents) {
    obs::dashboard_model model;
    model.title = "v6stream live";
    model.status = "serving";
    model.uptime_seconds = 3725;  // 1h 2m 5s
    model.stats = {{"records", "10400"}, {"epoch", "12"}};
    model.series.push_back(
        {"gamma16@48", "MRA ratio", 3.4, {3.0, 3.2, 3.4}, false});
    model.series.push_back(
        {"stable_fraction", "nd-stable share", 0.61, {0.6, 0.61}, true});
    obs::event_log log;
    log.log(obs::event_level::warn, "drift", "stable_fraction shifted");
    model.events = log.recent(5);
    const std::string html = obs::render_dashboard(model);
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("v6stream live"), std::string::npos);
    EXPECT_NE(html.find("gamma16@48"), std::string::npos);
    EXPECT_NE(html.find("10400"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("stable_fraction shifted"), std::string::npos);
    // Self-contained: no external scripts, stylesheets, or images.
    EXPECT_EQ(html.find("src=\"http"), std::string::npos);
    EXPECT_EQ(html.find("href=\"http"), std::string::npos);
}

TEST(DashboardTest, EscapesHtmlInUserishStrings) {
    obs::dashboard_model model;
    model.title = "<script>alert(1)</script>";
    const std::string html = obs::render_dashboard(model);
    EXPECT_EQ(html.find("<script>alert"), std::string::npos);
    EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
}

TEST(DashboardTest, ValueFormattingKeepsIntegersIntegral) {
    EXPECT_EQ(obs::dashboard_value(12), "12");
    EXPECT_EQ(obs::dashboard_value(0.5), "0.5");
    const std::string big = obs::dashboard_value(1.0e6);
    EXPECT_NE(big.find("1"), std::string::npos);
}

}  // namespace
