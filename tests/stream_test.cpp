// Tests for the streaming ingest engine and its parts: the bounded
// queue, the feed-record codec, shard sealing, and the engine's epoch /
// day-roll machinery (including ingest continuing while a seal is in
// flight).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "v6class/netgen/rng.h"
#include "v6class/obs/alert.h"
#include "v6class/obs/federate.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/sketch.h"
#include "v6class/obs/tsdb.h"
#include "v6class/simd/address_block.h"
#include "v6class/stream/bounded_queue.h"
#include "v6class/stream/engine.h"
#include "v6class/stream/shard.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

address nth(unsigned i) {
    return address::from_pair(0x20010db800000000ull + (i % 7), 0x9000u + i);
}

// ------------------------------------------------------------ bounded_queue

TEST(BoundedQueueTest, FifoOrder) {
    bounded_queue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
    bounded_queue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));
    EXPECT_FALSE(q.try_push(3));  // full
    q.pop();
    EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueueTest, ZeroCapacityClampedToOne) {
    bounded_queue<int> q(0);
    EXPECT_EQ(q.capacity(), 1u);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
    bounded_queue<int> q(4);
    q.push(1);
    q.push(2);
    q.close();
    EXPECT_FALSE(q.push(3));  // closed: push fails
    EXPECT_EQ(q.pop(), 1);    // but the backlog drains
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueueTest, FullPushBlocksUntilConsumerPops) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        q.push(2);  // blocks: capacity 1, queue full
        second_pushed = true;
    });
    // The producer must be parked, not spinning through a failed push.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(second_pushed);
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_TRUE(second_pushed);
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
}

// ------------------------------------------------------------ record codec

TEST(StreamRecordTest, ParsesDayAddressHits) {
    stream_record r;
    ASSERT_TRUE(parse_stream_record("365 2001:db8::1 42", r));
    EXPECT_EQ(r.day, 365);
    EXPECT_EQ(r.addr, address::must_parse("2001:db8::1"));
    EXPECT_EQ(r.hits, 42u);
}

TEST(StreamRecordTest, HitsDefaultToOne) {
    stream_record r;
    ASSERT_TRUE(parse_stream_record("7 ::1", r));
    EXPECT_EQ(r.hits, 1u);
}

TEST(StreamRecordTest, RejectsGarbage) {
    stream_record r;
    EXPECT_FALSE(parse_stream_record("", r));
    EXPECT_FALSE(parse_stream_record("2001:db8::1", r));      // no day
    EXPECT_FALSE(parse_stream_record("x 2001:db8::1", r));    // bad day
    EXPECT_FALSE(parse_stream_record("5 not-an-addr", r));    // bad addr
    EXPECT_FALSE(parse_stream_record("5 ::1 0", r));          // zero hits
    EXPECT_FALSE(parse_stream_record("5 ::1 3 junk", r));     // trailing
}

TEST(StreamRecordTest, RoundTripsThroughText) {
    const stream_record original{123, address::must_parse("2001:db8::abcd"), 9};
    std::ostringstream out;
    write_stream_record(out, original);
    stream_record parsed;
    std::string line = out.str();
    ASSERT_FALSE(line.empty());
    line.pop_back();  // strip '\n'
    ASSERT_TRUE(parse_stream_record(line, parsed));
    EXPECT_EQ(parsed, original);
}

TEST(StreamRecordTest, ReaderToleratesCommentsAndCountsErrors) {
    std::istringstream in(
        "# header\n"
        "\n"
        "1 2001:db8::1 2\n"
        "broken line\n"
        "2 2001:db8::2\n");
    std::vector<stream_record> seen;
    std::vector<std::uint64_t> lines, bad_lines;
    const read_report report = read_stream_records(
        in,
        [&](const stream_record& r, std::uint64_t line) {
            seen.push_back(r);
            lines.push_back(line);
            return true;
        },
        [&](const read_error& e) { bad_lines.push_back(e.line_number); });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(lines, (std::vector<std::uint64_t>{3, 5}));
    EXPECT_EQ(bad_lines, (std::vector<std::uint64_t>{4}));
    EXPECT_EQ(report.parsed, 2u);
    EXPECT_EQ(report.malformed, 1u);
    ASSERT_EQ(report.first_errors.size(), 1u);
    EXPECT_EQ(report.first_errors[0].line_number, 4u);
}

TEST(StreamRecordTest, ReaderStopsWhenSinkDeclines) {
    std::istringstream in(
        "1 2001:db8::1\n"
        "1 2001:db8::2\n"
        "1 2001:db8::3\n");
    std::size_t offered = 0;
    const read_report report = read_stream_records(
        in, [&](const stream_record&, std::uint64_t) { return ++offered < 2; });
    EXPECT_EQ(offered, 2u);
    EXPECT_EQ(report.lines, 2u) << "no line is read after a decline";
    EXPECT_EQ(report.parsed, 2u);
}

// --------------------------------------------------------------- sorted_run

// A merge hands out one slot per day key, in the day's order: the run's
// slot for a key it holds, the next free slot for a new key. The slot
// lane moves with the keys through the back merge, and fresh() is the
// last merge's new keys, sorted.
TEST(SortedRunTest, MergeSlotsFollowTheDayKeys) {
    const auto key = [](unsigned i) { return address::from_pair(0x20010db8ull << 32, i); };
    const auto block = [&](std::initializer_list<unsigned> ids) {
        simd::address_block b(0);
        for (const unsigned i : ids) b.push_back(key(i));
        return b;
    };
    // The run's keys and slots, in order.
    const auto contents = [](const sorted_run& run) {
        std::vector<std::pair<address, std::uint32_t>> out;
        for (std::size_t k = 0; k < run.size(); ++k) out.emplace_back(run.key(k), run.slot(k));
        return out;
    };
    using contents_t = std::vector<std::pair<address, std::uint32_t>>;
    sorted_run run;
    std::vector<std::uint32_t> slots = {42};  // appended to, not replaced
    run.merge(block({3, 7}), &slots);
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{42, 0, 1}));
    slots.clear();
    run.merge(block({1, 3, 5, 7, 9}), &slots);
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{2, 0, 3, 1, 4}));
    EXPECT_EQ(run.fresh().to_vector(), block({1, 5, 9}).to_vector());
    EXPECT_EQ(contents(run),
              (contents_t{{key(1), 2}, {key(3), 0}, {key(5), 3}, {key(7), 1}, {key(9), 4}}));
    // A day of known keys only adds nothing; an empty day clears fresh().
    slots.clear();
    run.merge(block({5, 9}), &slots);
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{3, 4}));
    EXPECT_TRUE(run.fresh().empty());
    run.merge(block({0}));
    EXPECT_EQ(run.fresh().size(), 1u);
    run.merge(block({}));
    EXPECT_TRUE(run.fresh().empty());
    EXPECT_EQ(run.size(), 6u);
    EXPECT_EQ(run.slot(0), 5u);
    // Slots and keys move together as the run grows past many pages.
    simd::address_block many(0);
    for (unsigned i = 100; i < 100000; ++i) many.push_back(key(i));
    run.merge(many);
    ASSERT_EQ(run.size(), 6u + 99900u);
    EXPECT_EQ(run.key(2), key(3));
    EXPECT_EQ(run.slot(2), 0u);
    EXPECT_EQ(run.key(run.size() - 1), key(99999));
    EXPECT_EQ(run.slot(run.size() - 1), 6u + 99899u);
}

// ------------------------------------------------------------ engine

stream_config small_config(unsigned shards) {
    stream_config cfg;
    cfg.shards = shards;
    cfg.batch_size = 8;
    cfg.queue_capacity = 4;
    return cfg;
}

TEST(StreamEngineTest, EmptyEngineFinishesCleanly) {
    stream_engine engine(small_config(2));
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), kNoDay);
    EXPECT_TRUE(engine.reports().empty());
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, kNoDay);
    EXPECT_EQ(snap.records, 0u);
}

TEST(StreamEngineTest, FinishSealsTheOpenDay) {
    stream_engine engine(small_config(3));
    engine.push(10, nth(1), 5);
    engine.push(10, nth(2));
    engine.push(10, nth(1));  // duplicate within the day
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), 10);
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.hits, 7u);
    EXPECT_EQ(stats.distinct_addresses, 2u);
    ASSERT_EQ(engine.reports().size(), 1u);
    EXPECT_EQ(engine.reports()[0].day, 10);
}

TEST(StreamEngineTest, FinishIsIdempotent) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    engine.finish();
    EXPECT_EQ(engine.stats().records, 1u);
}

TEST(StreamEngineTest, PushAfterFinishIsIgnored) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    engine.push(2, nth(2));
    EXPECT_EQ(engine.stats().records, 1u);
    EXPECT_EQ(engine.sealed_day(), 1);
}

TEST(StreamEngineTest, DayBoundaryAdvancesEpoch) {
    stream_engine engine(small_config(2));
    engine.push(5, nth(1));
    engine.push(5, nth(2));
    EXPECT_EQ(engine.stats().open_day, 5);
    engine.push(6, nth(1));  // seals day 5 behind its last batch
    const auto report5 = engine.wait_for_report(5);
    ASSERT_TRUE(report5.has_value());
    EXPECT_EQ(report5->day, 5);
    EXPECT_EQ(report5->distinct_addresses, 2u);
    EXPECT_EQ(engine.sealed_day(), 5);
    EXPECT_EQ(engine.stats().open_day, 6);
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), 6);
    EXPECT_EQ(engine.reports().size(), 2u);
}

TEST(StreamEngineTest, SkippedDaysSealOnlyObservedOnes) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.push(4, nth(1));  // days 2 and 3 never existed in the feed
    engine.finish();
    const auto reports = engine.reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].day, 1);
    EXPECT_EQ(reports[1].day, 4);
}

TEST(StreamEngineTest, LateRecordsAreDroppedAndCounted) {
    stream_engine engine(small_config(2));
    engine.push(10, nth(1));
    engine.push(11, nth(2));  // day 10 sealed
    engine.push(10, nth(3));  // late: sealed days are immutable
    engine.push(9, nth(4));   // later still
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.late_dropped, 2u);
    EXPECT_EQ(stats.distinct_addresses, 2u);
    // The dropped addresses are nowhere in the sealed state.
    const auto distinct = engine.distinct_addresses();
    EXPECT_EQ(distinct.size(), 2u);
}

TEST(StreamEngineTest, WaitForUnsealedDayReturnsNulloptAfterFinish) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    EXPECT_FALSE(engine.wait_for_report(99).has_value());
}

TEST(StreamEngineTest, ReportCarriesWindowedSplitAndDensity) {
    stream_config cfg = small_config(2);
    cfg.window.window_back = 2;
    cfg.window.window_fwd = 2;
    cfg.stability_n = 2;
    cfg.density_classes = {{2, 112}};
    stream_engine engine(cfg);
    // nth(1) active on days 0..4; nth(2) only day 2: at ref_day 2
    // (sealed day 4 minus window_fwd 2), nth(1) is 2d-stable, nth(2) not.
    for (int day = 0; day <= 4; ++day) {
        engine.push(day, nth(1));
        if (day == 2) engine.push(day, nth(2));
    }
    engine.push(5, nth(1));  // seal day 4 -> report for ref_day 2
    const auto report = engine.wait_for_report(4);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->ref_day, 2);
    EXPECT_EQ(report->active, 2u);
    EXPECT_EQ(report->stable, 1u);
    EXPECT_EQ(report->not_stable, 1u);
    ASSERT_EQ(report->density.size(), 1u);
    EXPECT_EQ(report->density[0].n, 2u);
    EXPECT_EQ(report->density[0].p, 112u);
    engine.finish();
}

TEST(StreamEngineTest, ClassifyDayMergesShards) {
    stream_engine engine(small_config(4));
    daily_series series;
    rng r{77};
    for (int day = 0; day < 10; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 120; ++i)
            if (r.chance(0.4)) active.push_back(nth(i));
        for (const address& a : active) engine.push(day, a);
        series.set_day(day, active);
    }
    engine.finish();
    const stability_analyzer an(series);
    for (unsigned n : {1u, 3u}) {
        const stability_split batch = an.classify_day(5, n);
        const stability_split streamed = engine.classify_day(5, n);
        EXPECT_EQ(streamed.stable, batch.stable) << "n=" << n;
        EXPECT_EQ(streamed.not_stable, batch.not_stable) << "n=" << n;
    }
}

TEST(StreamEngineTest, SnapshotIsEpochConsistent) {
    stream_engine engine(small_config(3));
    engine.push(1, nth(1));
    engine.push(1, nth(2));
    engine.push(2, nth(1));
    ASSERT_TRUE(engine.wait_for_report(1).has_value());
    // Day 2 is still open: the snapshot must describe epoch 1 only.
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, 1);
    EXPECT_EQ(snap.distinct_addresses, 2u);
    ASSERT_FALSE(snap.spectrum.empty());
    EXPECT_EQ(snap.spectrum[0], 2u);
    engine.finish();
    EXPECT_EQ(engine.snapshot().epoch, 2);
}

// The acceptance test of the roll design: once a day boundary is pushed,
// the seal and its report recompute happen on the roll thread while the
// pusher keeps streaming the next day's records. All of them must be
// accepted (none dropped, none deadlocked) even with tiny queues forcing
// backpressure, and the in-flight report must still come out right.
TEST(StreamEngineTest, IngestContinuesWhileSealIsInFlight) {
    stream_config cfg;
    cfg.shards = 4;
    cfg.batch_size = 4;      // many batches...
    cfg.queue_capacity = 1;  // ...through minimal queues: real backpressure
    stream_engine engine(cfg);
    constexpr unsigned kPerDay = 3000;
    for (unsigned i = 0; i < kPerDay; ++i) engine.push(0, nth(i % 500));
    // This push broadcasts the day-0 seal...
    engine.push(1, nth(0));
    // ...and without waiting for it we keep streaming day 1. The seal +
    // report build for day 0 is concurrently in flight on the roll
    // thread; these pushes must all be accepted meanwhile.
    for (unsigned i = 1; i < kPerDay; ++i) engine.push(1, nth(i % 500));
    const stream_stats mid = engine.stats();
    EXPECT_EQ(mid.records, 2 * kPerDay);
    EXPECT_EQ(mid.late_dropped, 0u);
    EXPECT_EQ(mid.open_day, 1);
    const auto report0 = engine.wait_for_report(0);
    ASSERT_TRUE(report0.has_value());
    EXPECT_EQ(report0->distinct_addresses, 500u);
    engine.finish();
    EXPECT_EQ(engine.stats().records, 2 * kPerDay);
    EXPECT_EQ(engine.sealed_day(), 1);
    EXPECT_EQ(engine.snapshot().distinct_addresses, 500u);
}

TEST(StreamEngineTest, ManyProducersOneEngine) {
    stream_config cfg = small_config(4);
    stream_engine engine(cfg);
    constexpr int kThreads = 4;
    constexpr unsigned kEach = 2000;
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&engine, t] {
            for (unsigned i = 0; i < kEach; ++i)
                engine.push(3, nth(static_cast<unsigned>(t) * kEach + i));
        });
    for (auto& p : producers) p.join();
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, static_cast<std::uint64_t>(kThreads) * kEach);
    EXPECT_EQ(stats.distinct_addresses, kThreads * kEach);
}

// ------------------------------------------------------------ metrics

// Every record offered to push() must land in exactly one of the
// accounting counters: accepted, late, or dropped-after-finish.
TEST(StreamMetricsTest, EveryPushedRecordIsAccountedExactlyOnce) {
    stream_engine engine(small_config(2));
    engine.push(10, nth(1));
    engine.push(10, nth(2));
    engine.push(11, nth(3));  // seals day 10
    engine.push(10, nth(4));  // late
    engine.push(9, nth(5));   // late
    engine.finish();
    engine.push(12, nth(6));  // dropped: engine already finished
    engine.push(12, nth(7));
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.fed, 7u);
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.late_dropped, 2u);
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.fed, stats.records + stats.late_dropped + stats.dropped);
}

TEST(StreamMetricsTest, ConcurrentFeedKeepsTheAccountingInvariant) {
    stream_engine engine(small_config(4));
    constexpr int kThreads = 4;
    constexpr unsigned kEach = 3000;
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&engine, t] {
            // Interleaved day advances make some records late by design.
            for (unsigned i = 0; i < kEach; ++i)
                engine.push(static_cast<int>(i / 1000) + (t % 2), nth(i % 300));
        });
    for (auto& p : producers) p.join();
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.fed, static_cast<std::uint64_t>(kThreads) * kEach);
    EXPECT_EQ(stats.fed, stats.records + stats.late_dropped + stats.dropped);
}

// stream_stats is a thin view over the metrics registry: the same
// numbers must come out of an injected registry's exported text.
TEST(StreamMetricsTest, StatsAreAViewOverTheInjectedRegistry) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    stream_engine engine(cfg);
    engine.push(5, nth(1), 3);
    engine.push(5, nth(2));
    engine.push(6, nth(3));
    engine.push(4, nth(4));  // late
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(reg.get_counter("v6_stream_fed_total").value(), stats.fed);
    EXPECT_EQ(reg.get_counter("v6_stream_records_total").value(),
              stats.records);
    EXPECT_EQ(reg.get_counter("v6_stream_hits_total").value(), stats.hits);
    EXPECT_EQ(reg.get_counter("v6_stream_late_total").value(),
              stats.late_dropped);
    EXPECT_EQ(reg.get_gauge("v6_stream_sealed_day").value(),
              engine.sealed_day());
    EXPECT_EQ(
        reg.get_gauge("v6_stream_distinct_addresses").value(),
        static_cast<std::int64_t>(stats.distinct_addresses));

    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6_stream_records_total 3"), std::string::npos);
    EXPECT_NE(text.find("v6_stream_queue_depth{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find("v6_stream_seal_latency_seconds_count"),
              std::string::npos);
}

TEST(StreamMetricsTest, SealHistogramCountsOneSealPerDay) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    stream_engine engine(cfg);
    for (int day = 1; day <= 4; ++day) engine.push(day, nth(1));
    engine.finish();
    EXPECT_EQ(reg.get_counter("v6_stream_seals_total").value(), 4u);
    EXPECT_EQ(
        reg.get_histogram("v6_stream_seal_latency_seconds").count(), 4u);
    EXPECT_EQ(
        reg.get_histogram("v6_stream_report_build_seconds").count(), 4u);
}

// cfg.metrics=false keeps the core accounting exact while skipping the
// sampled per-shard series — the uninstrumented baseline the overhead
// bench compares against.
TEST(StreamMetricsTest, DisablingMetricsKeepsCountersButDropsSampledSeries) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    cfg.metrics = false;
    stream_engine engine(cfg);
    engine.push(1, nth(1));
    engine.push(2, nth(2));
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.fed, 2u);
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6_stream_records_total 2"), std::string::npos);
    EXPECT_EQ(text.find("v6_stream_queue_depth"), std::string::npos);
    EXPECT_EQ(text.find("v6_stream_seal_latency_seconds"), std::string::npos);
}

// Engines without an injected registry must not collide: each gets a
// private one, so parallel engines (and tests) stay independent.
TEST(StreamMetricsTest, PrivateRegistriesAreIndependent) {
    stream_engine a(small_config(1));
    stream_engine b(small_config(1));
    a.push(1, nth(1));
    a.push(1, nth(2));
    b.push(1, nth(3));
    a.finish();
    b.finish();
    EXPECT_EQ(a.stats().records, 2u);
    EXPECT_EQ(b.stats().records, 1u);
    EXPECT_EQ(a.metrics().get_counter("v6_stream_records_total").value(), 2u);
    EXPECT_EQ(b.metrics().get_counter("v6_stream_records_total").value(), 1u);
}

// ------------------------------------------------------------ live series

/// A config whose daily report classifies the sealed day itself
/// (window_fwd = 0), so the live series react to a day the moment it
/// seals — what the drift tests need.
stream_config live_config(unsigned shards) {
    stream_config cfg = small_config(shards);
    cfg.stability_n = 1;
    cfg.window.window_back = 1;
    cfg.window.window_fwd = 0;
    cfg.quantile_sample = 1;  // observe every hit count; exact quantiles
    return cfg;
}

const live_series_view* find_series(const live_view& view,
                                    const std::string& name) {
    for (const live_series_view& s : view.series)
        if (s.name == name) return &s;
    return nullptr;
}

TEST(StreamLiveTest, SeriesGainOnePointPerSealedDay) {
    stream_engine engine(live_config(2));
    for (int day = 1; day <= 4; ++day)
        for (unsigned i = 0; i < 40; ++i) engine.push(day, nth(i), 1 + i % 5);
    engine.finish();
    const live_view view = engine.live();
    EXPECT_EQ(view.epoch, 4);
    const live_series_view* active = find_series(view, "active");
    ASSERT_NE(active, nullptr);
    EXPECT_EQ(active->history.size(), 4u);  // one point per sealed day
    EXPECT_EQ(active->current, 40.0);
    const live_series_view* stable = find_series(view, "stable_fraction");
    ASSERT_NE(stable, nullptr);
    EXPECT_GE(stable->current, 0.0);
    EXPECT_LE(stable->current, 1.0);
    const live_series_view* gamma1 = find_series(view, "gamma1@64");
    ASSERT_NE(gamma1, nullptr);
    EXPECT_GE(gamma1->current, 1.0);  // count ratios never shrink downward
    const live_series_view* p50 = find_series(view, "hits_p50");
    ASSERT_NE(p50, nullptr);
    EXPECT_GE(p50->current, 1.0);
    EXPECT_LE(p50->current, 5.0);
}

TEST(StreamLiveTest, SketchEstimatesTrackTheSealedDay) {
    stream_engine engine(live_config(3));
    for (int day = 1; day <= 3; ++day)
        for (unsigned i = 0; i < 200; ++i) engine.push(day, nth(i));
    engine.finish();
    const live_view view = engine.live();
    const live_series_view* est = find_series(view, "day_addrs_est");
    ASSERT_NE(est, nullptr);
    // 200 distinct /128s per day; at this range the HLL's
    // linear-counting regime is essentially exact.
    EXPECT_NEAR(est->current, 200.0, 10.0);
    const live_series_view* est64 = find_series(view, "day_64s_est");
    ASSERT_NE(est64, nullptr);
    EXPECT_NEAR(est64->current, 7.0, 1.0);  // nth() spans 7 /64s
}

TEST(StreamLiveTest, SketchesOffSkipsEstimateSeries) {
    stream_config cfg = live_config(2);
    cfg.sketches = false;
    stream_engine engine(cfg);
    engine.push(1, nth(1));
    engine.push(2, nth(2));
    engine.finish();
    const live_view view = engine.live();
    EXPECT_EQ(find_series(view, "day_addrs_est"), nullptr);
    ASSERT_NE(find_series(view, "active"), nullptr);  // derived series stay
    EXPECT_EQ(engine.stats().records, 2u);
}

TEST(StreamLiveTest, StepChangeRaisesOneDriftEventPerSeries) {
    obs::registry reg;
    obs::event_log events;
    stream_config cfg = live_config(2);
    cfg.metrics_registry = &reg;
    cfg.events = &events;
    stream_engine engine(cfg);
    // Twelve steady days of the same 50 addresses, then an addressing
    // change: 400 active addresses from day 13 on.
    for (int day = 1; day <= 12; ++day)
        for (unsigned i = 0; i < 50; ++i) engine.push(day, nth(i));
    for (int day = 13; day <= 18; ++day)
        for (unsigned i = 0; i < 400; ++i) engine.push(day, nth(i));
    engine.finish();

    EXPECT_GE(events.total(), 1u);
    EXPECT_GE(reg.get_counter("v6class_drift_events_total").value(), 1u);
    // The "active" series stepped 50 -> 400 once; fire-once
    // re-baselining means exactly one alarm despite six post-step days.
    std::size_t active_alarms = 0;
    for (const obs::event& e : events.recent(1000)) {
        EXPECT_EQ(e.kind, "drift");
        EXPECT_EQ(e.level, obs::event_level::warn);
        for (const auto& [k, v] : e.fields)
            if (k == "series" && v == "\"active\"") ++active_alarms;
    }
    EXPECT_EQ(active_alarms, 1u);
    // The alarm flag is visible on the live view while it is fresh, and
    // the gauge export carries the new level.
    EXPECT_EQ(reg.get_dgauge("v6class_active_addresses").value(), 400.0);
}

TEST(StreamLiveTest, SteadyFeedRaisesNoDriftEvents) {
    obs::event_log events;
    stream_config cfg = live_config(2);
    cfg.events = &events;
    stream_engine engine(cfg);
    for (int day = 1; day <= 20; ++day)
        for (unsigned i = 0; i < 60; ++i) engine.push(day, nth(i));
    engine.finish();
    EXPECT_EQ(events.total(), 0u);
}

TEST(StreamLiveTest, DayReportCarriesDerivedSeries) {
    stream_engine engine(live_config(2));
    for (int day = 1; day <= 2; ++day)
        for (unsigned i = 0; i < 100; ++i) engine.push(day, nth(i));
    engine.finish();
    const auto reports = engine.reports(1);
    ASSERT_EQ(reports.size(), 1u);
    const day_report& report = reports[0];
    EXPECT_EQ(report.day, 2);
    EXPECT_GE(report.gamma1, 1.0);
    EXPECT_GE(report.gamma16, 1.0);
    EXPECT_GE(report.stable_fraction, 0.0);
    EXPECT_LE(report.stable_fraction, 1.0);
    EXPECT_NEAR(report.est_day_addresses, 100.0, 5.0);
}

// ------------------------------------------------ push vs push_block

/// Three days of records with a late one mid-day-2, as one feed; the
/// tests cut it into blocks whose edges fall inside days.
std::vector<stream_record> boundary_feed() {
    rng r{4291};
    std::vector<stream_record> feed;
    for (int day = 1; day <= 3; ++day)
        for (unsigned i = 0; i < 150; ++i) {
            if (day == 2 && i == 40) feed.push_back({1, nth(999), 3});  // late
            const std::uint64_t hi =
                0x20010db800000000ull | (r.uniform(6) << 16) | r.uniform(3);
            feed.push_back({day, address::from_pair(hi, r.uniform(200)),
                            1 + r.uniform(9)});
        }
    return feed;
}

simd::record_block to_block(const stream_record* first, std::size_t n) {
    simd::record_block block(n);
    for (std::size_t i = 0; i < n; ++i)
        block.push_back(first[i].addr.hi(), first[i].addr.lo(), first[i].day,
                        first[i].hits);
    return block;
}

/// FNV-1a over the first `n` address bytes, computed independently of
/// the engine: the hash every node's day sketches must share for
/// v6agg's cross-node register union to be exact.
std::uint64_t fnv1a_prefix(const address& a, std::size_t n) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) h = (h ^ a.bytes()[i]) * 1099511628211ull;
    return h;
}

void expect_same_density(const std::vector<density_row>& a,
                         const std::vector<density_row>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].n, b[i].n);
        EXPECT_EQ(a[i].p, b[i].p);
        EXPECT_EQ(a[i].dense_prefix_count, b[i].dense_prefix_count);
        EXPECT_EQ(a[i].covered_addresses, b[i].covered_addresses);
        EXPECT_EQ(a[i].address_density, b[i].address_density);
    }
}

class StreamPushPathTest : public testing::TestWithParam<unsigned> {};

TEST_P(StreamPushPathTest, PushAndPushBlockAgree) {
    const unsigned shards = GetParam();
    const std::vector<stream_record> feed = boundary_feed();
    const std::vector<stream_record> after{{4, nth(1), 1}, {4, nth(2), 1}};
    stream_config cfg = live_config(shards);
    ASSERT_EQ(cfg.batch_size, 8u);

    stream_engine one(cfg);
    for (const stream_record& r : feed) one.push(r);
    one.finish();
    for (const stream_record& r : after) one.push(r);

    stream_engine blocks(cfg);
    constexpr std::size_t kBlock = 37;  // edges fall inside days
    for (std::size_t i = 0; i < feed.size(); i += kBlock)
        blocks.push_block(
            to_block(feed.data() + i, std::min(kBlock, feed.size() - i)));
    blocks.finish();
    blocks.push_block(to_block(after.data(), after.size()));

    // stats(): every field, including the post-finish drops.
    const stream_stats sa = one.stats(), sb = blocks.stats();
    EXPECT_EQ(sb.fed, feed.size() + after.size());
    EXPECT_EQ(sb.late_dropped, 1u);
    EXPECT_EQ(sb.dropped, after.size());
    EXPECT_EQ(sa.fed, sb.fed);
    EXPECT_EQ(sa.records, sb.records);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.late_dropped, sb.late_dropped);
    EXPECT_EQ(sa.dropped, sb.dropped);
    EXPECT_EQ(sa.batches, sb.batches);
    EXPECT_EQ(sa.open_day, sb.open_day);
    EXPECT_EQ(sa.sealed_day, sb.sealed_day);
    EXPECT_EQ(sa.distinct_addresses, sb.distinct_addresses);
    EXPECT_EQ(sa.distinct_projected, sb.distinct_projected);

    // snapshot(): every field.
    const stream_snapshot na = one.snapshot(), nb = blocks.snapshot();
    EXPECT_EQ(nb.epoch, 3);
    EXPECT_EQ(na.epoch, nb.epoch);
    EXPECT_EQ(na.records, nb.records);
    EXPECT_EQ(na.hits, nb.hits);
    EXPECT_EQ(na.late_dropped, nb.late_dropped);
    EXPECT_EQ(na.distinct_addresses, nb.distinct_addresses);
    EXPECT_EQ(na.distinct_projected, nb.distinct_projected);
    EXPECT_EQ(na.spectrum, nb.spectrum);
    expect_same_density(na.density, nb.density);

    // reports(): every field except the two timing-derived ones
    // (pool utilization, ingest IPC).
    const auto ra = one.reports(), rb = blocks.reports();
    ASSERT_EQ(rb.size(), 3u);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t d = 0; d < ra.size(); ++d) {
        EXPECT_EQ(ra[d].day, rb[d].day);
        EXPECT_EQ(ra[d].ref_day, rb[d].ref_day);
        EXPECT_EQ(ra[d].active, rb[d].active);
        EXPECT_EQ(ra[d].stable, rb[d].stable);
        EXPECT_EQ(ra[d].not_stable, rb[d].not_stable);
        EXPECT_EQ(ra[d].distinct_addresses, rb[d].distinct_addresses);
        EXPECT_EQ(ra[d].distinct_projected, rb[d].distinct_projected);
        expect_same_density(ra[d].density, rb[d].density);
        EXPECT_EQ(ra[d].gamma1, rb[d].gamma1);
        EXPECT_EQ(ra[d].gamma4, rb[d].gamma4);
        EXPECT_EQ(ra[d].gamma16, rb[d].gamma16);
        EXPECT_EQ(ra[d].stable_fraction, rb[d].stable_fraction);
        EXPECT_EQ(ra[d].est_day_addresses, rb[d].est_day_addresses);
        EXPECT_EQ(ra[d].est_day_48s, rb[d].est_day_48s);
        EXPECT_EQ(ra[d].est_day_64s, rb[d].est_day_64s);
    }

    // The day sketches hash exactly FNV-1a over 16/6/8 address bytes:
    // each report's estimates equal independently fed HLLs'. A record's
    // shard is the same hash over its /64 (8 bytes), so per-shard
    // counts are pinned too.
    std::vector<std::uint64_t> per_shard(shards, 0);
    for (std::size_t d = 0; d < rb.size(); ++d) {
        obs::hyperloglog addrs(kDayHllPrecision), p48s(kDayHllPrecision),
            p64s(kDayHllPrecision);
        int open = kNoDay;
        for (const stream_record& r : feed) {
            open = std::max(open, r.day);
            if (r.day != rb[d].day || r.day < open) continue;  // other day / late
            addrs.add(fnv1a_prefix(r.addr, 16));
            p48s.add(fnv1a_prefix(r.addr, 6));
            p64s.add(fnv1a_prefix(r.addr, 8));
            ++per_shard[fnv1a_prefix(r.addr, 8) % shards];
        }
        EXPECT_EQ(rb[d].est_day_addresses, addrs.estimate()) << "day " << rb[d].day;
        EXPECT_EQ(rb[d].est_day_48s, p48s.estimate()) << "day " << rb[d].day;
        EXPECT_EQ(rb[d].est_day_64s, p64s.estimate()) << "day " << rb[d].day;
    }
    for (unsigned i = 0; i < shards; ++i)
        EXPECT_EQ(blocks.metrics()
                      .get_counter("v6_stream_shard_records_total",
                                   {{"shard", std::to_string(i)}})
                      .value(),
                  per_shard[i])
            << "shard " << i;
}

INSTANTIATE_TEST_SUITE_P(Shards, StreamPushPathTest, testing::Values(1u, 3u));

TEST(StreamEngineTest, PushBlockReturnsTheOpenDayItStartedFrom) {
    // The caller replays the acceptance rule from this day (see
    // net::ingest_block), so it must be the open day before the block.
    stream_engine engine(small_config(2));
    const std::vector<stream_record> a{{5, nth(1), 1}, {6, nth(2), 1}};
    const std::vector<stream_record> b{{5, nth(3), 1}, {6, nth(4), 1}, {7, nth(5), 1}};
    EXPECT_EQ(engine.push_block(to_block(a.data(), a.size())),
              std::optional<int>(kNoDay));
    EXPECT_EQ(engine.push_block(to_block(b.data(), b.size())),
              std::optional<int>(6));
    EXPECT_EQ(engine.stats().late_dropped, 1u);
    engine.finish();
    EXPECT_EQ(engine.push_block(to_block(a.data(), a.size())), std::nullopt);
    EXPECT_EQ(engine.stats().dropped, a.size());
}

TEST(StreamEngineTest, ReportsFromAnIndexReturnOnlyTheNewerOnes) {
    stream_engine engine(small_config(2));
    for (int day = 1; day <= 3; ++day) engine.push(day, nth(1));
    engine.finish();
    ASSERT_EQ(engine.reports().size(), 3u);
    const auto newer = engine.reports(1);
    ASSERT_EQ(newer.size(), 2u);
    EXPECT_EQ(newer[0].day, 2);
    EXPECT_EQ(newer[1].day, 3);
    EXPECT_TRUE(engine.reports(3).empty());
    EXPECT_TRUE(engine.reports(7).empty());
}

// ------------------------------------------------ seal/tick lock order

// The daemon shape from tools/v6stream: the seal hook evaluates the
// alert rules at every seal on the roll thread, while a wall-clock tick
// thread evaluates them too, sampling rows of a live_view captured
// *before* evaluate(). Under TSan this pins the required lock order — a
// sampler that called engine.live() from inside evaluate() (under the
// alert mutex) would invert against the seal path and deadlock a
// concurrent seal and tick.
TEST(StreamAlertTest, ConcurrentSealAndTickEvaluationsDoNotDeadlock) {
    obs::registry reg;
    obs::event_log log;
    obs::alert_engine alerts(&reg, &log);
    auto rules = obs::parse_alert_rules(
        "low_active series=v6class_active_addresses below=1000000\n");
    ASSERT_TRUE(rules.has_value());
    alerts.load_rules(std::move(*rules));

    stream_config cfg = live_config(2);
    cfg.metrics_registry = &reg;
    cfg.events = &log;
    cfg.on_seal = [&alerts](const obs::federate::seal_snapshot& snap) {
        alerts.evaluate(obs::row_sampler(snap.series), snap.day);
    };
    stream_engine engine(cfg);

    std::atomic<bool> stop{false};
    std::thread ticker([&] {
        std::int64_t ts = 1'000'000;
        while (!stop.load(std::memory_order_relaxed)) {
            std::vector<net::tel_sample> rows;  // snapshot first...
            for (const live_series_view& v : engine.live(0).series)
                if (!v.history.empty())
                    rows.push_back({v.metric, v.label, 0, v.current});
            alerts.evaluate(obs::row_sampler(std::move(rows)),  // ...alert
                            ts++);                              // mutex second
        }
    });
    constexpr int kDays = 20;
    for (int day = 0; day < kDays; ++day)
        for (unsigned i = 0; i < 200; ++i) engine.push(day, nth(i));
    engine.finish();  // seals every day: kDays seal-path evaluations
    stop.store(true);
    ticker.join();
    EXPECT_GE(alerts.evaluations(), static_cast<std::uint64_t>(kDays));
    // 200 active addresses < 1e6: firing since the first seal, and no
    // tick evaluation may have flapped it (a missing sample freezes).
    EXPECT_EQ(alerts.firing_count(), 1u);
}

// ------------------------------------------------- restart contract

// The flight recorder's restart contract at library level, wired the
// way v6stream wires it: run A records days 1-4 through the seal hook,
// the store is reopened, and run B replays days 1-6 over it. Every live
// series must hold each day once, the re-anchor must skip (not drop as
// duplicates) the re-sealed days, run B must log one "tsdb resume",
// and an alert that fires at a seal must reach the store with it.
TEST(StreamRestartTest, ReplayOverAStoreRecordsEachDayOnce) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("v6restart_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    const auto run = [&](int last_day, obs::event_log& log) {
        std::string error;
        auto db = obs::tsdb::database::open(dir, {}, &error);
        EXPECT_NE(db, nullptr) << error;
        if (!db) return std::unique_ptr<obs::tsdb::database>();
        obs::registry reg;
        obs::alert_engine alerts(&reg, &log);
        auto rules = obs::parse_alert_rules(
            "few_active series=v6class_active_addresses below=1000000\n");
        EXPECT_TRUE(rules.has_value());
        if (rules) alerts.load_rules(std::move(*rules));
        obs::tsdb::seal_sink sink(*db, log);
        stream_config cfg = live_config(2);
        cfg.metrics_registry = &reg;
        cfg.events = &log;
        cfg.on_seal = [&](const obs::federate::seal_snapshot& snap) {
            alerts.evaluate(obs::row_sampler(snap.series), snap.day);
            sink(snap);
        };
        {
            stream_engine engine(cfg);
            for (int day = 1; day <= last_day; ++day)
                for (unsigned i = 0; i < 60; ++i) engine.push(day, nth(i));
        }
        return db;
    };
    const auto resumes = [](const obs::event_log& log) {
        std::size_t n = 0;
        for (const obs::event& e : log.since(0))
            if (e.kind == "tsdb" && e.message.rfind("tsdb resume", 0) == 0) ++n;
        return n;
    };

    obs::event_log log_a;
    std::vector<std::string> live_rows;
    {
        auto db = run(4, log_a);
        ASSERT_NE(db, nullptr);
        EXPECT_EQ(resumes(log_a), 0u);  // empty store: nothing to resume
        for (const obs::tsdb::series_info& s : db->list_series())
            live_rows.push_back(s.name + "{" + s.label + "}");
    }
    ASSERT_FALSE(live_rows.empty());

    obs::event_log log_b;
    auto db = run(6, log_b);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->duplicate_points(), 0u);
    EXPECT_EQ(resumes(log_b), 1u);
    constexpr std::int64_t kAll = std::numeric_limits<std::int64_t>::max();
    const std::vector<obs::tsdb::series_info> series = db->list_series();
    EXPECT_EQ(series.size(), live_rows.size());
    for (const obs::tsdb::series_info& s : series) {
        std::vector<std::int64_t> days;
        for (const obs::tsdb::point& p : db->query(s.name, s.label, -kAll, kAll))
            days.push_back(p.ts);
        EXPECT_EQ(days, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}))
            << s.name << "{" << s.label << "}";
    }
    // The alert fired at run A's first seal; its transition event was
    // committed with that seal's points.
    bool fired = false;
    for (const obs::tsdb::stored_event& e :
         db->query_events(obs::event_level::info, 0, 1e18))
        fired |= e.message == "alert few_active firing";
    EXPECT_TRUE(fired);
    db.reset();
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace v6
