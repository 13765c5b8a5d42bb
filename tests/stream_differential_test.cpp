// Batch-vs-stream differential: replaying a feed through the streaming
// engine must reproduce the batch pipeline's answers *exactly* — same
// stability split, same lifetime spectrum, same Table-3 density rows
// (configured classes and any other), same distinct set, same MRA
// counts, and in every day report the density rows and MRA ratios of
// the days sealed so far — for any shard count (including the unsharded
// engine). The reference density and MRA come from a radix_tree; the
// engine keeps running counts over its shards' sorted runs instead,
// plus engine-level state for what straddles their /64s (the splits
// above /64, and density classes with p < 64).
//
// The stability splits are checked at reference days before the feed,
// older than the engine's ring of recent days (answered by a store
// scan), inside it, on a day gap and after the last day, under the
// default window and non-default ones.
//
// Two feeds: a >=100k-record one drawn from a fixed pool (which
// saturates, so late days add few new addresses), and one whose
// distinct set grows every day around and inside what is already
// there, with a day gap, a repeats-only day and one hot /64, so every
// seal folds fresh keys into the engine's incremental MRA and density
// updates and one shard's run outgrows the others.
//
// Then seeded property feeds over 200 days: duplicates within and
// across push blocks and shard batches, late records (which the engine
// drops and the oracle never sees), gap days, batch sizes 1, 7 and
// 4096, and long-lived addresses whose activity spans more than 64 and
// more than 192 days, so their day bitmaps run through three overflow
// words (and move to a larger pool block twice). Every day report, the splits of ring days and of days older
// than the ring (under a window wider than one bitmap word too), the
// spectrum and the density rows match the batch classifiers. ctest runs
// the whole suite twice: as is, and (prefix "scalar.") with the SIMD
// dispatch pinned to the portable kernels by V6CLASS_FORCE_SCALAR.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "v6class/netgen/rng.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"
#include "v6class/stream/engine.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

using class_list = std::vector<std::pair<std::uint64_t, unsigned>>;

constexpr int kFirstDay = 100;
constexpr int kLastDay = 114;              // 15 days
constexpr unsigned kRecordsPerDay = 7000;  // 105k records total
constexpr std::uint64_t kSeed = 20150317;

const class_list kClasses = {{2, 112}, {8, 64}, {2, 48}};

// The growing feed: days 200..211 without day 205, and day 209 carries
// only addresses seen before. {3, 120} has groups that cross n and
// groups that keep growing past it; {2, 48} has /48s whose members sit
// in different /64s, so they cross n with members in several shards.
constexpr int kGrowFirstDay = 200;
constexpr int kGrowLastDay = 211;
constexpr int kGapDay = 205;
constexpr int kRepeatDay = 209;
constexpr std::uint64_t kHot = 0x20010db8000b0001ull;  // the hot /64
constexpr unsigned kHotPerDay = 400;
const class_list kGrowClasses = {{1, 64}, {3, 120}, {1, 128}, {2, 48}};

// A pool with real spatial structure: 64 /64 networks, 16 /112 blocks
// each, so the density classes and MRA ratios have something to find.
std::vector<address> make_pool() {
    std::vector<address> pool;
    pool.reserve(10000);
    for (unsigned i = 0; i < 10000; ++i) {
        const std::uint64_t high = 0x20010db800000000ull + (i % 64);
        const std::uint64_t low =
            (static_cast<std::uint64_t>(i % 16) << 16) | (mix64(i) & 0xffffu);
        pool.push_back(address::from_pair(high, low));
    }
    return pool;
}

// The replayed feed: duplicates, varying hit counts, random in-day order.
std::vector<stream_record> make_feed() {
    const std::vector<address> pool = make_pool();
    std::vector<stream_record> feed;
    feed.reserve((kLastDay - kFirstDay + 1) * kRecordsPerDay);
    rng r{kSeed};
    for (int day = kFirstDay; day <= kLastDay; ++day)
        for (unsigned i = 0; i < kRecordsPerDay; ++i)
            feed.push_back({day, pool[r.uniform(pool.size())], 1 + r.uniform(5)});
    return feed;
}

// Each day: returning addresses, one address below and one above every
// address seen so far (each in a /64 of its own), a burst into eight
// /64s whose /112s and /120s are already dense (joining, crossing and
// saturating groups), a scatter over 4096 sparse /64s that lands
// between existing neighbours, and hundreds of privacy-style (random
// interface identifier) addresses in one hot /64.
std::vector<stream_record> make_growing_feed() {
    constexpr std::uint64_t kDense = 0x20010db8000a0000ull;
    constexpr std::uint64_t kSparse = 0x20010db800500000ull;
    rng r{kSeed + 1};
    std::vector<address> seen;
    std::vector<stream_record> feed;
    const auto fresh = [&](int day, std::uint64_t hi, std::uint64_t lo) {
        const address a = address::from_pair(hi, lo);
        feed.push_back({day, a, 1 + r.uniform(3)});
        seen.push_back(a);
    };
    for (int day = kGrowFirstDay; day <= kGrowLastDay; ++day) {
        if (day == kGapDay) continue;
        for (unsigned i = 0; i < 1500 && !seen.empty(); ++i)
            feed.push_back({day, seen[r.uniform(seen.size())], 1});
        if (day == kRepeatDay) continue;
        const auto k = static_cast<std::uint64_t>(day - kGrowFirstDay);
        fresh(day, 0x20010db800000000ull - 1 - k, r());
        fresh(day, 0x20010db8ffff0000ull + k, r());
        for (unsigned i = 0; i < 600; ++i)
            fresh(day, kDense + r.uniform(8),
                  (r.uniform(32) << 16) | r.uniform(1024));
        for (unsigned i = 0; i < 400; ++i)
            fresh(day, kSparse + r.uniform(4096), r());
        for (unsigned i = 0; i < kHotPerDay; ++i) fresh(day, kHot, r());
    }
    return feed;
}

// The feed's days, ascending.
std::vector<int> feed_days(const std::vector<stream_record>& feed) {
    std::vector<int> days;
    for (const stream_record& rec : feed) days.push_back(rec.day);
    std::sort(days.begin(), days.end());
    days.erase(std::unique(days.begin(), days.end()), days.end());
    return days;
}

// The feed's days as a batch daily series.
daily_series series_of(const std::vector<stream_record>& feed) {
    daily_series series;
    for (const int day : feed_days(feed)) {
        std::vector<address> active;
        for (const stream_record& rec : feed)
            if (rec.day == day) active.push_back(rec.addr);
        series.set_day(day, active);
    }
    return series;
}

// The reference days checked: before the feed, its first day, two days
// older than a default window's ring (front + 5 is the growing feed's
// gap day), two inside it, the last day, and after it.
std::vector<int> reference_days(const std::vector<int>& days) {
    const int front = days.front(), back = days.back();
    return {front - 1, front, front + 2, front + 5,
            front + 7, front + 10, back, back + 1};
}

// The engine's windowed splits, and the counts in its day reports, are
// byte-identical to stability_analyzer's under the engine's window.
void expect_same_splits(const stream_engine& engine, const daily_series& series,
                        const std::vector<int>& days) {
    const stream_config& cfg = engine.config();
    const std::string win = "back=" + std::to_string(cfg.window.window_back) +
                            " fwd=" + std::to_string(cfg.window.window_fwd) +
                            " slew=" + std::to_string(cfg.window.slew_tolerance);
    const stability_analyzer an(series, cfg.window);
    for (const int ref : reference_days(days))
        for (const unsigned n : {1u, 3u, 7u}) {
            const stability_split want = an.classify_day(ref, n);
            const stability_split got = engine.classify_day(ref, n);
            EXPECT_EQ(got.stable, want.stable) << win << " ref=" << ref << " n=" << n;
            EXPECT_EQ(got.not_stable, want.not_stable)
                << win << " ref=" << ref << " n=" << n;
        }
    const auto reports = engine.reports();
    ASSERT_EQ(reports.size(), days.size()) << win;
    for (const day_report& rep : reports) {
        const std::string at = win + " day=" + std::to_string(rep.day);
        EXPECT_EQ(rep.ref_day, rep.day - cfg.window.window_fwd) << at;
        const stability_split want = an.classify_day(rep.ref_day, cfg.stability_n);
        EXPECT_EQ(rep.stable, want.stable.size()) << at;
        EXPECT_EQ(rep.not_stable, want.not_stable.size()) << at;
        EXPECT_EQ(rep.active, want.stable.size() + want.not_stable.size()) << at;
    }
}

// The reference pipeline: the batch substrate fed whole days at a time.
struct batch_state {
    daily_series series;
    observation_store store128{128};
    observation_store store64{64};
    radix_tree tree;
    std::vector<address> distinct;

    explicit batch_state(const std::vector<stream_record>& feed) {
        std::vector<address> all;
        for (const int day : feed_days(feed)) {
            std::vector<address> active;
            for (const stream_record& rec : feed)
                if (rec.day == day) active.push_back(rec.addr);
            series.set_day(day, active);
            store128.record_day(day, active);
            store64.record_day(day, active);
            all.insert(all.end(), active.begin(), active.end());
        }
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        distinct = std::move(all);
        for (const address& a : distinct) tree.add(a);
    }
};

// The trie over the distinct addresses of every feed day up to `day`.
radix_tree tree_through(const std::vector<stream_record>& feed, int day) {
    std::vector<address> seen;
    for (const stream_record& rec : feed)
        if (rec.day <= day) seen.push_back(rec.addr);
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    radix_tree tree;
    for (const address& a : seen) tree.add(a);
    return tree;
}

// Table-3 rows, every field.
void expect_same_rows(const std::vector<density_row>& got,
                      const std::vector<density_row>& want,
                      const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].n, want[i].n) << where;
        EXPECT_EQ(got[i].p, want[i].p) << where;
        EXPECT_EQ(got[i].dense_prefix_count, want[i].dense_prefix_count) << where;
        EXPECT_EQ(got[i].covered_addresses, want[i].covered_addresses) << where;
        EXPECT_EQ(got[i].possible_addresses, want[i].possible_addresses) << where;
        EXPECT_EQ(got[i].address_density, want[i].address_density) << where;
    }
}

// Replays `feed` through an engine with `shards` shards and density
// `classes`, and checks every answer against the batch pipeline —
// `others` are density classes the engine was not configured with.
void expect_stream_matches_batch(const std::vector<stream_record>& feed,
                                 unsigned shards, const class_list& classes,
                                 const class_list& others) {
    const batch_state batch(feed);
    const std::vector<int> days = feed_days(feed);

    stream_config cfg;
    cfg.shards = shards;
    cfg.density_classes = classes;
    stream_engine engine(cfg);
    for (const stream_record& rec : feed) engine.push(rec);
    engine.finish();

    // Feed accounting: everything was in day order, nothing dropped.
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, feed.size());
    EXPECT_EQ(stats.late_dropped, 0u);
    EXPECT_EQ(engine.sealed_day(), days.back());

    // Distinct sets, at /128 and projected /64.
    EXPECT_EQ(stats.distinct_addresses, batch.store128.distinct_count());
    EXPECT_EQ(stats.distinct_projected, batch.store64.distinct_count());
    EXPECT_EQ(engine.distinct_addresses(), batch.distinct);

    // Windowed stability splits, and the day reports' counts.
    expect_same_splits(engine, batch.series, days);

    // Lifetime spectrum.
    EXPECT_EQ(engine.stability_spectrum(14), batch.store128.stability_spectrum(14));

    // Table-3 density rows, every field: the configured classes, one
    // that is not, and the two mixed in one query.
    expect_same_rows(engine.density_table(classes),
                     compute_density_table(batch.tree, classes), "final");
    class_list mixed = others;
    mixed.insert(mixed.end(), classes.begin(), classes.end());
    expect_same_rows(engine.density_table(mixed),
                     compute_density_table(batch.tree, mixed), "mixed");

    // MRA aggregate counts at every prefix length.
    const mra_series want_mra = compute_mra_sorted(batch.distinct);
    const mra_series got_mra = engine.mra();
    for (unsigned p = 0; p <= 128; ++p)
        EXPECT_EQ(got_mra.aggregate_count(p), want_mra.aggregate_count(p)) << p;

    // The day reports' density rows and MRA ratios agree with the trie
    // over the distinct addresses of the days sealed by then.
    for (const day_report& rep : engine.reports()) {
        const std::string at = "day=" + std::to_string(rep.day);
        const radix_tree tree = tree_through(feed, rep.day);
        expect_same_rows(rep.density, compute_density_table(tree, classes), at);
        const mra_series mra = compute_mra_from_trie(tree);
        EXPECT_EQ(rep.gamma1, mra.ratio(64, 1)) << at;
        EXPECT_EQ(rep.gamma4, mra.ratio(60, 4)) << at;
        EXPECT_EQ(rep.gamma16, mra.ratio(48, 16)) << at;
    }

    // And the final snapshot is the whole-feed summary.
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, days.back());
    EXPECT_EQ(snap.distinct_addresses, batch.distinct.size());
    EXPECT_EQ(snap.spectrum, batch.store128.stability_spectrum(cfg.spectrum_max));
    expect_same_rows(snap.density, compute_density_table(batch.tree, classes),
                     "snapshot");
}

class StreamDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamDifferential, StreamReproducesBatchExactly) {
    const std::vector<stream_record> feed = make_feed();
    ASSERT_GE(feed.size(), 100000u);
    expect_stream_matches_batch(feed, GetParam(), kClasses, {{3, 120}});
}

TEST_P(StreamDifferential, GrowingFeedReproducesBatchExactly) {
    const std::vector<stream_record> feed = make_growing_feed();

    // The feed's shape: new addresses on every day but the gap and the
    // repeats-only day, each day landing one below and one above all
    // earlier ones.
    const std::vector<int> days = feed_days(feed);
    ASSERT_EQ(days.size(), static_cast<std::size_t>(kGrowLastDay - kGrowFirstDay));
    EXPECT_EQ(std::count(days.begin(), days.end(), kGapDay), 0);
    std::vector<address> seen;
    for (const int day : days) {
        std::vector<address> fresh;
        for (const stream_record& rec : feed)
            if (rec.day == day &&
                !std::binary_search(seen.begin(), seen.end(), rec.addr))
                fresh.push_back(rec.addr);
        std::sort(fresh.begin(), fresh.end());
        fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
        if (day == kRepeatDay) {
            EXPECT_TRUE(fresh.empty());
            continue;
        }
        ASSERT_GT(fresh.size(), 900u) << day;
        if (!seen.empty()) {
            EXPECT_LT(fresh.front(), seen.front()) << day;
            EXPECT_GT(fresh.back(), seen.back()) << day;
        }
        seen.insert(seen.end(), fresh.begin(), fresh.end());
        std::sort(seen.begin(), seen.end());
    }

    // One /64 gains kHotPerDay new addresses a day: over a quarter of
    // the distinct set lands in its shard's run.
    std::size_t hot = 0;
    for (const address& a : seen) hot += a.hi() == kHot;
    EXPECT_EQ(hot, kHotPerDay * (days.size() - 1));
    EXPECT_GT(hot * 4, seen.size());

    expect_stream_matches_batch(feed, GetParam(), kGrowClasses,
                                {{2, 112}, {1, 56}});
}

// Non-default windows — short, backward-only, and with slew tolerance —
// over both feeds: a one-day ring (fwd 0) answers every earlier day by
// the store scan.
TEST_P(StreamDifferential, WindowsReproduceBatchExactly) {
    for (const std::vector<stream_record>& feed : {make_feed(), make_growing_feed()}) {
        const daily_series series = series_of(feed);
        const std::vector<int> days = feed_days(feed);
        for (const stability_options window : {stability_options{3, 2, 0},
                                               stability_options{10, 0, 0},
                                               stability_options{7, 7, 1}}) {
            stream_config cfg;
            cfg.shards = GetParam();
            cfg.window = window;
            stream_engine engine(cfg);
            for (const stream_record& rec : feed) engine.push(rec);
            engine.finish();
            expect_same_splits(engine, series, days);
        }
    }
}

// ------------------------------------------------------ property feeds

constexpr int kPropFirstDay = 300;
constexpr int kPropDays = 200;
const class_list kPropClasses = {{1, 64}, {3, 120}, {2, 48}};

// One seeded feed, as pushed: records in push order, late ones included.
struct property_feed {
    std::vector<stream_record> pushed;
    std::vector<stream_record> accepted;  // what the engine keeps
    std::uint64_t late = 0;
};

// Per day: a few of 64 long-lived addresses (each active on ~1 day in 8
// across all 200 days), returning addresses of the last week, fresh
// addresses in a few /64s and one /48, every record pushed 1-3 times in
// shuffled order, and now and then a record of an earlier day that the
// engine must drop as late. Days 340 and 341 are gaps.
property_feed make_property_feed(std::uint64_t seed) {
    rng r{seed};
    std::vector<address> anchors;
    for (unsigned i = 0; i < 64; ++i)
        anchors.push_back(address::from_pair(0x20010db800c00000ull + i % 5, mix64(i + seed)));
    std::vector<std::pair<int, address>> recent;
    property_feed out;
    for (int day = kPropFirstDay; day < kPropFirstDay + kPropDays; ++day) {
        if (day == 340 || day == 341) continue;
        std::vector<address> active;
        for (const address& a : anchors)
            if (r.chance(0.125) || day == kPropFirstDay || day == kPropFirstDay + kPropDays - 1)
                active.push_back(a);
        for (unsigned i = 0; i < 30 && !recent.empty(); ++i) {
            const auto& [when, a] = recent[r.uniform(recent.size())];
            if (day - when <= 7) active.push_back(a);
        }
        for (unsigned i = 0; i < 40; ++i) {
            const std::uint64_t hi = r.chance(0.5) ? 0x20010db800d00000ull + r.uniform(6)
                                                   : 0x20010db8aa000000ull + r.uniform(1u << 16);
            const address a = address::from_pair(hi, r.uniform(1u << 12));
            active.push_back(a);
            recent.emplace_back(day, a);
        }
        std::vector<stream_record> today;
        for (const address& a : active) {
            const unsigned copies = 1 + static_cast<unsigned>(r.uniform(3));
            for (unsigned k = 0; k < copies; ++k) today.push_back({day, a, 1 + r.uniform(4)});
        }
        std::shuffle(today.begin(), today.end(), r);
        for (std::size_t i = 0; i < today.size(); ++i) {
            out.pushed.push_back(today[i]);
            out.accepted.push_back(today[i]);
            if (i > 0 && day > kPropFirstDay && r.chance(0.02)) {  // late: dropped
                out.pushed.push_back({day - 1 - static_cast<int>(r.uniform(3)),
                                      anchors[r.uniform(anchors.size())], 1});
                ++out.late;
            }
        }
    }
    return out;
}

// The batch answers for one feed, computed once and shared by every
// shard count, batch size and window.
struct property_oracle {
    property_feed feed;
    batch_state batch;
    std::vector<int> days;
    // Per sealed day: density rows and MRA ratios over the days so far.
    std::map<int, std::vector<density_row>> day_density;
    std::map<int, std::array<double, 3>> day_gammas;

    explicit property_oracle(std::uint64_t seed)
        : feed(make_property_feed(seed)), batch(feed.accepted), days(feed_days(feed.accepted)) {
        std::vector<address> seen;
        for (const int day : days) {
            for (const stream_record& rec : feed.accepted)
                if (rec.day == day) seen.push_back(rec.addr);
            std::sort(seen.begin(), seen.end());
            seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
            radix_tree tree;
            for (const address& a : seen) tree.add(a);
            day_density[day] = compute_density_table(tree, kPropClasses);
            const mra_series mra = compute_mra_from_trie(tree);
            day_gammas[day] = {mra.ratio(64, 1), mra.ratio(60, 4), mra.ratio(48, 16)};
        }
    }
};

const property_oracle& oracle_for(std::uint64_t seed) {
    static std::map<std::uint64_t, property_oracle> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) it = cache.try_emplace(seed, seed).first;
    return it->second;
}

TEST_P(StreamDifferential, PropertyFeedsReproduceBatchExactly) {
    for (const std::uint64_t seed : {11u, 12u}) {
        const property_oracle& o = oracle_for(seed);
        ASSERT_GT(o.feed.late, 0u);
        // The feed reaches the third overflow word: some address spans
        // more than 192 days.
        const std::vector<std::uint64_t> spectrum = o.batch.store128.stability_spectrum(200);
        ASSERT_GT(spectrum[193], 0u) << seed;
        for (const stability_options window : {stability_options{}, stability_options{100, 5, 1}}) {
            const stability_analyzer an(o.batch.series, window);
            for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
                const std::string at = "seed=" + std::to_string(seed) +
                                       " back=" + std::to_string(window.window_back) +
                                       " batch=" + std::to_string(batch_size);
                stream_config cfg;
                cfg.shards = GetParam();
                cfg.batch_size = batch_size;
                cfg.window = window;
                cfg.density_classes = kPropClasses;
                stream_engine engine(cfg);
                // Blocks of 43 records, as the wire decoder hands them
                // over: duplicates straddle block and batch boundaries.
                simd::record_block block;
                for (std::size_t i = 0; i < o.feed.pushed.size(); ++i) {
                    const stream_record& rec = o.feed.pushed[i];
                    block.push_back(rec.addr.hi(), rec.addr.lo(), rec.day, rec.hits);
                    if (block.size() == 43 || i + 1 == o.feed.pushed.size()) {
                        engine.push_block(block);
                        block.clear();
                    }
                }
                engine.finish();

                const stream_stats stats = engine.stats();
                EXPECT_EQ(stats.late_dropped, o.feed.late) << at;
                EXPECT_EQ(stats.records, o.feed.accepted.size()) << at;
                EXPECT_EQ(stats.fed, stats.records + stats.late_dropped + stats.dropped) << at;
                EXPECT_EQ(stats.distinct_addresses, o.batch.distinct.size()) << at;
                EXPECT_EQ(stats.distinct_projected, o.batch.store64.distinct_count()) << at;

                // Every day report against the batch split, density and MRA.
                const auto reports = engine.reports();
                ASSERT_EQ(reports.size(), o.days.size()) << at;
                for (const day_report& rep : reports) {
                    const std::string on = at + " day=" + std::to_string(rep.day);
                    const stability_split want = an.classify_day(rep.ref_day, cfg.stability_n);
                    EXPECT_EQ(rep.stable, want.stable.size()) << on;
                    EXPECT_EQ(rep.not_stable, want.not_stable.size()) << on;
                    expect_same_rows(rep.density, o.day_density.at(rep.day), on);
                    const std::array<double, 3>& g = o.day_gammas.at(rep.day);
                    EXPECT_EQ(rep.gamma1, g[0]) << on;
                    EXPECT_EQ(rep.gamma4, g[1]) << on;
                    EXPECT_EQ(rep.gamma16, g[2]) << on;
                }

                // Splits of ring days (the last ones) and of days older
                // than the ring, including the first day and a gap day.
                const int last = o.days.back();
                for (const int ref : {last, last - 2, last - 30, 340, kPropFirstDay + 70,
                                      kPropFirstDay})
                    for (const unsigned n : {1u, 3u, 80u}) {
                        const stability_split want = an.classify_day(ref, n);
                        const stability_split got = engine.classify_day(ref, n);
                        EXPECT_EQ(got.stable, want.stable) << at << " ref=" << ref << " n=" << n;
                        EXPECT_EQ(got.not_stable, want.not_stable)
                            << at << " ref=" << ref << " n=" << n;
                    }

                EXPECT_EQ(engine.stability_spectrum(200), spectrum) << at;
                expect_same_rows(engine.density_table(kPropClasses),
                                 compute_density_table(o.batch.tree, kPropClasses), at);
                EXPECT_EQ(engine.distinct_addresses(), o.batch.distinct) << at;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StreamDifferential,
                         ::testing::Values(1u, 2u, 5u, 8u));

}  // namespace
}  // namespace v6
