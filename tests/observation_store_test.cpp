// Tests for the day-bitmap observation store, including the ablation
// cross-check against the merge-based stability analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "v6class/netgen/rng.h"
#include "v6class/simd/lane.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

address nth(unsigned i) {
    return address::from_pair(0x20010db800000000ull, 0x5000u + i);
}

TEST(ObservationStoreTest, EmptyStore) {
    observation_store store;
    EXPECT_EQ(store.distinct_count(), 0u);
    EXPECT_EQ(store.days_seen(nth(1)), 0u);
    EXPECT_FALSE(store.first_last(nth(1)).has_value());
    EXPECT_FALSE(store.is_stable(nth(1), 0));
    EXPECT_TRUE(store.stable_addresses(1).empty());
}

TEST(ObservationStoreTest, BasicRecording) {
    observation_store store;
    store.record_day(10, {nth(1), nth(2)});
    store.record_day(12, {nth(1)});
    EXPECT_EQ(store.distinct_count(), 2u);
    EXPECT_EQ(store.days_seen(nth(1)), 2u);
    EXPECT_EQ(store.days_seen(nth(2)), 1u);
    const auto fl = store.first_last(nth(1));
    ASSERT_TRUE(fl.has_value());
    EXPECT_EQ(fl->first, 10);
    EXPECT_EQ(fl->second, 12);
    EXPECT_TRUE(store.is_stable(nth(1), 2));
    EXPECT_FALSE(store.is_stable(nth(1), 3));
    EXPECT_TRUE(store.is_stable(nth(2), 0));
}

TEST(ObservationStoreTest, IdempotentRecording) {
    observation_store store;
    store.record_day(5, {nth(1)});
    store.record_day(5, {nth(1)});
    EXPECT_EQ(store.days_seen(nth(1)), 1u);
}

TEST(ObservationStoreTest, OutOfOrderDays) {
    observation_store store;
    store.record_day(20, {nth(1)});
    store.record_day(3, {nth(1)});  // earlier day arrives later
    store.record_day(10, {nth(1)});
    EXPECT_EQ(store.days_seen(nth(1)), 3u);
    const auto fl = store.first_last(nth(1));
    EXPECT_EQ(fl->first, 3);
    EXPECT_EQ(fl->second, 20);
}

TEST(ObservationStoreTest, LongSpansUseOverflow) {
    observation_store store;
    for (int day = 0; day <= 400; day += 40) store.record_day(day, {nth(7)});
    EXPECT_EQ(store.days_seen(nth(7)), 11u);
    EXPECT_TRUE(store.is_stable(nth(7), 400));
    const auto gaps = store.gap_histogram(100);
    EXPECT_EQ(gaps[40], 10u);
}

// The next four tests pin down record::shift_right (reached via an
// earlier day arriving after later ones): the rebase must carry bits
// across the inline/overflow 64-bit word boundary, handle shifts of
// exactly one word and of multiple words, and lose no set bit.

TEST(ObservationStoreTest, RebaseCarriesAcrossWordBoundary) {
    observation_store store;
    store.record_day(70, {nth(1)});  // bit 0 of the inline word
    store.record_day(0, {nth(1)});   // rebase: old bit must land at 70
    EXPECT_EQ(store.days_seen(nth(1)), 2u);
    const auto fl = store.first_last(nth(1));
    ASSERT_TRUE(fl.has_value());
    EXPECT_EQ(fl->first, 0);
    EXPECT_EQ(fl->second, 70);
    const auto gaps = store.gap_histogram(100);
    EXPECT_EQ(gaps[70], 1u);
}

TEST(ObservationStoreTest, RebaseByExactlyOneWord) {
    observation_store store;
    store.record_day(64, {nth(2)});
    store.record_day(0, {nth(2)});  // shift by exactly 64
    EXPECT_EQ(store.days_seen(nth(2)), 2u);
    EXPECT_TRUE(store.is_stable(nth(2), 64));
    EXPECT_FALSE(store.is_stable(nth(2), 65));
    const auto gaps = store.gap_histogram(100);
    EXPECT_EQ(gaps[64], 1u);
}

TEST(ObservationStoreTest, RebaseByMoreThanOneWord) {
    observation_store store;
    store.record_day(200, {nth(3)});
    store.record_day(201, {nth(3)});
    store.record_day(0, {nth(3)});  // shift by 200: two whole words + 8 bits
    EXPECT_EQ(store.days_seen(nth(3)), 3u);
    const auto fl = store.first_last(nth(3));
    EXPECT_EQ(fl->first, 0);
    EXPECT_EQ(fl->second, 201);
    const auto gaps = store.gap_histogram(250);
    EXPECT_EQ(gaps[200], 1u);
    EXPECT_EQ(gaps[1], 1u);
}

TEST(ObservationStoreTest, RepeatedRebasesLoseNoBits) {
    observation_store store;
    // Straddle both sides of the word boundary, then rebase three times
    // by amounts that are not multiples of 64.
    const int days[] = {300, 310, 350, 363, 364, 390};
    for (const int d : days) store.record_day(d, {nth(4)});
    store.record_day(170, {nth(4)});  // shift 130
    store.record_day(100, {nth(4)});  // shift 70
    store.record_day(99, {nth(4)});   // shift 1
    EXPECT_EQ(store.days_seen(nth(4)), 9u);
    const auto fl = store.first_last(nth(4));
    EXPECT_EQ(fl->first, 99);
    EXPECT_EQ(fl->second, 390);
    // Every consecutive-day gap must survive the rebases.
    const auto gaps = store.gap_histogram(200);
    EXPECT_EQ(gaps[1], 2u);    // 99->100, 363->364
    EXPECT_EQ(gaps[70], 1u);   // 100->170
    EXPECT_EQ(gaps[130], 1u);  // 170->300
    EXPECT_EQ(gaps[10], 1u);   // 300->310
    EXPECT_EQ(gaps[40], 1u);   // 310->350
    EXPECT_EQ(gaps[13], 1u);   // 350->363
    EXPECT_EQ(gaps[26], 1u);   // 364->390
}

TEST(ObservationStoreTest, PrefixProjection) {
    observation_store store(64);
    store.record_day(1, {address::from_pair(0xaa, 1), address::from_pair(0xaa, 2)});
    EXPECT_EQ(store.distinct_count(), 1u);  // same /64
    EXPECT_EQ(store.days_seen(address::from_pair(0xaa, 99)), 1u);
}

// The 16-byte records' reads (first and last day, day count, membership
// and the window) against a brute-force scan of each address's active
// days, over spans far past one 64-day word and after earlier days were
// recorded last (each rebasing the bitmaps and moving pool blocks).
TEST(ObservationStoreTest, WindowMatchesBruteForceScan) {
    constexpr unsigned kAddrs = 48;
    constexpr int kDays = 230;
    rng r{77};
    std::vector<std::set<int>> active(kAddrs);
    std::vector<std::pair<int, simd::address_block>> schedule;
    for (int day = 0; day < kDays; ++day) {
        simd::address_block block(0);
        for (unsigned i = 0; i < kAddrs; ++i) {
            // Address 0 is active once (no overflow words); the others
            // with rising density, some almost every day.
            const bool on = i == 0 ? day == 150 : r.chance(0.02 * (i % 8) + 0.01);
            if (!on) continue;
            block.push_back(nth(i));
            active[i].insert(day);
        }
        if (!block.empty()) schedule.emplace_back(day, std::move(block));
    }
    // Record the later half first, then the earlier half newest first:
    // every early day arrives after later ones and shifts the record.
    std::stable_partition(schedule.begin(), schedule.end(),
                          [](const auto& e) { return e.first >= kDays / 2; });
    std::reverse(std::find_if(schedule.begin(), schedule.end(),
                              [](const auto& e) { return e.first < kDays / 2; }),
                 schedule.end());
    day_records store;
    constexpr std::uint32_t kNone = 0xffffffffu;
    std::vector<std::uint32_t> slot_of(kAddrs, kNone);
    for (const auto& [day, block] : schedule)
        for (std::size_t k = 0; k < block.size(); ++k) {
            std::uint32_t& slot = slot_of[block.lo_at(k) - 0x5000u];
            if (slot == kNone)
                slot = store.add(day);
            else
                store.mark(slot, day);
        }
    ASSERT_GT(active[7].size(), 20u);
    ASSERT_GT(*active[7].rbegin() - *active[7].begin(), 128);

    for (unsigned i = 0; i < kAddrs; ++i) {
        if (active[i].empty()) continue;
        const std::uint32_t slot = slot_of[i];
        EXPECT_EQ(store.first_day(slot), *active[i].begin()) << i;
        EXPECT_EQ(store.last_day(slot), *active[i].rbegin()) << i;
        EXPECT_EQ(store.days(slot), active[i].size()) << i;
        for (int day = -3; day < kDays + 3; ++day)
            EXPECT_EQ(store.active_on(slot, day), active[i].count(day) == 1)
                << i << " day " << day;
        for (int lo = -70; lo < kDays + 10; lo += 9)
            for (const int width : {0, 1, 14, 63, 64, 65, 127, 128, 200, 400}) {
                const int hi = lo + width;
                const auto first = active[i].lower_bound(lo);
                const auto got = store.window(slot, lo, hi);
                if (first == active[i].end() || *first > hi) {
                    EXPECT_FALSE(got.has_value()) << i << " [" << lo << ", " << hi << "]";
                    continue;
                }
                const int last = *std::prev(active[i].upper_bound(hi));
                ASSERT_TRUE(got.has_value()) << i << " [" << lo << ", " << hi << "]";
                EXPECT_EQ(got->first, *first) << i << " [" << lo << ", " << hi << "]";
                EXPECT_EQ(got->second, last) << i << " [" << lo << ", " << hi << "]";
            }
    }
}

// simd::lane, the growable storage under day_records and the stream's
// sorted runs: growth through many pages (each a remap) keeps every
// value, and new values are zero.
TEST(SimdLaneTest, GrowthKeepsValues) {
    simd::lane<std::uint64_t> a;
    EXPECT_TRUE(a.empty());
    for (std::uint64_t i = 0; i < 300000; ++i) a.push_back(i * 7);
    ASSERT_EQ(a.size(), 300000u);
    EXPECT_GE(a.capacity(), a.size());
    for (std::uint64_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i * 7) << i;
    a.resize(300010);
    EXPECT_EQ(a[300009], 0u);
    EXPECT_EQ(a[299999], 299999u * 7);
}

// day_records: the 16-byte record keeps word 0 inline and the words past
// it in a shared, length-prefixed pool; the last day is read off the top
// set bit.

TEST(DayRecordsTest, LastDayIsTheTopSetBit) {
    day_records recs;
    const std::uint32_t a = recs.add(10);
    EXPECT_EQ(recs.last_day(a), 10);
    recs.mark(a, 73);  // bit 63: still word 0
    EXPECT_EQ(recs.last_day(a), 73);
    recs.mark(a, 74);  // bit 64: the first pool word
    EXPECT_EQ(recs.last_day(a), 74);
    recs.mark(a, 40);  // below the top: the last day stays
    EXPECT_EQ(recs.last_day(a), 74);
    recs.mark(a, 10 + 64 * 4 + 5);
    EXPECT_EQ(recs.last_day(a), 10 + 64 * 4 + 5);
    recs.mark(a, 3);  // an earlier first day shifts every word
    EXPECT_EQ(recs.first_day(a), 3);
    EXPECT_EQ(recs.last_day(a), 10 + 64 * 4 + 5);
    EXPECT_EQ(recs.days(a), 6u);
}

// An earlier day arriving shifts the bitmap up across pool words: by
// less than a word with a carry into a new top word, by exactly one and
// by several words, and with no carry (the top word must stay non-zero
// and no empty word may be added).
TEST(DayRecordsTest, ShiftUpAcrossPoolWords) {
    for (const int first : {299, 236, 200, 111, 40, 0}) {
        std::set<int> want = {300, 301, 363, 364, 427, 500};
        day_records recs;
        const std::uint32_t slot = recs.add(300);
        for (const int d : want) recs.mark(slot, d);
        recs.mark(slot, first);
        want.insert(first);
        EXPECT_EQ(recs.first_day(slot), first);
        EXPECT_EQ(recs.last_day(slot), 500) << first;
        EXPECT_EQ(recs.days(slot), want.size()) << first;
        for (int d = first - 2; d <= 502; ++d)
            EXPECT_EQ(recs.active_on(slot, d), want.count(d) == 1)
                << "first " << first << " day " << d;
    }
}

// Records grow through the pool in turn, so each growth past its block
// moves the record to the pool's end; no record may lose or gain a bit
// and the records' spans must not bleed into each other.
TEST(DayRecordsTest, PoolRelocationKeepsEveryRecordIntact) {
    constexpr unsigned kRecords = 5;
    day_records recs;
    std::vector<std::set<int>> want(kRecords);
    for (unsigned i = 0; i < kRecords; ++i) {
        recs.add(0);
        want[i].insert(0);
    }
    rng r{9};
    for (int day = 1; day < 700; ++day)
        for (unsigned i = 0; i < kRecords; ++i)
            if (r.chance(0.1 + 0.15 * i)) {
                recs.mark(i, day);
                want[i].insert(day);
            }
    for (unsigned i = 0; i < kRecords; ++i) {
        EXPECT_EQ(recs.last_day(i), *want[i].rbegin()) << i;
        EXPECT_EQ(recs.days(i), want[i].size()) << i;
        for (int d = 0; d < 702; ++d)
            ASSERT_EQ(recs.active_on(i, d), want[i].count(d) == 1) << i << " day " << d;
    }
}

// Gaps that end on, start on and straddle 64-day word boundaries.
TEST(DayRecordsTest, GapHistogramAcrossWordBoundaries) {
    day_records recs;
    const std::uint32_t a = recs.add(0);
    for (const int d : {63, 64, 127, 128, 200, 320}) recs.mark(a, d);
    const std::uint32_t b = recs.add(5);
    recs.mark(b, 5 + 64);  // gap of exactly one word
    const auto gaps = recs.gap_histogram(130);
    std::vector<std::uint64_t> want(131, 0);
    ++want[63];   // 0 -> 63
    ++want[1];    // 63 -> 64
    ++want[63];   // 64 -> 127
    ++want[1];    // 127 -> 128
    ++want[72];   // 128 -> 200
    ++want[120];  // 200 -> 320
    ++want[64];   // b
    EXPECT_EQ(gaps, want);
}

TEST(ObservationStoreTest, SpectrumIsMonotoneAndAnchored) {
    observation_store store;
    rng r{50};
    for (int day = 0; day < 30; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 300; ++i)
            if (r.chance(0.25)) active.push_back(nth(i));
        store.record_day(day, active);
    }
    const auto spectrum = store.stability_spectrum(30);
    EXPECT_EQ(spectrum[0], store.distinct_count());
    for (std::size_t n = 1; n < spectrum.size(); ++n)
        EXPECT_LE(spectrum[n], spectrum[n - 1]);
    // spectrum[n] must equal the count of stable_addresses(n).
    for (unsigned n : {1u, 5u, 12u, 29u})
        EXPECT_EQ(spectrum[n], store.stable_addresses(n).size()) << n;
}

TEST(ObservationStoreTest, GapHistogramCountsConsecutiveReturns) {
    observation_store store;
    store.record_day(1, {nth(1)});
    store.record_day(2, {nth(1)});
    store.record_day(9, {nth(1)});
    store.record_day(4, {nth(2)});
    store.record_day(5, {nth(2)});
    const auto gaps = store.gap_histogram(10);
    EXPECT_EQ(gaps[1], 2u);  // 1->2 and 4->5
    EXPECT_EQ(gaps[7], 1u);  // 2->9
}

TEST(ObservationStoreTest, GapsAboveMaxAccumulateInLastBucket) {
    observation_store store;
    store.record_day(0, {nth(1)});
    store.record_day(500, {nth(1)});
    const auto gaps = store.gap_histogram(16);
    EXPECT_EQ(gaps[16], 1u);
}

// Ablation cross-check (DESIGN.md #3): within a full-coverage window the
// bitmap store's whole-record stability agrees with the merge-based
// analyzer's windowed classification.
class StoreVsMerge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreVsMerge, AgreeOnStableSets) {
    rng r{GetParam() * 3 + 1};
    daily_series series;
    observation_store store;
    const int ref = 7;
    for (int day = 0; day <= 14; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 400; ++i)
            if (r.chance(0.3)) active.push_back(nth(i));
        series.set_day(day, active);
        store.record_day(day, active);
    }
    stability_analyzer an(series);  // window (-7,+7) covers all days
    for (unsigned n : {1u, 3u, 7u}) {
        const auto merge_stable = an.classify_day(ref, n).stable;
        // The store's stable set over the whole record, filtered to the
        // reference day's actives, must match.
        std::vector<address> store_stable;
        for (const address& a : series.day(ref))
            if (store.is_stable(a, n)) store_stable.push_back(a);
        EXPECT_EQ(merge_stable, store_stable) << "n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreVsMerge, ::testing::Range<std::uint64_t>(1, 9));

// Property: record_day is order-independent and duplicate-insensitive. A
// feed that arrives shuffled, with days re-recorded and in-day
// duplicates, must leave the store in exactly the state of the in-order
// feed — distinct count, spectrum, per-address days/span, stable sets.
class StoreScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreScheduleProperty, ShuffledDuplicatedScheduleIsEquivalent) {
    rng r{GetParam() * 11 + 5};
    // One (day, active-set) entry per day, generated in order.
    std::vector<std::pair<int, std::vector<address>>> schedule;
    for (int day = 0; day < 25; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 200; ++i)
            if (r.chance(0.2)) active.push_back(nth(i));
        schedule.emplace_back(day, std::move(active));
    }

    observation_store in_order;
    for (const auto& [day, active] : schedule) in_order.record_day(day, active);

    // Adversarial replay: shuffle the days, record each 1-3 times, and
    // duplicate addresses within each delivery.
    std::vector<std::pair<int, std::vector<address>>> replay;
    for (const auto& entry : schedule) {
        const unsigned repeats = 1 + static_cast<unsigned>(r.uniform(3));
        for (unsigned k = 0; k < repeats; ++k) replay.push_back(entry);
    }
    std::shuffle(replay.begin(), replay.end(), r);
    observation_store scrambled;
    for (auto& [day, active] : replay) {
        std::vector<address> noisy = active;
        for (const address& a : active)
            if (r.chance(0.3)) noisy.push_back(a);
        std::shuffle(noisy.begin(), noisy.end(), r);
        scrambled.record_day(day, noisy);
    }

    EXPECT_EQ(scrambled.distinct_count(), in_order.distinct_count());
    EXPECT_EQ(scrambled.stability_spectrum(25), in_order.stability_spectrum(25));
    EXPECT_EQ(scrambled.gap_histogram(25), in_order.gap_histogram(25));
    for (unsigned n : {1u, 5u, 12u})
        EXPECT_EQ(scrambled.stable_addresses(n), in_order.stable_addresses(n)) << n;
    for (unsigned i = 0; i < 200; ++i) {
        EXPECT_EQ(scrambled.days_seen(nth(i)), in_order.days_seen(nth(i))) << i;
        EXPECT_EQ(scrambled.first_last(nth(i)), in_order.first_last(nth(i))) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreScheduleProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace v6
