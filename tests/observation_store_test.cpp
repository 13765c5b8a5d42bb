// Tests for the day-bitmap observation store, including the ablation
// cross-check against the merge-based stability analyzer.
#include <gtest/gtest.h>

#include <algorithm>

#include "v6class/netgen/rng.h"
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

TEST(ObservationStoreTest, KeysPastAPreviousCountAreTheDaysFirstSightings) {
    observation_store store;
    store.record_day(10, {nth(4), nth(2)});
    const std::size_t before = store.distinct_count();
    store.record_day(11, {nth(1), nth(2), nth(3), nth(4)});
    simd::address_block tail(0);
    store.append_keys(tail, before);
    EXPECT_EQ(tail.to_vector(), (std::vector<address>{nth(1), nth(3)}));
    simd::address_block all(0);
    store.append_keys(all, 0);
    EXPECT_EQ(all.to_vector(),
              (std::vector<address>{nth(4), nth(2), nth(1), nth(3)}));
    simd::address_block none(0);
    store.append_keys(none, store.distinct_count());
    EXPECT_TRUE(none.empty());
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
