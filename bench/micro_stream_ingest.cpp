// micro_stream_ingest — throughput of the streaming ingest engine:
// records/sec pushed through the full pipeline (staging, batching,
// shard queues, worker threads, day seals) at 1 vs 4 shards, the
// bounded-queue hot path in isolation, and the cost of one seal plus
// its day report as history grows. The tracked claims (BENCH_stream.json,
// gated by scripts/check.sh): seal and report are O(day) — the per-seal
// time of BM_stream_seal_history is flat from 4 to 16 days of history —
// and the seal runs per shard, in parallel, so at 16 days 4 shards seal
// well under the time of 1.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.h"
#include "v6class/netgen/rng.h"
#include "v6class/stream/bounded_queue.h"
#include "v6class/stream/engine.h"

namespace {

using namespace v6;

// A multi-day feed with realistic duplication (clients returning).
std::vector<stream_record> make_feed(std::size_t per_day, int days,
                                     std::uint64_t seed) {
    rng r{seed};
    std::vector<address> pool;
    pool.reserve(per_day / 2);
    for (std::size_t i = 0; i < per_day / 2; ++i) {
        const std::uint64_t hi = 0x20010db800000000ull | r.uniform(1u << 10);
        const std::uint64_t lo = r.uniform(1u << 20);
        pool.push_back(address::from_pair(hi, lo));
    }
    std::vector<stream_record> feed;
    feed.reserve(per_day * static_cast<std::size_t>(days));
    for (int d = 0; d < days; ++d)
        for (std::size_t i = 0; i < per_day; ++i)
            feed.push_back({d, pool[r.uniform(pool.size())], 1 + r.uniform(4)});
    return feed;
}

// Arg(0): shard count. Reported rate is end-to-end: every record pushed,
// every day sealed, all threads joined.
void BM_stream_ingest(benchmark::State& state) {
    const auto feed = make_feed(50000, 4, 99);
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = static_cast<unsigned>(state.range(0));
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().distinct_addresses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
}
BENCHMARK(BM_stream_ingest)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Same pipeline, but including a snapshot query per sealed day — the
// monitoring pattern (ingest + concurrent reads).
void BM_stream_ingest_with_snapshots(benchmark::State& state) {
    const auto feed = make_feed(50000, 4, 99);
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = static_cast<unsigned>(state.range(0));
        stream_engine engine(cfg);
        int last_day = -1;
        for (const stream_record& rec : feed) {
            if (rec.day != last_day && last_day >= 0)
                benchmark::DoNotOptimize(engine.snapshot().distinct_addresses);
            last_day = rec.day;
            engine.push(rec);
        }
        engine.finish();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
}
BENCHMARK(BM_stream_ingest_with_snapshots)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// A feed where every day brings `fresh` first sightings scattered over
// 65536 /64s, plus as many returning addresses: history grows by the
// same amount each day.
std::vector<stream_record> make_growing_feed(std::size_t fresh, int days,
                                             std::uint64_t seed) {
    rng r{seed};
    std::vector<address> seen;
    std::vector<stream_record> feed;
    feed.reserve(2 * fresh * static_cast<std::size_t>(days));
    for (int d = 0; d < days; ++d) {
        for (std::size_t i = 0; i < fresh && !seen.empty(); ++i)
            feed.push_back({d, seen[r.uniform(seen.size())], 1});
        for (std::size_t i = 0; i < fresh; ++i) {
            const std::uint64_t hi = 0x20010db800000000ull | r.uniform(1u << 16);
            seen.push_back(address::from_pair(hi, r()));
            feed.push_back({d, seen.back(), 1 + r.uniform(4)});
        }
    }
    return feed;
}

// Args: shard count, days of history. Items are seals; each iteration
// replays the whole feed and waits for every day report, so with O(day)
// seal and report work the per-seal time stays flat as history grows
// 4 -> 16 days, and O(history) work shows as a growing per-seal time.
// The 96-day row runs the addresses that return past their first 64
// days into the day records' overflow words, so the seal that grows
// them is timed too (it is not expected to stay flat: the run merge
// still moves the whole run once per seal).
// A +-1 day stability window classifies from the second day on at any
// history length. The feed arrives as the wire decoder hands it over,
// in blocks pushed under one lock each, so the single pusher is not the
// bottleneck and the time is the seals'. Three replays per run,
// whatever --benchmark_min_time says: a process's first replay spends
// most of its seal time faulting in fresh pages (a daemon pays that
// once, as its history grows), and on a VM those faults do not scale
// across the shards' concurrent seals, which would hide the seal work
// itself. Wall clock: the roll thread fans each seal out over the work
// pool, one task per shard.
void BM_stream_seal_history(benchmark::State& state) {
    const int days = static_cast<int>(state.range(1));
    const auto feed = make_growing_feed(20000, days, 7);
    std::vector<simd::record_block> blocks;
    for (std::size_t i = 0; i < feed.size(); ++i) {
        if (i % simd::address_block::kDefaultCapacity == 0) blocks.emplace_back();
        blocks.back().push_back(feed[i].addr.hi(), feed[i].addr.lo(),
                                feed[i].day, feed[i].hits);
    }
    stream_config cfg;
    cfg.shards = static_cast<unsigned>(state.range(0));
    cfg.window = {1, 1, 0};
    for (auto _ : state) {
        stream_engine engine(cfg);
        for (const simd::record_block& block : blocks) engine.push_block(block);
        engine.finish();
        benchmark::DoNotOptimize(engine.reports(static_cast<std::size_t>(days) - 1));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(days) * state.iterations());
}
BENCHMARK(BM_stream_seal_history)
    ->Args({4, 4})
    ->Args({1, 16})
    ->Args({4, 16})
    ->Args({4, 96})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_bounded_queue_roundtrip(benchmark::State& state) {
    bounded_queue<int> q(64);
    for (auto _ : state) {
        q.try_push(1);
        benchmark::DoNotOptimize(q.pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_bounded_queue_roundtrip);

}  // namespace

int main(int argc, char** argv) {
    return v6::bench::run_gbench_main(argc, argv, "BENCH_stream.json");
}
