// micro_obs_overhead — cost of the observability layer on the stream
// ingest hot path. BM_stream_ingest_obs/1 is the full instrumented
// engine (queue-depth sampling, per-shard series, seal/report
// histograms); /0 is the same pipeline with cfg.metrics=false, which
// skips all sampled instrumentation and keeps only the core counters —
// equivalent to the pre-obs engine. Their items_per_second should agree
// to within 2%. The remaining benches price the primitives themselves.
#include <benchmark/benchmark.h>

#include <vector>

#include "v6class/netgen/rng.h"
#include "v6class/obs/metrics.h"
#include "v6class/stream/engine.h"

namespace {

using namespace v6;

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

// Arg(0): 1 = instrumented, 0 = cfg.metrics off. Compare the two rates:
// the instrumented run must stay within 2% of the uninstrumented one.
void BM_stream_ingest_obs(benchmark::State& state) {
    const auto feed = make_feed(50000, 4, 99);
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = 4;
        cfg.metrics = state.range(0) != 0;
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().distinct_addresses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(state.range(0) ? "instrumented" : "uninstrumented");
}
BENCHMARK(BM_stream_ingest_obs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The primitives in isolation, against a live (non-null) series.
void BM_counter_inc(benchmark::State& state) {
    obs::registry reg;
    const obs::counter c = reg.get_counter("bench_counter_total", {}, "");
    for (auto _ : state) c.inc();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_counter_inc);

void BM_gauge_set(benchmark::State& state) {
    obs::registry reg;
    const obs::gauge g = reg.get_gauge("bench_gauge", {}, "");
    std::int64_t v = 0;
    for (auto _ : state) g.set(v++);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_gauge_set);

void BM_histogram_observe(benchmark::State& state) {
    obs::registry reg;
    const obs::histogram h = reg.get_histogram(
        "bench_hist_seconds", obs::latency_buckets(), {}, "");
    double v = 0.0;
    for (auto _ : state) {
        h.observe(v);
        v += 1e-6;
        if (v > 20.0) v = 0.0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_histogram_observe);

// Default-constructed (null) handles: the disabled-instrumentation path
// must compile down to a branch on a null pointer.
void BM_null_handles(benchmark::State& state) {
    const obs::counter c;
    const obs::histogram h;
    for (auto _ : state) {
        c.inc();
        h.observe(1.0);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_null_handles);

}  // namespace

BENCHMARK_MAIN();
