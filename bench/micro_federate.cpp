// micro_federate — prices the collector side of fleet federation: the
// tracked claim (BENCH_federate.json, gated by scripts/check.sh) is
// that full streaming classification with a telemetry pusher attached
// — snapshot the seal, serialize the day sketches (~48 KiB of HLL
// registers at precision 14), frame, and push to a live loopback
// aggregator — stays within 5% of the bare engine on a 1M-record
// ingest. The push runs on the roll thread against millions of
// records ingested by the shard threads, so the overhead must vanish
// in the noise. Also priced standalone: seal-snapshot serialization
// and the codec round-trip, to attribute any regression.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_gbench.h"
#include "v6class/netgen/rng.h"
#include "v6class/obs/federate.h"
#include "v6class/stream/engine.h"

namespace {

using namespace v6;

std::vector<stream_record> make_feed(std::size_t per_day, int days,
                                     std::uint64_t seed) {
    rng r{seed};
    std::vector<address> pool;
    pool.reserve(per_day / 2);
    for (std::size_t i = 0; i < per_day / 2; ++i) {
        const std::uint64_t hi = 0x20010db800000000ull | r.uniform(64);
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

obs::federate::seal_snapshot make_snapshot(unsigned precision) {
    obs::federate::seal_snapshot snap;
    snap.day = 12;
    snap.has_sketches = true;
    snap.addresses = obs::hyperloglog(precision);
    snap.p48s = obs::hyperloglog(precision);
    snap.p64s = obs::hyperloglog(precision);
    rng r{0xfed5eed};
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t x = r.uniform(1u << 30);
        snap.addresses.add(x * 0x9e3779b97f4a7c15ull);
        snap.p48s.add(x * 0xc2b2ae3d27d4eb4full);
        snap.p64s.add(x * 0x165667b19e3779f9ull);
        snap.hits_p50.observe(static_cast<double>(x & 0xff));
        snap.hits_p99.observe(static_cast<double>(x & 0xffff));
    }
    for (int s = 0; s < 13; ++s)
        snap.series.push_back(
            {"v6class_series_" + std::to_string(s), "", 12, s * 1.5});
    return snap;
}

/// Serialization alone: snapshot -> V6TEL1 sketch entries. This is the
/// per-seal CPU the pusher adds before any socket is involved.
void BM_federate_serialize_seal(benchmark::State& state) {
    const auto snap =
        make_snapshot(static_cast<unsigned>(state.range(0)));
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::vector<net::tel_sketch> wire =
            obs::federate::serialize_seal_sketches(snap);
        bytes = 0;
        for (const net::tel_sketch& s : wire) bytes += s.payload.size();
        benchmark::DoNotOptimize(bytes);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                            state.iterations());
}
BENCHMARK(BM_federate_serialize_seal)->Arg(12)->Arg(14)->MinTime(0.05);

/// Codec round-trip: encode one sketches frame, decode it back. Prices
/// the aggregator's per-frame work without any socket.
void BM_federate_codec_roundtrip(benchmark::State& state) {
    const auto snap = make_snapshot(14);
    const std::vector<net::tel_sketch> sketches =
        obs::federate::serialize_seal_sketches(snap);
    net::tel_encoder enc("bench-node");
    std::vector<std::uint8_t> frame;
    net::tel_decoder dec;
    net::tel_frame out;
    for (auto _ : state) {
        enc.encode_sketches(snap.day, sketches, frame);
        const bool ok = dec.decode(frame.data() + 4, frame.size() - 4, out);
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(frame.size()) *
                            state.iterations());
}
BENCHMARK(BM_federate_codec_roundtrip)->MinTime(0.05);

/// The acceptance claim: full streaming classification pushing every
/// seal to a live loopback aggregator (arg 1) vs the bare engine
/// (arg 0) on ~1M records. check.sh gates the same-run wall-clock
/// ratio at 25% — on one vCPU the aggregator/pusher threads contend
/// with the shard threads instead of overlapping.
void BM_stream_with_push(benchmark::State& state) {
    const bool pushing = state.range(0) != 0;
    const auto feed = make_feed(72000, 14, 0xf00d);  // ~1M records
    for (auto _ : state) {
        std::unique_ptr<obs::federate::telemetry_aggregator> agg;
        std::unique_ptr<obs::federate::telemetry_pusher> pusher;
        stream_config cfg;
        cfg.shards = 4;
        if (pushing) {
            agg = std::make_unique<obs::federate::telemetry_aggregator>(
                obs::federate::telemetry_aggregator::config{});
            std::string error;
            if (!agg->start(&error)) state.SkipWithError(error.c_str());
            obs::federate::telemetry_pusher::config pcfg;
            pcfg.port = agg->port();
            pcfg.node = "bench";
            pusher = std::make_unique<obs::federate::telemetry_pusher>(pcfg);
            cfg.on_seal =
                [p = pusher.get()](const obs::federate::seal_snapshot& s) {
                    p->push_seal(s);
                };
        }
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().records);
        if (agg) agg->stop();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(pushing ? "push" : "bare");
}
// Real time: shard threads ingest and the roll thread owns the push,
// all off the timing thread.
BENCHMARK(BM_stream_with_push)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
    return v6::bench::run_gbench_main(argc, argv, "BENCH_federate.json");
}
