// micro_wire_ingest — prices the network ingest front end: v6wire
// encode, raw decode, the enrichment lookup primitive, and the full
// collector-equivalent ingest path (decode + enrich + ledger + engine)
// with and without enrichment. The tracked claim (BENCH_wire.json,
// gated by scripts/check.sh): enabling ASN/geo enrichment costs less
// than 10% of the full wire-ingest path — the LPM walk and ledger
// update are small next to the engine's sharded day accounting.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_gbench.h"
#include "v6class/net/collector.h"
#include "v6class/net/enrich.h"
#include "v6class/net/wire.h"
#include "v6class/netgen/rng.h"

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

std::vector<std::vector<std::uint8_t>> make_datagrams(
    const std::vector<stream_record>& feed) {
    net::wire_encoder enc;
    std::vector<std::vector<std::uint8_t>> datagrams;
    enc.encode_all(feed, [&](const std::vector<std::uint8_t>& d) {
        datagrams.push_back(d);
    });
    return datagrams;
}

/// A routing table shaped like the feed: one /64 per network the pool
/// draws from, plus a covering /32 — every lookup walks to a real leaf.
const char* make_db_file() {
    static const char* path = [] {
        std::vector<net::enrich_entry> entries;
        entries.push_back({prefix::must_parse("2001:db8::/32"), {64496, {'z', 'z'}}});
        for (std::uint64_t i = 0; i < 64; ++i)
            entries.push_back(
                {prefix{address::from_pair(0x20010db800000000ull | i, 0), 64},
                 {static_cast<std::uint32_t>(64500 + i), {'d', 'e'}}});
        const char* p = "/tmp/v6class_bench_wire.db";
        if (!net::write_asn_db(p, entries)) {
            std::fprintf(stderr, "cannot write %s\n", p);
            std::abort();
        }
        return p;
    }();
    return path;
}

void BM_wire_encode(benchmark::State& state) {
    const auto feed = make_feed(50000, 4, 7);
    v6::bench::pmu_meter pmu(state, feed.size());
    for (auto _ : state) {
        net::wire_encoder enc;
        std::uint64_t bytes = 0;
        enc.encode_all(feed, [&](const std::vector<std::uint8_t>& d) {
            bytes += d.size();
        });
        benchmark::DoNotOptimize(bytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
}
BENCHMARK(BM_wire_encode);

void BM_enrich_lookup(benchmark::State& state) {
    net::enrichment enrich(make_db_file());
    if (!enrich.reload()) state.SkipWithError("db reload failed");
    const auto feed = make_feed(50000, 1, 7);
    std::shared_ptr<const net::asn_db> snap;
    std::uint64_t hits = 0;
    v6::bench::pmu_meter pmu(state, feed.size());
    for (auto _ : state)
        for (const stream_record& r : feed)
            if (enrich.lookup(r.addr, snap)) ++hits;
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
}
BENCHMARK(BM_enrich_lookup);

// The collector rx loop minus the socket: decode each datagram straight
// into SoA lanes and feed the engine through ingest_block (one
// push_block per datagram), the path the replay drivers run too. Arg(0)
// is the raw path; Arg(1) tags every record through the enrichment
// snapshot and the per-ASN ledger. The tracked claim is that /1 stays
// within 10% of /0 (items_per_second).
void BM_wire_ingest_block(benchmark::State& state) {
    const auto feed = make_feed(50000, 4, 7);
    const auto datagrams = make_datagrams(feed);
    net::enrichment enrich(make_db_file());
    if (!enrich.reload()) state.SkipWithError("db reload failed");
    const bool enriched = state.range(0) != 0;
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = 4;
        stream_engine engine(cfg);
        net::asn_ledger ledger;
        net::wire_decoder dec;
        net::lookup_cache cache;
        simd::record_block block;
        for (const auto& d : datagrams) {
            block.clear();
            dec.decode(d.data(), d.size(), block);
            net::ingest_block(engine, block, enriched ? &enrich : nullptr,
                              enriched ? &ledger : nullptr, &cache);
        }
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().records);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(enriched ? "enriched" : "raw");
}
// Real time, not CPU time: the engine's shard threads do the bulk of
// the work off the timing thread, and wall clock is what the <10%
// enrichment-overhead claim is about.
BENCHMARK(BM_wire_ingest_block)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_wire_decode_block(benchmark::State& state) {
    // Raw decode into lanes, no engine.
    const auto datagrams = make_datagrams(make_feed(50000, 4, 7));
    std::size_t total = 0;
    v6::bench::pmu_meter pmu(state, 50000 * 4);
    for (auto _ : state) {
        net::wire_decoder dec;
        simd::record_block block;
        for (const auto& d : datagrams) {
            block.clear();
            dec.decode(d.data(), d.size(), block);
            benchmark::DoNotOptimize(block.addrs.hi());
        }
        total = dec.stats().records;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total) *
                            state.iterations());
}
BENCHMARK(BM_wire_decode_block);

}  // namespace

int main(int argc, char** argv) {
    return v6::bench::run_gbench_main(argc, argv, "BENCH_wire.json");
}
