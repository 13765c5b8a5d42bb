// micro_wire_ingest — prices the network ingest front end: v6wire
// encode, raw decode, the enrichment table (lookups on a small clustered
// feed, on a scattered BGP-shaped feed, and on a ~100k-prefix table,
// plus that table's build, i.e. the reload cost), and the full
// collector-equivalent ingest path (decode + enrich + ledger + engine)
// with and without enrichment, on the clustered and the scattered feed.
// BENCH_wire.json holds the baselines scripts/check.sh gates on. The
// enrichment overhead, /1 against /0 in items per second, measured on
// a 4-vCPU container (min of 5 runs each): see DESIGN.md section 11,
// "Ingest-path cost".
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

const char* write_db(const char* path, const std::vector<net::enrich_entry>& entries) {
    if (!net::write_asn_db(path, entries)) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::abort();
    }
    return path;
}

/// A routing table shaped like the feed: one /64 per network the pool
/// draws from, plus a covering /32 — every lookup lands on a real leaf.
const char* make_db_file() {
    static const char* path = [] {
        std::vector<net::enrich_entry> entries;
        entries.push_back({prefix::must_parse("2001:db8::/32"), {64496, {'z', 'z'}}});
        for (std::uint64_t i = 0; i < 64; ++i)
            entries.push_back(
                {prefix{address::from_pair(0x20010db800000000ull | i, 0), 64},
                 {static_cast<std::uint32_t>(64500 + i), {'d', 'e'}}});
        return write_db("/tmp/v6class_bench_wire.db", entries);
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

/// A BGP-shaped table: 16 /32 allocations, each with 4 more specific
/// /40s, each of those with 2 /48s (208 nested routes).
std::vector<net::enrich_entry> nested_routes() {
    std::vector<net::enrich_entry> routes;
    std::uint32_t asn = 64500;
    for (std::uint64_t a = 0; a < 16; ++a) {
        const std::uint64_t p32 = (0x2a00ull + a * 0x31ull) << 48 | (a * 0x1009ull) << 32;
        routes.push_back({prefix{address::from_pair(p32, 0), 32}, {asn++, {'d', 'e'}}});
        for (std::uint64_t b = 0; b < 4; ++b) {
            const std::uint64_t p40 = p32 | (b * 0x47ull + 3) << 24;
            routes.push_back({prefix{address::from_pair(p40, 0), 40}, {asn++, {'n', 'l'}}});
            for (std::uint64_t c = 0; c < 2; ++c)
                routes.push_back({prefix{address::from_pair(p40 | (c * 0x9bull + 1) << 16, 0), 48},
                                  {asn++, {'f', 'r'}}});
        }
    }
    return routes;
}

/// Addresses shaped like the ingest_dup feed as the enrichment sees it:
/// 65,536 distinct /64s, a quarter each drawn under a random /32, /40
/// and /48 route and a quarter anywhere (almost all unrouted); four
/// addresses per /64, shuffled so consecutive records rarely share a
/// network.
std::vector<address> scattered_feed(const std::vector<net::enrich_entry>& routes) {
    rng r{11};
    std::vector<const prefix*> by_len[3];
    for (const net::enrich_entry& e : routes)
        by_len[e.pfx.length() == 32 ? 0 : e.pfx.length() == 40 ? 1 : 2].push_back(&e.pfx);
    std::vector<address> feed;
    for (std::size_t i = 0; i < 65536; ++i) {
        std::uint64_t hi = r();
        if (i % 4 != 3) {
            const auto& pool = by_len[i % 4];
            const prefix& p = *pool[r.uniform(pool.size())];
            hi = p.base().hi() | (hi >> p.length());
        }
        for (int k = 0; k < 4; ++k) feed.push_back(address::from_pair(hi, r()));
    }
    for (std::size_t i = feed.size() - 1; i > 0; --i)
        std::swap(feed[i], feed[r.uniform(i + 1)]);
    return feed;
}

/// The table's own cost on scattered traffic: one snapshot, one
/// asn_db::lookup per address, no /64 memo in front.
void BM_enrich_lookup_scattered(benchmark::State& state) {
    const auto routes = nested_routes();
    const net::asn_db db(routes);
    const auto feed = scattered_feed(routes);
    std::vector<std::uint64_t> his, los;
    for (const address& a : feed) {
        his.push_back(a.hi());
        los.push_back(a.lo());
    }
    // Sum the pointers rather than branch on them: a quarter of the
    // feed is unrouted, and a mispredicted null test would be the
    // harness's cost, not the table's.
    std::uintptr_t sum = 0;
    v6::bench::pmu_meter pmu(state, feed.size());
    for (auto _ : state)
        for (std::size_t i = 0; i < his.size(); ++i)
            sum += reinterpret_cast<std::uintptr_t>(db.lookup(his[i], los[i]));
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
}
BENCHMARK(BM_enrich_lookup_scattered);

/// About 100k synthetic prefixes, /20 to /64 with nesting, like a full
/// IPv6 table plus more specifics.
std::vector<net::enrich_entry> large_table() {
    rng r{13};
    std::vector<net::enrich_entry> entries;
    for (std::uint32_t i = 0; i < 100000; ++i) {
        const unsigned len = 20 + 4 * static_cast<unsigned>(r.uniform(12));  // 20..64
        // 4,096 /16s hold about 24 prefixes each, so more specifics
        // often nest inside shorter entries.
        const std::uint64_t top = (0x2000ull + r.uniform(4096)) << 48;
        const address base = address::from_pair(top | (r() >> 16), 0);
        entries.push_back({prefix{base, len}, {i, {'x', 'x'}}});
    }
    return entries;
}

/// Snapshot build time for the large table: what a reload costs off
/// the lock.
void BM_enrich_build_large(benchmark::State& state) {
    const auto entries = large_table();
    std::size_t intervals = 0;
    for (auto _ : state) {
        const net::asn_db db(entries);
        intervals = db.intervals();
        benchmark::DoNotOptimize(intervals);
    }
    state.counters["intervals"] = static_cast<double>(intervals);
    state.SetItemsProcessed(static_cast<std::int64_t>(entries.size()) *
                            state.iterations());
}
BENCHMARK(BM_enrich_build_large)->Unit(benchmark::kMillisecond);

/// Scattered lookups against the large table (every address falls
/// under one of the /16s its prefixes live in).
void BM_enrich_lookup_large(benchmark::State& state) {
    const net::asn_db db(large_table());
    rng r{17};
    std::vector<std::uint64_t> his, los;
    for (int i = 0; i < 262144; ++i) {
        his.push_back((0x2000ull + r.uniform(4096)) << 48 | (r() >> 16));
        los.push_back(r());
    }
    std::uintptr_t sum = 0;
    v6::bench::pmu_meter pmu(state, his.size());
    for (auto _ : state)
        for (std::size_t i = 0; i < his.size(); ++i)
            sum += reinterpret_cast<std::uintptr_t>(db.lookup(his[i], los[i]));
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(static_cast<std::int64_t>(his.size()) *
                            state.iterations());
}
BENCHMARK(BM_enrich_lookup_large);

// The collector rx loop minus the socket: decode each datagram straight
// into SoA lanes and feed the engine through ingest_block (one
// push_block per datagram), the path the replay drivers run too. Arg(0)
// is the raw path; Arg(1) tags every record through the enrichment
// snapshot (behind the per-/64 memo, as the replay drivers run it) and
// the per-ASN ledger.
void run_ingest(benchmark::State& state, const std::vector<stream_record>& feed,
                const char* db_path) {
    const auto datagrams = make_datagrams(feed);
    net::enrichment enrich(db_path);
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

/// The clustered feed: 64 /64s, so the memo answers most lookups.
void BM_wire_ingest_block(benchmark::State& state) {
    run_ingest(state, make_feed(50000, 4, 7), make_db_file());
}
// Real time, not CPU time: the engine's shard threads do the bulk of
// the work off the timing thread, and wall clock is what the
// enrichment overhead is about.
BENCHMARK(BM_wire_ingest_block)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The scattered feed over the nested routes, four days of 65,536
/// records each: the memo rarely hits, as on ingest_dup.
void BM_wire_ingest_scattered(benchmark::State& state) {
    const auto routes = nested_routes();
    const auto addrs = scattered_feed(routes);
    rng r{19};
    std::vector<stream_record> feed;
    for (std::size_t i = 0; i < addrs.size(); ++i)
        feed.push_back({static_cast<int>(i / 65536), addrs[i], 1 + r.uniform(4)});
    static const char* path = write_db("/tmp/v6class_bench_nested.db", routes);
    run_ingest(state, feed, path);
}
BENCHMARK(BM_wire_ingest_scattered)
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
