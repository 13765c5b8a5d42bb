// micro_tsdb — prices the durable flight recorder: framed append +
// commit throughput, open()-time recovery of a populated directory,
// indexed range reads, and — the tracked claim (BENCH_tsdb.json, gated
// by scripts/check.sh) — the whole-pipeline cost of seal-time tsdb
// flushing: streaming classification with a flight recorder attached
// stays within 5% of the bare engine, because a seal writes tens of
// points per day against millions of ingested records.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_gbench.h"
#include "v6class/netgen/rng.h"
#include "v6class/obs/federate.h"
#include "v6class/obs/tsdb.h"
#include "v6class/stream/engine.h"

namespace {

using namespace v6;
namespace fs = std::filesystem;

/// A fresh scratch directory per benchmark run, removed on destruction.
struct scratch_dir {
    std::string path;
    explicit scratch_dir(const char* tag)
        : path((fs::temp_directory_path() /
                (std::string("v6tsdb_bench_") + tag + "_" +
                 std::to_string(::getpid())))
                   .string()) {
        fs::remove_all(path);
    }
    ~scratch_dir() { fs::remove_all(path); }
};

void BM_tsdb_append_commit(benchmark::State& state) {
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    scratch_dir dir("append");
    auto db = obs::tsdb::database::open(dir.path);
    std::int64_t ts = 0;
    // 13 series, the live-series count a real seal flushes.
    std::vector<std::uint32_t> ids;
    for (int s = 0; s < 13; ++s)
        ids.push_back(db->series_id("series_" + std::to_string(s), ""));
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) {
            ++ts;
            for (const std::uint32_t id : ids)
                db->append(id, ts, static_cast<double>(ts) * 0.25);
        }
        benchmark::DoNotOptimize(db->commit());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch * ids.size()));
    state.SetLabel(std::to_string(ids.size()) + " series");
}
// batch = sealed days buffered between commits (1 = the daemon's shape).
// The single-day case is one tiny write() per iteration, so syscall
// jitter dominates short runs: pin a longer min time than the gate's
// default so the tracked minimum is stable across repetitions.
BENCHMARK(BM_tsdb_append_commit)->Arg(1)->Arg(64)->MinTime(0.05);

void BM_tsdb_recovery(benchmark::State& state) {
    const std::int64_t days = state.range(0);
    scratch_dir dir("recover");
    {
        auto db = obs::tsdb::database::open(dir.path);
        for (std::int64_t d = 0; d < days; ++d) {
            for (int s = 0; s < 13; ++s)
                db->append("series_" + std::to_string(s), "", d, d * 1.0);
            db->commit();
        }
    }
    std::uint64_t recovered = 0;
    for (auto _ : state) {
        auto db = obs::tsdb::database::open(dir.path);
        recovered = db->recovered_points();
        benchmark::DoNotOptimize(recovered);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(recovered));
}
BENCHMARK(BM_tsdb_recovery)->Arg(365)->Unit(benchmark::kMillisecond);

void BM_tsdb_query_range(benchmark::State& state) {
    scratch_dir dir("query");
    auto db = obs::tsdb::database::open(dir.path);
    constexpr std::int64_t kDays = 3650;  // a decade of daily points
    for (std::int64_t d = 0; d < kDays; ++d) db->append("s", "", d, d * 1.0);
    db->commit();
    std::int64_t from = 0;
    std::size_t got = 0;
    for (auto _ : state) {
        const auto pts = db->query("s", "", from % kDays, from % kDays + 400);
        got = pts.size();
        benchmark::DoNotOptimize(got);
        from += 37;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(got));
}
BENCHMARK(BM_tsdb_query_range)->MinTime(0.05);

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

/// The acceptance claim: full streaming classification with the flight
/// recorder flushing every seal (arg 1) vs the bare engine (arg 0).
void BM_stream_with_tsdb(benchmark::State& state) {
    const bool durable = state.range(0) != 0;
    const auto feed = make_feed(20000, 14, 0xf1e57);
    for (auto _ : state) {
        scratch_dir dir("seal");
        std::unique_ptr<obs::tsdb::database> db;
        obs::event_log events;
        std::optional<obs::tsdb::seal_sink> sink;
        stream_config cfg;
        cfg.shards = 4;
        if (durable) {
            db = obs::tsdb::database::open(dir.path);
            sink.emplace(*db, events);
            cfg.events = &events;
            cfg.on_seal = [&sink](const obs::federate::seal_snapshot& snap) {
                (*sink)(snap);
            };
        }
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().records);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(durable ? "tsdb" : "bare");
}
// Real time: the engine's shard threads and the roll thread (which owns
// the seal-time flush) do the work off the timing thread.
BENCHMARK(BM_stream_with_tsdb)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
    return v6::bench::run_gbench_main(argc, argv, "BENCH_tsdb.json");
}
