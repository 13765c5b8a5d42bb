// collector.h — the network-facing ingest front end: a non-blocking
// UDP socket whose rx thread batch-receives v6wire datagrams
// (recvmmsg), decodes them with the bounds-checked wire codec, tags
// each record through the enrichment snapshot, and feeds the stream
// engine's shard queues.
//
// Threading model: one rx thread per collector (per socket). The rx
// thread owns the socket and the decoder; nothing else touches either.
// It loops recvmmsg → decode into SoA lanes → enrich → engine.push_block;
// when the socket is dry it parks in poll() with a short timeout so
// stop() is observed within ~50 ms. push_block applies the engine's own
// backpressure (a full shard queue blocks the rx thread, which in turn
// fills the socket buffer and eventually drops datagrams at the kernel
// — the classic collector overload behaviour, visible as rx drops,
// never as corrupted state).
//
// Every malformed datagram increments exactly one reason-labeled
// rejection counter in v6::obs; the loopback e2e test asserts the
// accepted-record count reaches the sent count with zero rejects.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "v6class/net/enrich.h"
#include "v6class/net/wire.h"
#include "v6class/obs/metrics.h"
#include "v6class/stream/engine.h"

namespace v6::net {

struct collector_config {
    std::string bind = "::";   ///< local address to bind (v6only off, so
                               ///< IPv4 senders reach "::" via mapping)
    std::uint16_t port = 0;    ///< 0 = ephemeral (tests); see port()
    unsigned rx_batch = 16;    ///< datagrams per recvmmsg call
    int rcvbuf = 1 << 22;      ///< SO_RCVBUF request; 0 = kernel default
    obs::registry* registry = nullptr;  ///< rx/reject counters (null = none)
};

/// A consistent copy of the rx thread's counters.
struct collector_stats {
    std::uint64_t datagrams = 0;  ///< well-formed datagrams accepted
    std::uint64_t records = 0;    ///< records pushed into the engine
    std::uint64_t bytes = 0;      ///< payload bytes received
    wire_decode_stats decode;     ///< per-reason rejects, seq accounting
};

class udp_collector {
public:
    /// `enrich` and `ledger` may be null (no enrichment / no per-ASN
    /// accounting). All three referenced objects must outlive stop().
    udp_collector(stream_engine& engine, collector_config cfg,
                  enrichment* enrich = nullptr, asn_ledger* ledger = nullptr);

    ~udp_collector();

    udp_collector(const udp_collector&) = delete;
    udp_collector& operator=(const udp_collector&) = delete;

    /// Binds the socket and spawns the rx thread. False (with *error
    /// set) when the bind fails; the collector is then inert.
    bool start(std::string* error);

    /// Signals the rx thread, joins it, closes the socket. Idempotent.
    /// Records already received are in the engine; finish()/seal
    /// ordering is the caller's to run afterwards.
    void stop();

    bool running() const noexcept { return running_.load(std::memory_order_acquire); }

    /// The actually-bound UDP port (after start(); resolves port 0).
    std::uint16_t port() const noexcept { return port_; }

    collector_stats stats() const;

private:
    void rx_loop();

    stream_engine& engine_;
    collector_config cfg_;
    enrichment* enrich_ = nullptr;
    asn_ledger* ledger_ = nullptr;
    lookup_cache cache_;  // rx thread only

    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread rx_thread_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> running_{false};

    // Atomic mirrors of the rx thread's tallies, refreshed once per
    // recvmmsg burst — cross-thread-readable without touching the
    // decoder. (stats() reads these; the obs counters are for scrape.)
    std::atomic<std::uint64_t> a_datagrams_{0}, a_records_{0}, a_bytes_{0};
    std::atomic<std::uint64_t> a_short_{0}, a_bad_magic_{0}, a_bad_version_{0},
        a_bad_flags_{0}, a_truncated_{0}, a_trailing_{0}, a_seq_gaps_{0},
        a_seq_reorder_{0};

    struct metric_handles {
        obs::counter datagrams, records, bytes;
        obs::counter bad_magic, bad_version, short_header, bad_flags,
            truncated, trailing, seq_gaps;
    } m_;
};

/// Pushes one decoded block into the engine, then tags every record the
/// engine accepted through one enrichment snapshot load and the ledger
/// (late records and records pushed after finish() are not counted).
/// Every ingest source shares it — the collector rx loop here, and
/// v6stream's text feed, day-log corpus, wire capture and pcap replays
/// — so all of them are byte-identical from the block on.
///
/// Each record is looked up straight from its hi/lo lanes in the
/// snapshot's flat interval table. `cache` (optional) is a caller-owned
/// per-/64 memo carried across blocks and probed by the hi lane, which
/// pays on clustered traffic; ledger updates are aggregated per block
/// so the ledger mutex is taken once per datagram, and the engine is fed
/// one push_block (a single push-lock acquisition per datagram).
/// micro_wire_ingest prices the enriched path against the raw one.
void ingest_block(stream_engine& engine, const simd::record_block& block,
                  enrichment* enrich, asn_ledger* ledger,
                  lookup_cache* cache = nullptr);

}  // namespace v6::net
