// replay.h — recorded wire traffic: v6wire files and pcap captures
// decoded back into record blocks (for any consumer — v6stream hands
// each one to its ingest step), or v6wire files sent onto the network
// as real UDP datagrams.
//
// Pacing: with rate == 0 a pacer admits everything at once (line rate,
// as fast as the engine's backpressure admits). With rate > 0 it
// tracks a target of `rate` records per second from its construction
// and sleeps in short slices whenever the caller runs ahead — short, so
// a stop flag (the tool's SIGINT handler) is honoured within ~50 ms
// even at 1 rec/s.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <string>

#include "v6class/net/wire.h"
#include "v6class/simd/address_block.h"

namespace v6::net {

/// Paces a replay by records: wait(done) returns once `done` records
/// fit the rate schedule, or false as soon as the stop flag is set.
class pacer {
public:
    /// `rate` in records/second (0 = line rate); `stop` may be null.
    explicit pacer(double rate, const volatile std::sig_atomic_t* stop = nullptr)
        : rate_(rate), stop_(stop), start_(std::chrono::steady_clock::now()) {}

    bool wait(std::uint64_t done) const;

private:
    double rate_;
    const volatile std::sig_atomic_t* stop_;
    std::chrono::steady_clock::time_point start_;
};

struct replay_options {
    double rate = 0;                ///< records/second; 0 = line rate
    /// Checked between datagrams and inside pacing sleeps; non-null and
    /// non-zero stops the replay cleanly (partial result, stopped=true).
    const volatile std::sig_atomic_t* stop = nullptr;
};

struct replay_result {
    std::uint64_t datagrams = 0;  ///< datagrams read from the source
    std::uint64_t records = 0;    ///< records decoded and accepted / sent
    std::uint64_t bytes = 0;      ///< datagram payload bytes
    wire_decode_stats decode;     ///< decode-side rejects (file/pcap replay)
    pcap_scan_stats pcap;         ///< pcap replay only
    bool stopped = false;         ///< the sink or stop flag cut it short
    std::string error;            ///< non-empty: file-level failure

    bool ok() const noexcept { return error.empty(); }
};

/// Receives one decoded datagram; false stops the replay.
using block_sink = std::function<bool(const simd::record_block&)>;

/// Decodes the v6wire datagrams of a capture — a v6wire file, or the
/// UDP payloads of a ".pcap" file (to dst port `pcap_port`, 0 = any) —
/// and hands each datagram's block to `sink`, in capture order.
replay_result replay_wire_file(const std::string& path, const block_sink& sink,
                               std::uint16_t pcap_port = 0);

/// Sends a v6wire file's datagrams to [host]:port over UDP (the
/// load-generator side of the loopback e2e). Pacing as above, by the
/// record count inside each datagram.
replay_result send_wire_file(const std::string& path, const std::string& host,
                             std::uint16_t port, const replay_options& opt = {});

}  // namespace v6::net
