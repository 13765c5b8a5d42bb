// wire.h — the v6wire binary observation format: the unit of exchange
// between a measurement point (packet tap, log shipper, v6synth) and
// the classifier's network ingest front end.
//
// A live deployment cannot ship "day address hits" text at line rate —
// parsing dominates ingest and a UDP datagram of text lines has no
// integrity story. v6wire packs observations into fixed-size records
// batched N-per-datagram behind a tiny versioned header, so a collector
// can decode a datagram with four bounds checks and memcpy-sized loads,
// and a corrupt or truncated datagram is counted and skipped rather
// than misparsed.
//
// Datagram layout (all multi-byte integers little-endian):
//
//     offset  size  field
//     ------  ----  --------------------------------------------
//          0     4  magic      "V6W1" (0x56 0x36 0x57 0x31)
//          4     1  version    kWireVersion (1)
//          5     1  flags      reserved, must be 0
//          6     2  count      records in this datagram (u16)
//          8     8  seq        sender datagram sequence number (u64)
//         16   32N  records
//
//     record (32 bytes):
//          0    16  address    16 raw bytes, network byte order
//         16     4  day        log-processed day index (i32)
//         20     8  hits       aggregated hit count (u64)
//         28     4  flags      reserved, must be 0
//
// The sequence number is per sender and monotone; the collector detects
// loss by gaps (UDP reorder within a burst shows up as small negative
// jumps and is counted separately). 43 records fit a 1400-byte
// datagram, clear of any sane MTU.
//
// The file container (`v6synth --wire`, `v6stream --replay`) is the
// same datagrams length-prefixed behind an 8-byte file magic, so replay
// exercises the exact collector decode path byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "v6class/simd/address_block.h"
#include "v6class/stream/record.h"

namespace v6::net {

inline constexpr std::uint8_t kWireMagic[4] = {0x56, 0x36, 0x57, 0x31};  // "V6W1"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderSize = 16;
inline constexpr std::size_t kWireRecordSize = 32;
/// Records per datagram staying under a 1400-byte payload.
inline constexpr std::size_t kWireDefaultBatch = (1400 - kWireHeaderSize) / kWireRecordSize;
/// Decoder's hard ceiling on one datagram (64 KiB, the UDP maximum).
inline constexpr std::size_t kWireMaxDatagram = 65536;
/// Most records one datagram can carry and still fit kWireMaxDatagram.
inline constexpr std::size_t kWireMaxBatch =
    (kWireMaxDatagram - kWireHeaderSize) / kWireRecordSize;

/// File container magic: "V6WIREF1".
inline constexpr std::uint8_t kWireFileMagic[8] = {'V', '6', 'W', 'I', 'R', 'E', 'F', '1'};

/// Why a datagram (or a record inside one) was rejected. Every rejection
/// increments exactly one of these; decode never throws and never reads
/// out of bounds.
struct wire_decode_stats {
    std::uint64_t datagrams = 0;      ///< well-formed datagrams accepted
    std::uint64_t records = 0;        ///< records decoded from them
    std::uint64_t short_header = 0;   ///< datagram shorter than the header
    std::uint64_t bad_magic = 0;      ///< magic mismatch
    std::uint64_t bad_version = 0;    ///< version != kWireVersion
    std::uint64_t bad_flags = 0;      ///< reserved header flags set
    std::uint64_t truncated = 0;      ///< count promises more bytes than present
    std::uint64_t trailing = 0;       ///< datagram longer than 16 + 32*count
    std::uint64_t seq_gaps = 0;       ///< datagrams presumed lost (gap sum)
    std::uint64_t seq_reorder = 0;    ///< datagrams arriving behind the high-water seq

    std::uint64_t rejected() const noexcept {
        return short_header + bad_magic + bad_version + bad_flags + truncated + trailing;
    }
};

/// Encodes batches of stream records into datagrams, stamping a monotone
/// sequence number. One encoder per sender stream.
class wire_encoder {
public:
    explicit wire_encoder(std::size_t batch = kWireDefaultBatch) noexcept
        : batch_(batch == 0 ? 1 : batch) {}

    std::size_t batch() const noexcept { return batch_; }
    std::uint64_t next_seq() const noexcept { return seq_; }

    /// Appends one datagram of min(batch, n) records from `records` to
    /// `out` (which is cleared first). Returns how many were consumed.
    std::size_t encode(const stream_record* records, std::size_t n,
                       std::vector<std::uint8_t>& out);

    /// Encodes the whole span as consecutive datagrams, invoking `sink`
    /// per datagram. Returns the number of datagrams produced.
    std::size_t encode_all(const std::vector<stream_record>& records,
                           const std::function<void(const std::vector<std::uint8_t>&)>& sink);

private:
    std::size_t batch_;
    std::uint64_t seq_ = 0;
};

/// Decodes one datagram, appending its records straight into SoA lanes
/// (hi/lo u64 pairs plus day/hits columns) of `out`. Returns true when
/// the datagram was well-formed (records appended, stats.datagrams and
/// stats.records incremented); false when rejected (one reject counter
/// incremented, nothing appended). Sequence-gap accounting uses the
/// decoder's high-water mark across calls; a fresh decoder expects the
/// first datagram to carry any seq.
class wire_decoder {
public:
    bool decode(const std::uint8_t* data, std::size_t len,
                simd::record_block& out);

    const wire_decode_stats& stats() const noexcept { return stats_; }

private:
    /// Shared header/bounds/sequence validation. On acceptance sets
    /// `count` and bumps the datagram/record tallies; on rejection bumps
    /// exactly one reject counter and returns false.
    bool accept(const std::uint8_t* data, std::size_t len, std::size_t& count);

    wire_decode_stats stats_;
    std::uint64_t high_seq_ = 0;
    bool seen_any_ = false;
};

// ------------------------------------------------------------ files

/// Writes a v6wire file: the 8-byte file magic, then each datagram
/// prefixed by a u32 LE length.
class wire_file_writer {
public:
    /// Opens (truncates) `path`; valid() reports failure.
    explicit wire_file_writer(const std::string& path);
    ~wire_file_writer();

    wire_file_writer(const wire_file_writer&) = delete;
    wire_file_writer& operator=(const wire_file_writer&) = delete;

    bool valid() const noexcept { return out_ != nullptr; }
    void append(const std::vector<std::uint8_t>& datagram);
    std::uint64_t datagrams() const noexcept { return datagrams_; }

    /// Flushes and closes; returns false on any I/O error so far.
    bool close();

private:
    std::FILE* out_ = nullptr;
    std::uint64_t datagrams_ = 0;
    bool error_ = false;
};

/// Reads a v6wire file datagram by datagram. Length prefixes beyond
/// kWireMaxDatagram, a bad file magic, or a truncated tail stop the
/// reader with an error message rather than feeding garbage downstream.
class wire_file_reader {
public:
    explicit wire_file_reader(const std::string& path);
    ~wire_file_reader();

    wire_file_reader(const wire_file_reader&) = delete;
    wire_file_reader& operator=(const wire_file_reader&) = delete;

    bool valid() const noexcept { return in_ != nullptr && error_.empty(); }
    const std::string& error() const noexcept { return error_; }

    /// Reads the next datagram into `out` (cleared first). Returns false
    /// at end of file or on error (check error()).
    bool next(std::vector<std::uint8_t>& out);

private:
    std::FILE* in_ = nullptr;
    std::string error_;
};

/// Convenience: encodes `records` into a v6wire file at `path` with the
/// given per-datagram batch. Returns datagrams written, or nullopt on
/// I/O failure.
std::optional<std::uint64_t> write_wire_file(const std::string& path,
                                             const std::vector<stream_record>& records,
                                             std::size_t batch = kWireDefaultBatch);

// ------------------------------------------------------------ pcap

/// Outcome of scanning a pcap capture for v6wire datagrams.
struct pcap_scan_stats {
    std::uint64_t packets = 0;       ///< capture records seen
    std::uint64_t udp_payloads = 0;  ///< UDP payloads delivered to the sink
    std::uint64_t skipped = 0;       ///< non-UDP / non-IP / port-filtered packets
    std::uint64_t malformed = 0;     ///< capture records that fail bounds checks
};

/// Extracts UDP payloads from a pcap savefile (classic libpcap format,
/// either endianness, micro- or nanosecond variant; Ethernet, raw-IP,
/// and Linux cooked v1 link types). `port` filters on the UDP
/// destination port (0 = deliver every UDP payload). The sink receives
/// (payload, length) per packet — feed it a wire_decoder to replay a
/// capture through the collector's decode path. Returns nullopt with
/// `error` set when the file cannot be opened or its global header is
/// not pcap.
std::optional<pcap_scan_stats> pcap_extract_udp(
    const std::string& path, std::uint16_t port,
    const std::function<void(const std::uint8_t*, std::size_t)>& sink,
    std::string* error);

}  // namespace v6::net
