// v6wire codec: exact layout, encode/decode round trips, the
// fuzz-resistance property (a decoder fed arbitrary mutations never
// reads out of bounds, never mis-parses, and accounts every datagram
// as exactly accepted-or-rejected-once), sequence accounting, the file
// container, and pcap extraction. Every decode goes through the SoA
// block decoder, the one the collector and replay drivers run.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "v6class/net/replay.h"
#include "v6class/net/wire.h"
#include "v6class/netgen/rng.h"
#include "v6class/simd/address_block.h"

namespace v6 {
namespace {

std::vector<stream_record> make_records(std::size_t n, std::uint64_t seed = 1) {
    std::vector<stream_record> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t high = 0x20010db800000000ull | mix64(seed + i);
        const std::uint64_t low = mix64(~(seed + i));
        records.push_back({360 + static_cast<int>(i % 7),
                           address::from_pair(high, low), 1 + (i % 97)});
    }
    return records;
}

/// The decoded lanes as records, for comparison with the encoder input.
std::vector<stream_record> to_records(const simd::record_block& block) {
    std::vector<stream_record> out;
    out.reserve(block.size());
    for (std::size_t i = 0; i < block.size(); ++i)
        out.push_back({block.day[i], block.addrs.at(i), block.hits[i]});
    return out;
}

std::vector<std::vector<std::uint8_t>> encode_datagrams(
    const std::vector<stream_record>& records, std::size_t batch) {
    net::wire_encoder enc(batch);
    std::vector<std::vector<std::uint8_t>> datagrams;
    enc.encode_all(records,
                   [&](const std::vector<std::uint8_t>& d) { datagrams.push_back(d); });
    return datagrams;
}

TEST(WireCodec, HeaderLayoutIsExact) {
    const auto records = make_records(3);
    net::wire_encoder enc(8);
    std::vector<std::uint8_t> d;
    ASSERT_EQ(enc.encode(records.data(), records.size(), d), 3u);
    ASSERT_EQ(d.size(), net::kWireHeaderSize + 3 * net::kWireRecordSize);
    EXPECT_EQ(0, std::memcmp(d.data(), net::kWireMagic, 4));
    EXPECT_EQ(d[4], net::kWireVersion);
    EXPECT_EQ(d[5], 0);                       // flags
    EXPECT_EQ(d[6] | (d[7] << 8), 3);         // count, LE
    for (int i = 8; i < 16; ++i) EXPECT_EQ(d[i], 0) << "seq 0";  // first seq
    // First record: 16 raw address bytes, then day i32 LE.
    EXPECT_EQ(0, std::memcmp(d.data() + 16, records[0].addr.bytes().data(), 16));
    EXPECT_EQ(d[32] | (d[33] << 8) | (d[34] << 16), 360);
}

TEST(WireCodec, RoundTripAllBatchSizes) {
    const auto records = make_records(257);
    for (const std::size_t batch : {1u, 7u, 43u, 300u}) {
        const auto datagrams = encode_datagrams(records, batch);
        EXPECT_EQ(datagrams.size(), (records.size() + batch - 1) / batch);
        net::wire_decoder dec;
        simd::record_block out;
        for (const auto& d : datagrams)
            EXPECT_TRUE(dec.decode(d.data(), d.size(), out));
        EXPECT_EQ(to_records(out), records) << "batch " << batch;
        EXPECT_EQ(dec.stats().records, records.size());
        EXPECT_EQ(dec.stats().rejected(), 0u);
        EXPECT_EQ(dec.stats().seq_gaps, 0u);
    }
}

TEST(WireCodec, RejectsEachMalformation) {
    const auto records = make_records(5);
    const auto good = encode_datagrams(records, 5)[0];
    simd::record_block out;

    {  // shorter than the header
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(good.data(), net::kWireHeaderSize - 1, out));
        EXPECT_EQ(dec.stats().short_header, 1u);
    }
    {  // magic
        auto bad = good;
        bad[0] ^= 0xff;
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(dec.stats().bad_magic, 1u);
    }
    {  // version
        auto bad = good;
        bad[4] = 99;
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(dec.stats().bad_version, 1u);
    }
    {  // reserved header flags
        auto bad = good;
        bad[5] = 1;
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(dec.stats().bad_flags, 1u);
    }
    {  // count promises more than the buffer holds
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(good.data(), good.size() - 1, out));
        EXPECT_EQ(dec.stats().truncated, 1u);
    }
    {  // trailing garbage beyond 16 + 32*count
        auto bad = good;
        bad.push_back(0);
        net::wire_decoder dec;
        EXPECT_FALSE(dec.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(dec.stats().trailing, 1u);
    }
    EXPECT_TRUE(out.empty()) << "rejected datagrams must append nothing";
}

// The fuzz property: arbitrary single-byte corruption and arbitrary
// truncation. Every call must be exactly accepted or rejected (counts
// balance), never crash, and a corrupted datagram must never smuggle a
// different record count through.
TEST(WireCodec, PropertyCorruptionNeverMisparses) {
    const auto records = make_records(43);
    const auto good = encode_datagrams(records, 43)[0];
    rng r{20150317};
    net::wire_decoder dec;
    std::uint64_t attempts = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        auto mutated = good;
        const int mode = static_cast<int>(r.uniform(3));
        if (mode == 0) {  // flip one byte
            mutated[r.uniform(mutated.size())] ^=
                static_cast<std::uint8_t>(1 + r.uniform(255));
        } else if (mode == 1) {  // truncate
            mutated.resize(r.uniform(mutated.size()));
        } else {  // extend with junk
            const std::size_t extra = 1 + r.uniform(64);
            for (std::size_t i = 0; i < extra; ++i)
                mutated.push_back(static_cast<std::uint8_t>(r.uniform(256)));
        }
        simd::record_block out;
        const bool ok = dec.decode(mutated.data(), mutated.size(), out);
        ++attempts;
        if (ok) {
            // Corruption inside the record payload decodes (the format
            // has no checksum) — but the structure must be intact.
            EXPECT_EQ(mutated.size(), good.size());
            EXPECT_EQ(out.size(), records.size());
        } else {
            EXPECT_TRUE(out.empty());
        }
    }
    const net::wire_decode_stats& s = dec.stats();
    EXPECT_EQ(s.datagrams + s.rejected(), attempts);
    EXPECT_EQ(s.records, s.datagrams * records.size());
}

TEST(WireCodec, SequenceGapAndReorderAccounting) {
    const auto records = make_records(40);
    const auto datagrams = encode_datagrams(records, 10);  // seq 0..3
    ASSERT_EQ(datagrams.size(), 4u);
    net::wire_decoder dec;
    simd::record_block out;
    auto feed = [&](std::size_t i) {
        ASSERT_TRUE(dec.decode(datagrams[i].data(), datagrams[i].size(), out));
    };
    feed(0);
    feed(1);
    feed(3);  // 2 skipped: presumed lost
    EXPECT_EQ(dec.stats().seq_gaps, 1u);
    EXPECT_EQ(dec.stats().seq_reorder, 0u);
    feed(2);  // it was only reordered: gap forgiven
    EXPECT_EQ(dec.stats().seq_gaps, 0u);
    EXPECT_EQ(dec.stats().seq_reorder, 1u);
    EXPECT_EQ(dec.stats().records, 40u);
}

TEST(WireFile, RoundTripAndRejectsCorruptContainer) {
    const auto records = make_records(100);
    const std::string path = testing::TempDir() + "wire_roundtrip.v6w";
    const auto datagrams = net::write_wire_file(path, records, 9);
    ASSERT_TRUE(datagrams.has_value());
    EXPECT_EQ(*datagrams, (100u + 8u) / 9u);

    net::wire_file_reader reader(path);
    ASSERT_TRUE(reader.valid());
    net::wire_decoder dec;
    std::vector<std::uint8_t> d;
    simd::record_block out;
    while (reader.next(d)) EXPECT_TRUE(dec.decode(d.data(), d.size(), out));
    EXPECT_TRUE(reader.error().empty());
    EXPECT_EQ(to_records(out), records);

    // Corrupt the file magic: the reader must refuse the whole file.
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.put('X');
    }
    net::wire_file_reader bad(path);
    std::vector<std::uint8_t> tmp;
    EXPECT_FALSE(bad.next(tmp));
    EXPECT_FALSE(bad.error().empty());
}

TEST(WireFile, ReaderStopsOnOversizedLengthPrefix) {
    const std::string path = testing::TempDir() + "wire_oversized.v6w";
    {
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char*>(net::kWireFileMagic), 8);
        const std::uint32_t huge = net::kWireMaxDatagram + 1;
        f.write(reinterpret_cast<const char*>(&huge), 4);  // LE host is LE
    }
    net::wire_file_reader reader(path);
    std::vector<std::uint8_t> d;
    EXPECT_FALSE(reader.next(d));
    EXPECT_FALSE(reader.error().empty());
}

// ------------------------------------------------------------ pcap

void put_u32le(std::vector<std::uint8_t>& v, std::uint32_t x) {
    v.push_back(x & 0xff);
    v.push_back((x >> 8) & 0xff);
    v.push_back((x >> 16) & 0xff);
    v.push_back((x >> 24) & 0xff);
}
void put_u16le(std::vector<std::uint8_t>& v, std::uint16_t x) {
    v.push_back(x & 0xff);
    v.push_back((x >> 8) & 0xff);
}
void put_u16be(std::vector<std::uint8_t>& v, std::uint16_t x) {
    v.push_back((x >> 8) & 0xff);
    v.push_back(x & 0xff);
}

/// One Ethernet+IPv6+UDP packet wrapping `payload`, as a pcap record.
void append_packet(std::vector<std::uint8_t>& pcap, std::uint16_t dst_port,
                   const std::vector<std::uint8_t>& payload) {
    const std::uint32_t wire_len =
        14 + 40 + 8 + static_cast<std::uint32_t>(payload.size());
    put_u32le(pcap, 1);         // ts_sec
    put_u32le(pcap, 0);         // ts_usec
    put_u32le(pcap, wire_len);  // incl_len
    put_u32le(pcap, wire_len);  // orig_len
    for (int i = 0; i < 12; ++i) pcap.push_back(0);  // MACs
    put_u16be(pcap, 0x86dd);                         // ethertype IPv6
    pcap.push_back(0x60);                            // version 6
    pcap.push_back(0);
    pcap.push_back(0);
    pcap.push_back(0);
    put_u16be(pcap, static_cast<std::uint16_t>(8 + payload.size()));
    pcap.push_back(17);  // next header UDP
    pcap.push_back(64);  // hop limit
    for (int i = 0; i < 32; ++i) pcap.push_back(i < 16 ? 0x20 : 0x21);  // src/dst
    put_u16be(pcap, 9999);      // src port
    put_u16be(pcap, dst_port);  // dst port
    put_u16be(pcap, static_cast<std::uint16_t>(8 + payload.size()));
    put_u16be(pcap, 0);  // checksum (optional in UDP/IPv6 for a test vector)
    pcap.insert(pcap.end(), payload.begin(), payload.end());
}

/// A classic (microsecond, little-endian) Ethernet pcap holding one
/// packet per (dst port, payload), written to `path`.
void write_pcap(const std::string& path,
                const std::vector<std::pair<std::uint16_t, std::vector<std::uint8_t>>>& packets) {
    std::vector<std::uint8_t> pcap;
    put_u32le(pcap, 0xa1b2c3d4);  // classic magic, microseconds
    put_u16le(pcap, 2);
    put_u16le(pcap, 4);
    put_u32le(pcap, 0);
    put_u32le(pcap, 0);
    put_u32le(pcap, 65535);
    put_u32le(pcap, 1);  // LINKTYPE_ETHERNET
    for (const auto& [port, payload] : packets) append_packet(pcap, port, payload);
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(pcap.data()),
            static_cast<std::streamsize>(pcap.size()));
}

TEST(Pcap, ExtractsWireDatagramsWithPortFilter) {
    const auto records = make_records(20);
    const auto datagrams = encode_datagrams(records, 10);
    const std::string path = testing::TempDir() + "wire_test.pcap";
    write_pcap(path, {{4739, datagrams[0]},
                      {1234, datagrams[1]}});  // filtered out below

    net::wire_decoder dec;
    simd::record_block out;
    std::string error;
    const auto stats = net::pcap_extract_udp(
        path, 4739,
        [&](const std::uint8_t* p, std::size_t len) { dec.decode(p, len, out); },
        &error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_EQ(stats->packets, 2u);
    EXPECT_EQ(stats->udp_payloads, 1u);
    EXPECT_EQ(stats->skipped, 1u);
    EXPECT_EQ(stats->malformed, 0u);
    ASSERT_EQ(out.size(), 10u);
    EXPECT_EQ(to_records(out), std::vector<stream_record>(records.begin(),
                                                          records.begin() + 10));

    // Port 0 delivers everything.
    net::wire_decoder dec_all;
    simd::record_block all;
    const auto stats_all = net::pcap_extract_udp(
        path, 0,
        [&](const std::uint8_t* p, std::size_t len) { dec_all.decode(p, len, all); },
        &error);
    ASSERT_TRUE(stats_all.has_value());
    EXPECT_EQ(to_records(all), records);
}

// replay_wire_file reads a v6wire file and a pcap of the same datagrams
// into the same blocks, one per datagram, and a sink that declines a
// block stops the replay there without counting it.
TEST(Replay, WireFileAndPcapDeliverTheSameBlocks) {
    const auto records = make_records(25);
    const std::string wire_path = testing::TempDir() + "replay_test.v6w";
    const std::string pcap_path = testing::TempDir() + "replay_test.pcap";
    ASSERT_EQ(net::write_wire_file(wire_path, records, 10), 3u);
    std::vector<std::pair<std::uint16_t, std::vector<std::uint8_t>>> packets;
    for (const auto& d : encode_datagrams(records, 10)) packets.push_back({4739, d});
    packets.push_back({1234, packets.front().second});  // not v6wire's port
    write_pcap(pcap_path, packets);

    for (const std::string& path : {wire_path, pcap_path}) {
        std::vector<std::size_t> sizes;
        std::vector<stream_record> seen;
        const net::replay_result all = net::replay_wire_file(
            path,
            [&](const simd::record_block& block) {
                sizes.push_back(block.size());
                for (const stream_record& r : to_records(block)) seen.push_back(r);
                return true;
            },
            4739);
        ASSERT_TRUE(all.ok()) << path << ": " << all.error;
        EXPECT_FALSE(all.stopped);
        EXPECT_EQ(all.datagrams, 3u) << path;
        EXPECT_EQ(all.records, 25u) << path;
        EXPECT_EQ(sizes, (std::vector<std::size_t>{10, 10, 5})) << path;
        EXPECT_EQ(seen, records) << path;

        std::size_t offered = 0;
        const net::replay_result cut = net::replay_wire_file(
            path, [&](const simd::record_block&) { return ++offered < 2; }, 4739);
        ASSERT_TRUE(cut.ok()) << path;
        EXPECT_TRUE(cut.stopped);
        EXPECT_EQ(offered, 2u) << "no block is offered after a decline";
        EXPECT_EQ(cut.records, 10u) << "a declined block is not counted";
    }
    EXPECT_EQ(net::replay_wire_file(pcap_path, [](const auto&) { return true; })
                  .pcap.udp_payloads,
              4u)
        << "port 0 delivers every UDP payload";
    EXPECT_FALSE(net::replay_wire_file(testing::TempDir() + "missing.v6w",
                                       [](const auto&) { return true; })
                     .ok());
}

TEST(Pcap, RejectsNonPcapFile) {
    const std::string path = testing::TempDir() + "not_a.pcap";
    {
        std::ofstream f(path, std::ios::binary);
        f << "day address hits\n";
    }
    std::string error;
    const auto stats =
        net::pcap_extract_udp(path, 0, [](const std::uint8_t*, std::size_t) {}, &error);
    EXPECT_FALSE(stats.has_value());
    EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace v6
