// wire.cpp — v6wire codec: see the layout comment in wire.h.
//
// The decoder is written for hostile input: every field is range-checked
// before use, every load goes through memcpy (no alignment assumptions
// on a datagram buffer), and a rejection is a counter bump, never a
// throw. The fuzz-style property test in tests/net_wire_test.cpp mutates
// valid datagrams at random and asserts exactly this contract.
#include "v6class/net/wire.h"

#include <cstring>

namespace v6::net {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

}  // namespace

std::size_t wire_encoder::encode(const stream_record* records, std::size_t n,
                                 std::vector<std::uint8_t>& out) {
    const std::size_t take = n < batch_ ? n : batch_;
    out.clear();
    out.resize(kWireHeaderSize + take * kWireRecordSize);
    std::uint8_t* p = out.data();
    std::memcpy(p, kWireMagic, 4);
    p[4] = kWireVersion;
    p[5] = 0;
    put_u16(p + 6, static_cast<std::uint16_t>(take));
    put_u64(p + 8, seq_++);
    p += kWireHeaderSize;
    for (std::size_t i = 0; i < take; ++i, p += kWireRecordSize) {
        std::memcpy(p, records[i].addr.bytes().data(), 16);
        put_u32(p + 16, static_cast<std::uint32_t>(records[i].day));
        put_u64(p + 20, records[i].hits);
        put_u32(p + 28, 0);
    }
    return take;
}

std::size_t wire_encoder::encode_all(
    const std::vector<stream_record>& records,
    const std::function<void(const std::vector<std::uint8_t>&)>& sink) {
    std::vector<std::uint8_t> datagram;
    std::size_t produced = 0;
    std::size_t done = 0;
    while (done < records.size()) {
        done += encode(records.data() + done, records.size() - done, datagram);
        sink(datagram);
        ++produced;
    }
    return produced;
}

bool wire_decoder::accept(const std::uint8_t* data, std::size_t len,
                          std::size_t& count) {
    if (len < kWireHeaderSize) {
        ++stats_.short_header;
        return false;
    }
    if (std::memcmp(data, kWireMagic, 4) != 0) {
        ++stats_.bad_magic;
        return false;
    }
    if (data[4] != kWireVersion) {
        ++stats_.bad_version;
        return false;
    }
    if (data[5] != 0) {
        ++stats_.bad_flags;
        return false;
    }
    count = get_u16(data + 6);
    const std::size_t need = kWireHeaderSize + count * kWireRecordSize;
    if (len < need) {
        ++stats_.truncated;
        return false;
    }
    if (len > need) {
        ++stats_.trailing;
        return false;
    }
    const std::uint64_t seq = get_u64(data + 8);
    if (!seen_any_) {
        seen_any_ = true;
        high_seq_ = seq;
    } else if (seq > high_seq_) {
        stats_.seq_gaps += seq - high_seq_ - 1;
        high_seq_ = seq;
    } else {
        // At or below the high-water mark: a duplicate or late arrival.
        ++stats_.seq_reorder;
        if (stats_.seq_gaps > 0) --stats_.seq_gaps;  // it was counted lost
    }
    ++stats_.datagrams;
    stats_.records += count;
    return true;
}

bool wire_decoder::decode(const std::uint8_t* data, std::size_t len,
                          simd::record_block& out) {
    std::size_t count = 0;
    if (!accept(data, len, count)) return false;
    const std::uint8_t* p = data + kWireHeaderSize;
    out.reserve(out.size() + count);
    for (std::size_t i = 0; i < count; ++i, p += kWireRecordSize) {
        // The 16 address bytes are network order; the lanes hold the
        // big-endian halves as host u64 values, exactly address::hi()/lo().
        out.push_back(simd::load_be64(p), simd::load_be64(p + 8),
                      static_cast<std::int32_t>(get_u32(p + 16)),
                      get_u64(p + 20));
    }
    return true;
}

// ------------------------------------------------------------ files

wire_file_writer::wire_file_writer(const std::string& path)
    : out_(std::fopen(path.c_str(), "wb")) {
    if (out_ && std::fwrite(kWireFileMagic, 1, 8, out_) != 8) error_ = true;
}

wire_file_writer::~wire_file_writer() { close(); }

void wire_file_writer::append(const std::vector<std::uint8_t>& datagram) {
    if (!out_ || error_) return;
    std::uint8_t len[4];
    put_u32(len, static_cast<std::uint32_t>(datagram.size()));
    if (std::fwrite(len, 1, 4, out_) != 4 ||
        std::fwrite(datagram.data(), 1, datagram.size(), out_) != datagram.size()) {
        error_ = true;
        return;
    }
    ++datagrams_;
}

bool wire_file_writer::close() {
    if (out_) {
        if (std::fclose(out_) != 0) error_ = true;
        out_ = nullptr;
    }
    return !error_;
}

wire_file_reader::wire_file_reader(const std::string& path)
    : in_(std::fopen(path.c_str(), "rb")) {
    if (!in_) {
        error_ = "cannot open " + path;
        return;
    }
    std::uint8_t magic[8];
    if (std::fread(magic, 1, 8, in_) != 8 ||
        std::memcmp(magic, kWireFileMagic, 8) != 0)
        error_ = path + ": not a v6wire file";
}

wire_file_reader::~wire_file_reader() {
    if (in_) std::fclose(in_);
}

bool wire_file_reader::next(std::vector<std::uint8_t>& out) {
    out.clear();
    if (!valid()) return false;
    std::uint8_t len_bytes[4];
    const std::size_t got = std::fread(len_bytes, 1, 4, in_);
    if (got == 0 && std::feof(in_)) return false;  // clean EOF
    if (got != 4) {
        error_ = "truncated datagram length prefix";
        return false;
    }
    const std::uint32_t len = get_u32(len_bytes);
    if (len > kWireMaxDatagram) {
        error_ = "datagram length " + std::to_string(len) + " exceeds " +
                 std::to_string(kWireMaxDatagram);
        return false;
    }
    out.resize(len);
    if (std::fread(out.data(), 1, len, in_) != len) {
        error_ = "truncated datagram body";
        out.clear();
        return false;
    }
    return true;
}

std::optional<std::uint64_t> write_wire_file(const std::string& path,
                                             const std::vector<stream_record>& records,
                                             std::size_t batch) {
    wire_file_writer writer(path);
    if (!writer.valid()) return std::nullopt;
    wire_encoder enc(batch);
    enc.encode_all(records, [&](const std::vector<std::uint8_t>& d) { writer.append(d); });
    if (!writer.close()) return std::nullopt;
    return writer.datagrams();
}

// ------------------------------------------------------------ pcap

namespace {

// Classic pcap savefile constants. (pcapng is out of scope; tcpdump -w
// still writes this format.)
constexpr std::uint32_t kPcapMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRawIp = 101;
constexpr std::uint32_t kLinkLinuxSll = 113;
constexpr std::uint32_t kLinkNull = 0;

std::uint32_t swap32(std::uint32_t v) noexcept {
    return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) | (v >> 24);
}

std::uint16_t read_be16(const std::uint8_t* p) noexcept {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

/// Walks one captured packet from its link-layer start to a UDP payload.
/// Returns false (without touching outputs) when the packet is not a
/// parsable UDP-in-IP packet.
bool find_udp_payload(const std::uint8_t* p, std::size_t len, std::uint32_t linktype,
                      std::uint16_t port, const std::uint8_t** payload,
                      std::size_t* payload_len) {
    // Strip the link layer down to an IP version + header.
    int ip_version = 0;
    switch (linktype) {
        case kLinkEthernet: {
            if (len < 14) return false;
            std::uint16_t ethertype = read_be16(p + 12);
            std::size_t off = 14;
            if (ethertype == 0x8100) {  // one 802.1Q tag
                if (len < 18) return false;
                ethertype = read_be16(p + 16);
                off = 18;
            }
            if (ethertype == 0x0800) ip_version = 4;
            else if (ethertype == 0x86dd) ip_version = 6;
            else return false;
            p += off;
            len -= off;
            break;
        }
        case kLinkLinuxSll: {
            if (len < 16) return false;
            const std::uint16_t ethertype = read_be16(p + 14);
            if (ethertype == 0x0800) ip_version = 4;
            else if (ethertype == 0x86dd) ip_version = 6;
            else return false;
            p += 16;
            len -= 16;
            break;
        }
        case kLinkRawIp:
        case kLinkNull: {
            if (linktype == kLinkNull) {
                if (len < 4) return false;
                p += 4;
                len -= 4;
            }
            if (len < 1) return false;
            ip_version = p[0] >> 4;
            break;
        }
        default:
            return false;
    }

    // IP header to UDP header.
    if (ip_version == 4) {
        if (len < 20) return false;
        const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
        if (ihl < 20 || len < ihl + 8) return false;
        if (p[9] != 17) return false;                       // not UDP
        if ((read_be16(p + 6) & 0x1fff) != 0) return false;  // non-first fragment
        p += ihl;
        len -= ihl;
    } else if (ip_version == 6) {
        if (len < 48) return false;  // fixed header + UDP header
        if (p[6] != 17) return false;  // extension headers unsupported
        p += 40;
        len -= 40;
    } else {
        return false;
    }

    // UDP header: dst port filter, length check.
    const std::uint16_t dst_port = read_be16(p + 2);
    if (port != 0 && dst_port != port) return false;
    const std::uint16_t udp_len = read_be16(p + 4);
    if (udp_len < 8 || udp_len > len) return false;
    *payload = p + 8;
    *payload_len = udp_len - 8;
    return true;
}

}  // namespace

std::optional<pcap_scan_stats> pcap_extract_udp(
    const std::string& path, std::uint16_t port,
    const std::function<void(const std::uint8_t*, std::size_t)>& sink,
    std::string* error) {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (!in) {
        if (error) *error = "cannot open " + path;
        return std::nullopt;
    }
    std::uint8_t gh[24];
    if (std::fread(gh, 1, 24, in) != 24) {
        if (error) *error = path + ": short pcap global header";
        std::fclose(in);
        return std::nullopt;
    }
    std::uint32_t magic;
    std::memcpy(&magic, gh, 4);
    bool swapped = false;
    if (magic == kPcapMagicUsec || magic == kPcapMagicNsec) {
        swapped = false;
    } else if (swap32(magic) == kPcapMagicUsec || swap32(magic) == kPcapMagicNsec) {
        swapped = true;
    } else {
        if (error) *error = path + ": not a pcap savefile";
        std::fclose(in);
        return std::nullopt;
    }
    std::uint32_t linktype;
    std::memcpy(&linktype, gh + 20, 4);
    if (swapped) linktype = swap32(linktype);

    pcap_scan_stats stats;
    std::vector<std::uint8_t> pkt;
    for (;;) {
        std::uint8_t rh[16];
        const std::size_t got = std::fread(rh, 1, 16, in);
        if (got == 0 && std::feof(in)) break;
        if (got != 16) {
            ++stats.malformed;
            break;
        }
        std::uint32_t incl;
        std::memcpy(&incl, rh + 8, 4);
        if (swapped) incl = swap32(incl);
        if (incl > 262144) {  // libpcap's own sanity bound
            ++stats.malformed;
            break;
        }
        pkt.resize(incl);
        if (std::fread(pkt.data(), 1, incl, in) != incl) {
            ++stats.malformed;
            break;
        }
        ++stats.packets;
        const std::uint8_t* payload = nullptr;
        std::size_t payload_len = 0;
        if (find_udp_payload(pkt.data(), pkt.size(), linktype, port, &payload,
                             &payload_len)) {
            ++stats.udp_payloads;
            sink(payload, payload_len);
        } else {
            ++stats.skipped;
        }
    }
    std::fclose(in);
    return stats;
}

}  // namespace v6::net
