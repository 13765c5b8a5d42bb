// replay.cpp — replay pacing, wire-file / pcap decode, and the UDP send
// driver.
#include "v6class/net/replay.h"

#include <arpa/inet.h>
#include <chrono>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace v6::net {

namespace {
using clock = std::chrono::steady_clock;
}  // namespace

bool pacer::wait(std::uint64_t done) const {
    const auto stopped = [this] { return stop_ != nullptr && *stop_ != 0; };
    if (rate_ <= 0) return !stopped();
    const auto target = start_ + std::chrono::duration_cast<clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(done) / rate_));
    for (;;) {
        if (stopped()) return false;
        const auto now = clock::now();
        if (now >= target) return true;
        const auto remaining = target - now;
        std::this_thread::sleep_for(
            remaining < std::chrono::milliseconds(50)
                ? remaining
                : clock::duration(std::chrono::milliseconds(50)));
    }
}

replay_result replay_wire_file(const std::string& path, const block_sink& sink,
                               std::uint16_t pcap_port) {
    replay_result result;
    wire_decoder decoder;
    simd::record_block block;
    const auto feed = [&](const std::uint8_t* data, std::size_t len) {
        if (result.stopped) return;
        ++result.datagrams;
        result.bytes += len;
        block.clear();
        decoder.decode(data, len, block);
        if (!sink(block)) {
            result.stopped = true;
            return;
        }
        result.records += block.size();
    };
    if (path.ends_with(".pcap")) {
        const auto stats = pcap_extract_udp(path, pcap_port, feed, &result.error);
        if (!stats) return result;
        result.pcap = *stats;
    } else {
        wire_file_reader reader(path);
        if (!reader.valid()) {
            result.error = reader.error();
            return result;
        }
        std::vector<std::uint8_t> datagram;
        while (!result.stopped && reader.next(datagram))
            feed(datagram.data(), datagram.size());
        if (!result.stopped) result.error = reader.error();
    }
    result.decode = decoder.stats();
    return result;
}

replay_result send_wire_file(const std::string& path, const std::string& host,
                             std::uint16_t port, const replay_options& opt) {
    replay_result result;
    wire_file_reader reader(path);
    if (!reader.valid()) {
        result.error = reader.error();
        return result;
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_DGRAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                  &hints, &res);
    if (gai != 0) {
        result.error = host + ": " + ::gai_strerror(gai);
        return result;
    }
    const int fd = ::socket(res->ai_family, SOCK_DGRAM | SOCK_CLOEXEC,
                            res->ai_protocol);
    if (fd < 0) {
        result.error = std::string("socket: ") + std::strerror(errno);
        ::freeaddrinfo(res);
        return result;
    }
    if (::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
        result.error = "connect [" + host + "]:" + std::to_string(port) + ": " +
                       std::strerror(errno);
        ::freeaddrinfo(res);
        ::close(fd);
        return result;
    }
    ::freeaddrinfo(res);

    const pacer pace(opt.rate, opt.stop);
    std::vector<std::uint8_t> datagram;
    while (reader.next(datagram)) {
        if (::send(fd, datagram.data(), datagram.size(), 0) < 0) {
            // A full socket buffer on a blocking socket waits; any other
            // send failure (e.g. ICMP port unreachable reflected back on
            // a connected socket) is retried once, then reported.
            if (errno == ECONNREFUSED &&
                ::send(fd, datagram.data(), datagram.size(), 0) >= 0) {
                // retry succeeded
            } else {
                result.error = std::string("send: ") + std::strerror(errno);
                break;
            }
        }
        ++result.datagrams;
        result.bytes += datagram.size();
        // Record count without decoding: trust the header's count field
        // for pacing only (a corrupt file still sends byte-exact).
        if (datagram.size() >= kWireHeaderSize)
            result.records += static_cast<std::uint16_t>(datagram[6] |
                                                         (datagram[7] << 8));
        if (!pace.wait(result.records)) {
            result.stopped = true;
            break;
        }
    }
    if (!reader.error().empty() && !result.stopped && result.error.empty())
        result.error = reader.error();
    ::close(fd);
    return result;
}

}  // namespace v6::net
