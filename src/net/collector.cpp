// collector.cpp — UDP collector rx loop. See collector.h for the
// threading model.
#include "v6class/net/collector.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace v6::net {

void ingest_block(stream_engine& engine, const simd::record_block& block,
                  enrichment* enrich, asn_ledger* ledger, lookup_cache* cache) {
    const std::optional<int> start = engine.push_block(block);
    if (!ledger || !start) return;
    std::shared_ptr<const asn_db> snap;
    if (enrich) snap = enrich->snapshot();
    const asn_db* db = snap.get();
    // The per-/64 memo is only sound when no db prefix is longer than
    // /64 (then hi-64 determines the longest match); and it must be
    // flushed whenever the snapshot changed under a reload.
    const bool memo = cache && db && db->max_length() <= 64;
    if (memo && !cache->matches(db)) cache->reset(db);

    // The ledger counts only what the engine accepted (push_block's
    // rule, replayed from the open day it returned). Rows aggregate per
    // (day, info) so the ledger mutex is taken once per block. The scan
    // is linear in the rows so far: cheap on clustered traffic, but
    // scattered traffic keeps most records apart (the ingest_dup feed
    // averages 19.2 rows per 43-record datagram), and then the scan and
    // note_many's map lookups cost more than the table lookups.
    int open = *start;
    std::vector<asn_ledger::note_row> agg;
    const std::uint64_t* his = block.addrs.hi();
    const std::uint64_t* los = block.addrs.lo();
    for (std::size_t i = 0; i < block.size(); ++i) {
        if (block.day[i] < open) continue;
        open = block.day[i];
        const enrich_info* info = nullptr;
        if (memo) {
            lookup_cache::slot& s =  // kSlots == 256
                cache->slots[(his[i] * 0x9e3779b97f4a7c15ull) >> (64 - 8)];
            if (!s.valid || s.hi != his[i])
                s = {his[i], db->lookup(his[i], los[i]), true};
            info = s.info;
        } else if (db) {
            info = db->lookup(his[i], los[i]);
        }
        const auto a = std::find_if(agg.begin(), agg.end(), [&](const auto& r) {
            return r.day == block.day[i] && r.info == info;
        });
        if (a == agg.end()) {
            agg.push_back({block.day[i], info, 1, block.hits[i]});
        } else {
            ++a->records;
            a->hits += block.hits[i];
        }
    }
    if (!agg.empty()) ledger->note_many(agg.data(), agg.size());
}

udp_collector::udp_collector(stream_engine& engine, collector_config cfg,
                             enrichment* enrich, asn_ledger* ledger)
    : engine_(engine), cfg_(std::move(cfg)), enrich_(enrich), ledger_(ledger) {
    if (cfg_.rx_batch == 0) cfg_.rx_batch = 1;
    if (cfg_.registry) {
        obs::registry& reg = *cfg_.registry;
        m_.datagrams = reg.get_counter("v6_net_rx_datagrams_total", {},
                                       "Well-formed v6wire datagrams received.");
        m_.records = reg.get_counter("v6_net_rx_records_total", {},
                                     "Records decoded and pushed into the engine.");
        m_.bytes = reg.get_counter("v6_net_rx_bytes_total", {},
                                   "UDP payload bytes received.");
        const char* help = "Datagrams rejected by the wire decoder, by reason.";
        m_.short_header = reg.get_counter("v6_net_rx_rejected_total",
                                          {{"reason", "short_header"}}, help);
        m_.bad_magic = reg.get_counter("v6_net_rx_rejected_total",
                                       {{"reason", "bad_magic"}}, help);
        m_.bad_version = reg.get_counter("v6_net_rx_rejected_total",
                                         {{"reason", "bad_version"}}, help);
        m_.bad_flags = reg.get_counter("v6_net_rx_rejected_total",
                                       {{"reason", "bad_flags"}}, help);
        m_.truncated = reg.get_counter("v6_net_rx_rejected_total",
                                       {{"reason", "truncated"}}, help);
        m_.trailing = reg.get_counter("v6_net_rx_rejected_total",
                                      {{"reason", "trailing"}}, help);
        m_.seq_gaps = reg.get_counter("v6_net_rx_seq_gaps_total", {},
                                      "Datagrams presumed lost (sender sequence gaps).");
    }
}

udp_collector::~udp_collector() { stop(); }

bool udp_collector::start(std::string* error) {
    const auto fail = [&](const std::string& why) {
        if (error) *error = why + ": " + std::strerror(errno);
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        return false;
    };
    fd_ = ::socket(AF_INET6, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return fail("socket");
    int off = 0;
    (void)::setsockopt(fd_, IPPROTO_IPV6, IPV6_V6ONLY, &off, sizeof off);
    if (cfg_.rcvbuf > 0)
        (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &cfg_.rcvbuf, sizeof cfg_.rcvbuf);
    sockaddr_in6 addr{};
    addr.sin6_family = AF_INET6;
    addr.sin6_port = htons(cfg_.port);
    if (::inet_pton(AF_INET6, cfg_.bind.c_str(), &addr.sin6_addr) != 1) {
        errno = EINVAL;
        return fail("bad bind address \"" + cfg_.bind + "\"");
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        return fail("bind [" + cfg_.bind + "]:" + std::to_string(cfg_.port));
    sockaddr_in6 bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0)
        return fail("getsockname");
    port_ = ntohs(bound.sin6_port);
    stop_.store(false, std::memory_order_release);
    rx_thread_ = std::thread([this] { rx_loop(); });
    running_.store(true, std::memory_order_release);
    return true;
}

void udp_collector::stop() {
    if (rx_thread_.joinable()) {
        stop_.store(true, std::memory_order_release);
        rx_thread_.join();
    }
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    running_.store(false, std::memory_order_release);
}

collector_stats udp_collector::stats() const {
    collector_stats s;
    s.datagrams = a_datagrams_.load(std::memory_order_acquire);
    s.records = a_records_.load(std::memory_order_acquire);
    s.bytes = a_bytes_.load(std::memory_order_acquire);
    s.decode.datagrams = s.datagrams;
    s.decode.records = s.records;
    s.decode.short_header = a_short_.load(std::memory_order_acquire);
    s.decode.bad_magic = a_bad_magic_.load(std::memory_order_acquire);
    s.decode.bad_version = a_bad_version_.load(std::memory_order_acquire);
    s.decode.bad_flags = a_bad_flags_.load(std::memory_order_acquire);
    s.decode.truncated = a_truncated_.load(std::memory_order_acquire);
    s.decode.trailing = a_trailing_.load(std::memory_order_acquire);
    s.decode.seq_gaps = a_seq_gaps_.load(std::memory_order_acquire);
    s.decode.seq_reorder = a_seq_reorder_.load(std::memory_order_acquire);
    return s;
}

void udp_collector::rx_loop() {
    const std::size_t slots = cfg_.rx_batch;
    std::vector<std::vector<std::uint8_t>> buffers(
        slots, std::vector<std::uint8_t>(kWireMaxDatagram));
    std::vector<iovec> iovs(slots);
    std::vector<mmsghdr> msgs(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        iovs[i] = {buffers[i].data(), buffers[i].size()};
        std::memset(&msgs[i], 0, sizeof msgs[i]);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
    }

    wire_decoder decoder;
    simd::record_block batch;
    wire_decode_stats last{};  // previous mirror, for per-burst counter deltas

    while (!stop_.load(std::memory_order_acquire)) {
        const int n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(slots),
                                 0, nullptr);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
                pollfd pfd{fd_, POLLIN, 0};
                (void)::poll(&pfd, 1, 50);
                continue;
            }
            break;  // unrecoverable socket error; counters stop advancing
        }
        std::uint64_t burst_bytes = 0;
        batch.clear();
        for (int i = 0; i < n; ++i) {
            const std::size_t len = msgs[i].msg_len;
            burst_bytes += len;
            decoder.decode(buffers[static_cast<std::size_t>(i)].data(), len, batch);
        }
        ingest_block(engine_, batch, enrich_, ledger_, &cache_);

        // Mirror the decoder tallies (rx thread owns the decoder; the
        // atomics and obs counters are the cross-thread view).
        const wire_decode_stats& d = decoder.stats();
        a_datagrams_.store(d.datagrams, std::memory_order_release);
        a_records_.store(d.records, std::memory_order_release);
        a_bytes_.fetch_add(burst_bytes, std::memory_order_acq_rel);
        a_short_.store(d.short_header, std::memory_order_release);
        a_bad_magic_.store(d.bad_magic, std::memory_order_release);
        a_bad_version_.store(d.bad_version, std::memory_order_release);
        a_bad_flags_.store(d.bad_flags, std::memory_order_release);
        a_truncated_.store(d.truncated, std::memory_order_release);
        a_trailing_.store(d.trailing, std::memory_order_release);
        a_seq_gaps_.store(d.seq_gaps, std::memory_order_release);
        a_seq_reorder_.store(d.seq_reorder, std::memory_order_release);
        m_.datagrams.inc(d.datagrams - last.datagrams);
        m_.records.inc(d.records - last.records);
        m_.bytes.inc(burst_bytes);
        m_.short_header.inc(d.short_header - last.short_header);
        m_.bad_magic.inc(d.bad_magic - last.bad_magic);
        m_.bad_version.inc(d.bad_version - last.bad_version);
        m_.bad_flags.inc(d.bad_flags - last.bad_flags);
        m_.truncated.inc(d.truncated - last.truncated);
        m_.trailing.inc(d.trailing - last.trailing);
        if (d.seq_gaps >= last.seq_gaps)
            m_.seq_gaps.inc(d.seq_gaps - last.seq_gaps);
        last = d;
    }
}

}  // namespace v6::net
