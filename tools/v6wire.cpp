// v6wire — inspect, dump, and transmit v6wire capture files.
//
//   v6wire info FILE              datagram/record counts and decode stats
//   v6wire dump FILE              decode to "day address hits" feed lines
//                                 (byte-identical to v6synth --stream for
//                                 a capture of the same world)
//   v6wire send FILE HOST PORT    replay the capture's datagrams over UDP
//          [--rate=R]             to a v6stream --listen collector
#include <csignal>
#include <iostream>

#include "tool_common.h"
#include "v6class/net/replay.h"
#include "v6class/net/wire.h"
#include "v6class/simd/address_block.h"
#include "v6class/stream/record.h"

using namespace v6;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Runs every datagram of `path` through a decoder; returns false on a
/// file-level error (message already printed).
bool scan_file(const std::string& path, net::wire_decoder* decoder,
               const std::function<void(const simd::record_block&)>& sink,
               std::uint64_t* bytes) {
    net::wire_file_reader reader(path);
    if (!reader.valid()) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return false;
    }
    std::vector<std::uint8_t> datagram;
    simd::record_block block;
    while (reader.next(datagram)) {
        if (bytes) *bytes += datagram.size();
        block.clear();
        if (decoder->decode(datagram.data(), datagram.size(), block) && sink)
            sink(block);
    }
    if (!reader.error().empty()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const tools::flag_set flags(argc, argv);
    double rate = 0;
    tools::flag_table cli(
        "usage: v6wire info FILE\n"
        "       v6wire dump FILE\n"
        "       v6wire send FILE HOST PORT [--rate=R]\n"
        "inspect / dump / transmit a v6wire capture file\n"
        "(dump emits \"day address hits\" feed lines; send paces at R\n"
        "records/second, 0 = line rate)");
    cli.add("rate", &rate, "send pacing in records/second (0 = line rate)");
    if (flags.has("help")) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }
    if (const auto err = cli.parse(flags)) {
        std::fprintf(stderr, "error: %s\n", err->c_str());
        return 1;
    }
    const tools::obs_exporter obs_dump(flags);
    const auto& pos = flags.positional();
    if (pos.size() < 2) {
        std::fputs(cli.usage().c_str(), stdout);
        return 1;
    }
    const std::string& verb = pos[0];
    const std::string& path = pos[1];

    if (verb == "info") {
        net::wire_decoder decoder;
        std::uint64_t bytes = 0;
        if (!scan_file(path, &decoder, nullptr, &bytes)) return 1;
        const net::wire_decode_stats& s = decoder.stats();
        std::printf("%s:\n", path.c_str());
        std::printf("  datagrams   %llu\n",
                    static_cast<unsigned long long>(s.datagrams));
        std::printf("  records     %llu\n",
                    static_cast<unsigned long long>(s.records));
        std::printf("  bytes       %llu\n",
                    static_cast<unsigned long long>(bytes));
        std::printf("  rejected    %llu\n",
                    static_cast<unsigned long long>(s.rejected()));
        if (s.rejected())
            std::printf("    short_header=%llu bad_magic=%llu bad_version=%llu\n"
                        "    bad_flags=%llu truncated=%llu trailing=%llu\n",
                        static_cast<unsigned long long>(s.short_header),
                        static_cast<unsigned long long>(s.bad_magic),
                        static_cast<unsigned long long>(s.bad_version),
                        static_cast<unsigned long long>(s.bad_flags),
                        static_cast<unsigned long long>(s.truncated),
                        static_cast<unsigned long long>(s.trailing));
        std::printf("  seq gaps    %llu (reordered %llu)\n",
                    static_cast<unsigned long long>(s.seq_gaps),
                    static_cast<unsigned long long>(s.seq_reorder));
        return 0;
    }

    if (verb == "dump") {
        net::wire_decoder decoder;
        const bool ok = scan_file(
            path, &decoder,
            [](const simd::record_block& block) {
                for (std::size_t i = 0; i < block.size(); ++i)
                    write_stream_record(std::cout, {block.day[i], block.addrs.at(i),
                                                    block.hits[i]});
            },
            nullptr);
        std::cout.flush();
        if (!ok) return 1;
        const net::wire_decode_stats& s = decoder.stats();
        std::fprintf(stderr, "dumped %llu records (%llu datagrams, %llu rejected)\n",
                     static_cast<unsigned long long>(s.records),
                     static_cast<unsigned long long>(s.datagrams),
                     static_cast<unsigned long long>(s.rejected()));
        return 0;
    }

    if (verb == "send") {
        if (pos.size() != 4) {
            std::fputs(cli.usage().c_str(), stdout);
            return 1;
        }
        const long port = std::atol(pos[3].c_str());
        if (port <= 0 || port > 65535) {
            std::fprintf(stderr, "error: bad port %s\n", pos[3].c_str());
            return 1;
        }
        std::signal(SIGINT, handle_stop);
        std::signal(SIGTERM, handle_stop);
        net::replay_options opt;
        opt.rate = rate;
        opt.stop = &g_stop;
        const net::replay_result result = net::send_wire_file(
            path, pos[2], static_cast<std::uint16_t>(port), opt);
        if (!result.ok()) {
            std::fprintf(stderr, "error: %s\n", result.error.c_str());
            return 1;
        }
        std::fprintf(stderr, "sent %llu datagrams (%llu records, %llu bytes)%s\n",
                     static_cast<unsigned long long>(result.datagrams),
                     static_cast<unsigned long long>(result.records),
                     static_cast<unsigned long long>(result.bytes),
                     result.stopped ? " [interrupted]" : "");
        return 0;
    }

    std::fprintf(stderr, "error: unknown subcommand '%s' (info|dump|send)\n",
                 verb.c_str());
    return 1;
}
