// v6mkdb — build (and inspect) the binary ASN/geo enrichment database
// v6stream loads with --asn-db and hot-reloads on SIGHUP.
//
//   v6mkdb --in=SRC --out=DB      compile SRC into the binary db
//   v6mkdb --dump=DB              print a db back as source lines
//
// SRC is RIR-style CSV or route-dump text: "prefix asn [country]" per
// line, comma or whitespace separated ("AS64500" accepted; '#' comments
// and blank lines tolerated; duplicate prefixes keep the last line, so
// a delta file can be appended to a base dump). `v6synth --routes`
// writes a compatible routes.txt. The build is offline and the write is
// atomic (tmp + rename), so regenerating the db under a live collector
// and SIGHUPing it is always safe — the xenoeye geodb workflow.
#include "tool_common.h"
#include "v6class/net/enrich.h"

using namespace v6;

int main(int argc, char** argv) {
    const tools::flag_set flags(argc, argv);
    std::string in, out, dump;
    tools::flag_table cli(
        "usage: v6mkdb --in=SRC --out=DB\n"
        "       v6mkdb --dump=DB\n"
        "compile \"prefix asn [country]\" source into the binary ASN/geo\n"
        "db for v6stream --asn-db (or dump one back to source lines)");
    cli.add("in", &in, "source file (\"prefix asn [country]\" lines / CSV)")
        .add("out", &out, "binary db to write (atomic tmp + rename)")
        .add("dump", &dump, "print an existing db as source lines");
    if (flags.has("help")) {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }
    if (const auto err = cli.parse(flags)) {
        std::fprintf(stderr, "error: %s\n", err->c_str());
        return 1;
    }
    const tools::obs_exporter obs_dump(flags);

    if (!dump.empty()) {
        std::string error;
        const auto db = net::asn_db::load(dump, 0, &error);
        if (!db) {
            std::fprintf(stderr, "error: %s: %s\n", dump.c_str(), error.c_str());
            return 1;
        }
        // Re-decode for the entry list: asn_db keeps only the flat table.
        std::ifstream raw(dump, std::ios::binary);
        std::vector<std::uint8_t> image((std::istreambuf_iterator<char>(raw)),
                                        std::istreambuf_iterator<char>());
        const auto entries = net::decode_asn_db(image.data(), image.size(), &error);
        if (!entries) {
            std::fprintf(stderr, "error: %s: %s\n", dump.c_str(), error.c_str());
            return 1;
        }
        for (const net::enrich_entry& e : *entries)
            std::printf("%s %u %c%c\n", e.pfx.to_string().c_str(), e.info.asn,
                        e.info.country[0], e.info.country[1]);
        return 0;
    }

    if (in.empty() || out.empty()) {
        std::fputs(cli.usage().c_str(), stdout);
        return 1;
    }

    std::uint64_t malformed = 0;
    const auto entries = net::read_enrich_source(in, &malformed);
    if (!entries) {
        std::fprintf(stderr, "error: cannot open %s\n", in.c_str());
        return 1;
    }
    if (malformed)
        std::fprintf(stderr, "warning: %llu malformed lines in %s skipped\n",
                     static_cast<unsigned long long>(malformed), in.c_str());
    if (entries->empty()) {
        std::fprintf(stderr, "error: no usable entries in %s\n", in.c_str());
        return 1;
    }
    if (!net::write_asn_db(out, *entries)) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }

    // Round-trip sanity: the file we just wrote must load.
    std::string error;
    const auto db = net::asn_db::load(out, 0, &error);
    if (!db) {
        std::fprintf(stderr, "error: verification reload of %s failed: %s\n",
                     out.c_str(), error.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s: %zu prefixes\n", out.c_str(), db->size());
    return 0;
}
