// Enrichment: source parsing, the binary db format (round trip and
// structural validation), longest-prefix lookups, the flat table
// against the Patricia reference on adversarial dbs, mutation fuzzing
// of V6ASNDB1 images, the RCU-style hot reload (old snapshot keeps
// serving through failures and swaps), the zero-drop reload-under-load
// property (the TSan target), and the per-ASN ledger with and without
// the ingest memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "v6class/net/collector.h"
#include "v6class/net/enrich.h"
#include "v6class/netgen/rng.h"
#include "v6class/trie/prefix_map.h"

namespace v6 {
namespace {

net::enrich_entry entry(const std::string& pfx, std::uint32_t asn,
                        const char* cc = "--") {
    return {*prefix::parse(pfx), {asn, {cc[0], cc[1]}}};
}

TEST(EnrichParse, AcceptsRouteAndCsvShapes) {
    const auto a = net::parse_enrich_line("2001:db8::/32 64500 de");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, entry("2001:db8::/32", 64500, "de"));

    const auto b = net::parse_enrich_line("2001:db8:1::/48,AS64501,US");
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->info.asn, 64501u);
    EXPECT_EQ(b->info.country, (std::array<char, 2>{'u', 's'}));

    const auto c = net::parse_enrich_line("2001:db8::1 7018");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->pfx.length(), 128u);
    EXPECT_EQ(c->info.country, (std::array<char, 2>{'-', '-'}));
}

TEST(EnrichParse, RejectsMalformedLines) {
    EXPECT_FALSE(net::parse_enrich_line(""));
    EXPECT_FALSE(net::parse_enrich_line("2001:db8::/32"));        // no asn
    EXPECT_FALSE(net::parse_enrich_line("notanaddr 64500"));
    EXPECT_FALSE(net::parse_enrich_line("2001:db8::/32 ASx"));
    EXPECT_FALSE(net::parse_enrich_line("2001:db8::/32 99999999999"));
    EXPECT_FALSE(net::parse_enrich_line("2001:db8::/32 64500 deu"));
}

TEST(EnrichDb, EncodeDecodeRoundTripDedupsLastWins) {
    std::vector<net::enrich_entry> entries = {
        entry("2001:db8::/32", 1, "aa"),
        entry("2001:db8:ffff::/48", 3, "cc"),
        entry("2001:db8::/32", 2, "bb"),  // later duplicate wins
    };
    const auto image = net::encode_asn_db(entries);
    EXPECT_EQ(image.size(), net::kAsnDbHeaderSize + 2 * net::kAsnDbEntrySize);
    std::string error;
    const auto decoded = net::decode_asn_db(image.data(), image.size(), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->size(), 2u);
    EXPECT_EQ((*decoded)[0], entry("2001:db8::/32", 2, "bb"));
    EXPECT_EQ((*decoded)[1], entry("2001:db8:ffff::/48", 3, "cc"));
}

TEST(EnrichDb, DecodeRejectsStructuralProblems) {
    auto image = net::encode_asn_db({entry("2001:db8::/32", 1)});
    std::string error;

    auto bad = image;
    bad[0] = 'X';
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    bad = image;
    bad[8] = 9;  // version
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    bad = image;
    bad.pop_back();  // size arithmetic
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    bad = image;
    bad[net::kAsnDbHeaderSize + 16] = 129;  // prefix length
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    bad = image;
    bad[net::kAsnDbHeaderSize + 17] = 1;  // reserved byte
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    bad = image;
    bad[net::kAsnDbHeaderSize + 15] = 0xff;  // host bits below /32 set
    EXPECT_FALSE(net::decode_asn_db(bad.data(), bad.size(), &error));

    EXPECT_FALSE(net::decode_asn_db(image.data(), 3, &error));  // short header
}

TEST(EnrichDb, DecodeRejectsUnsortedAndDuplicateEntries) {
    const auto image = net::encode_asn_db({entry("2001:db8::/32", 1), entry("2001:db8::/48", 2)});
    const auto first = image.begin() + static_cast<std::ptrdiff_t>(net::kAsnDbHeaderSize);
    const auto second = first + static_cast<std::ptrdiff_t>(net::kAsnDbEntrySize);
    std::string error;

    auto swapped = image;  // /48 before the /32 that covers it
    std::copy(second, second + net::kAsnDbEntrySize,
              swapped.begin() + (first - image.begin()));
    std::copy(first, second, swapped.begin() + (second - image.begin()));
    EXPECT_FALSE(net::decode_asn_db(swapped.data(), swapped.size(), &error));
    EXPECT_NE(error.find("out of order"), std::string::npos) << error;

    auto dup = image;  // the /32 twice
    std::copy(first, second, dup.begin() + (second - image.begin()));
    EXPECT_FALSE(net::decode_asn_db(dup.data(), dup.size(), &error));
}

TEST(EnrichDb, LongestPrefixMatchWins) {
    const net::asn_db db({entry("2001:db8::/32", 1, "aa"),
                          entry("2001:db8:8::/48", 2, "bb"),
                          entry("::/0", 9, "zz")});
    const auto* wide = db.lookup(*address::parse("2001:db8:1::1"));
    ASSERT_NE(wide, nullptr);
    EXPECT_EQ(wide->asn, 1u);
    const auto* deep = db.lookup(*address::parse("2001:db8:8::1"));
    ASSERT_NE(deep, nullptr);
    EXPECT_EQ(deep->asn, 2u);
    const auto* fallback = db.lookup(*address::parse("2600::1"));
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(fallback->asn, 9u);
}

// ------------------------------------------- flat table vs Patricia

using u128 = unsigned __int128;

u128 to_u128(const address& a) { return static_cast<u128>(a.hi()) << 64 | a.lo(); }

address from_u128(u128 v) {
    return address::from_pair(static_cast<std::uint64_t>(v >> 64),
                              static_cast<std::uint64_t>(v));
}

/// A seeded db built to hit the table's edges: a nested chain from /0
/// to /128 along one address, adjacent sibling pairs at random depths,
/// prefixes longer than /64 near the chain, prefixes ending at the top
/// of the address space, and duplicate prefixes with new infos (the
/// input's last wins), all in shuffled order.
std::vector<net::enrich_entry> adversarial_db(std::uint64_t seed) {
    rng r{seed};
    std::vector<net::enrich_entry> db;
    std::uint32_t asn = 1;
    const auto add = [&](const prefix& p) {
        db.push_back({p, {asn, {static_cast<char>('a' + asn % 26), 'z'}}});
        ++asn;
    };
    const address anchor = address::from_pair(r(), r());
    for (unsigned len = static_cast<unsigned>(r.uniform(3)); len < 128;
         len += 1 + static_cast<unsigned>(r.uniform(8)))
        add(prefix{anchor, len});
    add(prefix{anchor, 128});
    for (int i = 0; i < 12; ++i) {
        const prefix parent{address::from_pair(r(), r()),
                            static_cast<unsigned>(r.uniform(128))};
        add(parent.child(0));
        add(parent.child(1));
    }
    for (int i = 0; i < 12; ++i)
        add(prefix{address::from_pair(anchor.hi(), r()),
                   65 + static_cast<unsigned>(r.uniform(64))});
    const address top = address::from_pair(~0ull, ~0ull);
    add(prefix{top, 1 + static_cast<unsigned>(r.uniform(127))});
    add(prefix{top, 128});
    for (int i = 0; i < 6; ++i) {
        const prefix dup = db[r.uniform(db.size())].pfx;
        add(dup);
    }
    for (std::size_t i = db.size() - 1; i > 0; --i)
        std::swap(db[i], db[r.uniform(i + 1)]);
    return db;
}

/// Every boundary of every prefix (first, last + 1), each boundary - 1,
/// a random address inside each prefix, and random addresses anywhere.
std::vector<address> probes(const std::vector<net::enrich_entry>& db, std::uint64_t seed) {
    rng r{seed};
    std::vector<address> out = {address{}, address::from_pair(~0ull, ~0ull)};
    for (const net::enrich_entry& e : db) {
        const u128 first = to_u128(e.pfx.first_address());
        const u128 last = to_u128(e.pfx.last_address());
        out.push_back(from_u128(first));
        out.push_back(from_u128(last));
        if (first != 0) out.push_back(from_u128(first - 1));
        if (last != ~u128{0}) out.push_back(from_u128(last + 1));
        const u128 host = last - first;  // the host-bit mask
        out.push_back(from_u128(first | (to_u128(address::from_pair(r(), r())) & host)));
    }
    for (int i = 0; i < 200; ++i) out.push_back(address::from_pair(r(), r()));
    return out;
}

/// Checks `db` against the Patricia reference over `entries` at every
/// probe: the same match (or none), through both lookup forms, and one
/// pointer per matched entry however many intervals it spans.
void expect_matches_reference(const net::asn_db& db,
                              const std::vector<net::enrich_entry>& entries,
                              const std::vector<address>& at) {
    prefix_map<net::enrich_info> ref;
    for (const net::enrich_entry& e : entries) ref.insert(e.pfx, e.info);
    ASSERT_EQ(db.size(), ref.size());
    std::map<prefix, const net::enrich_info*> pointer_of;
    for (const address& a : at) {
        const net::enrich_info* got = db.lookup(a);
        ASSERT_EQ(got, db.lookup(a.hi(), a.lo())) << a.to_string();
        const auto want = ref.longest_match(a);
        ASSERT_EQ(got != nullptr, want.has_value()) << a.to_string();
        if (!want) continue;
        ASSERT_EQ(*got, want->second.get())
            << a.to_string() << " should match " << want->first.to_string();
        const auto [it, fresh] = pointer_of.emplace(want->first, got);
        ASSERT_EQ(it->second, got) << "two pointers for " << want->first.to_string();
    }
}

TEST(EnrichTable, MatchesPatriciaReferenceOnAdversarialDbs) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto entries = adversarial_db(seed);
        const net::asn_db db(entries);
        EXPECT_GE(db.intervals(), 1u);
        expect_matches_reference(db, entries, probes(entries, seed + 1000));
    }
}

TEST(EnrichTable, EdgeDbs) {
    const std::vector<address> at = probes(adversarial_db(7), 7);
    const std::vector<std::vector<net::enrich_entry>> dbs = {
        {},                                          // empty: one uncovered interval
        {entry("::/0", 1)},                          // one interval, covered
        {entry("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 2)},
        {entry("::/128", 3), entry("::1/128", 4)},   // adjacent at the bottom
        {entry("8000::/1", 5), entry("::/1", 6)},    // siblings tiling the space
        {entry("2001:db8::/32", 7), entry("2001:db8::/32", 8)},  // last wins
    };
    for (const auto& entries : dbs) {
        const net::asn_db db(entries);
        expect_matches_reference(db, entries, at);
    }
    EXPECT_EQ(net::asn_db({}).intervals(), 1u);
    EXPECT_EQ(net::asn_db({}).lookup(address{}), nullptr);
    const net::asn_db dup({entry("2001:db8::/32", 7), entry("2001:db8::/32", 8)});
    EXPECT_EQ(dup.size(), 1u);
    EXPECT_EQ(dup.lookup(*address::parse("2001:db8::1"))->asn, 8u);
}

/// The per-day ledger rows of one ingest pass over `feed` through
/// `db_path`, as (asn, country, records, hits) tuples, and the matched
/// tally.
using ledger_row = std::tuple<std::uint32_t, char, char, std::uint64_t, std::uint64_t>;

std::vector<std::vector<ledger_row>> ledger_rows(const std::string& db_path,
                                                 const std::vector<stream_record>& feed,
                                                 bool memo, std::uint64_t* matched) {
    net::enrichment enrich(db_path);
    EXPECT_TRUE(enrich.reload());
    stream_config cfg;
    cfg.shards = 2;
    stream_engine engine(cfg);
    net::asn_ledger ledger;
    net::lookup_cache cache;
    simd::record_block block;
    for (std::size_t i = 0; i < feed.size(); i += 43) {
        block.clear();
        for (std::size_t j = i; j < std::min(feed.size(), i + 43); ++j)
            block.push_back(feed[j].addr.hi(), feed[j].addr.lo(), feed[j].day,
                            feed[j].hits);
        net::ingest_block(engine, block, &enrich, &ledger, memo ? &cache : nullptr);
    }
    engine.finish();
    *matched = ledger.matched();
    std::vector<std::vector<ledger_row>> days;
    for (int d = 0; d < 3; ++d) {
        days.emplace_back();
        for (const net::asn_row& row : ledger.take_day(d))
            days.back().emplace_back(row.asn, row.country[0], row.country[1],
                                     row.records, row.hits);
    }
    return days;
}

// The /64 memo must be invisible in the ledger: with it and without
// it, the same tallies, over a feed whose /64s repeat in short runs (so
// the memo both hits and misses) and half of which no route covers.
// The second db adds a /65, which turns the memo off.
TEST(EnrichTable, IngestLedgerIdenticalWithAndWithoutMemo) {
    rng r{99};
    const std::uint64_t base = 0x20010db800000000ull;
    std::vector<net::enrich_entry> routes;
    for (std::uint32_t i = 0; i < 64; ++i)
        routes.push_back({prefix{address::from_pair(base | r.uniform(256) << 24 |
                                                        r.uniform(16) << 16, 0),
                                 40 + 4 * static_cast<unsigned>(r.uniform(7))},
                          {64500 + i, {'d', 'e'}}});
    std::vector<net::enrich_entry> deep = routes;
    deep.push_back(entry("2001:db8::8000:0:0:0/65", 1, "xx"));
    std::vector<stream_record> feed;
    for (int d = 0; d < 3; ++d)
        while (feed.size() < 3000u * static_cast<unsigned>(d + 1)) {
            const std::uint64_t hi =
                base | r.uniform(512) << 24 | r.uniform(16) << 16 | r.uniform(4);
            for (std::uint64_t k = 1 + r.uniform(4); k > 0; --k)
                feed.push_back({d, address::from_pair(hi, r.uniform(2) << 63), 1 + r.uniform(5)});
        }
    for (const auto& entries : {routes, deep}) {
        const std::string path = testing::TempDir() + "enrich_memo.db";
        ASSERT_TRUE(net::write_asn_db(path, entries));
        std::uint64_t with = 0, without = 0;
        const auto a = ledger_rows(path, feed, true, &with);
        const auto b = ledger_rows(path, feed, false, &without);
        EXPECT_EQ(a, b);
        EXPECT_EQ(with, without);
        EXPECT_GT(with, 0u);
        EXPECT_LT(with, feed.size());
    }
}

// ------------------------------------------- V6ASNDB1 mutation fuzzing

/// One mutation of `image`: bit flips, a truncation, a lying entry
/// count, a splice with `other`, or an interesting byte at an entry's
/// length or reserved field.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> image,
                                 const std::vector<std::uint8_t>& other, rng& r) {
    const auto put_u32 = [&](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i) image[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    switch (r.uniform(5)) {
        case 0:  // bit flips
            for (std::uint64_t n = 1 + r.uniform(4); n > 0 && !image.empty(); --n)
                image[r.uniform(image.size())] ^= static_cast<std::uint8_t>(1u << r.uniform(8));
            break;
        case 1:  // truncation
            image.resize(r.uniform(image.size() + 1));
            break;
        case 2: {  // lying entry count; 0x0aaaaaab * 24 wraps to 8 in 32 bits
            const std::uint32_t real = static_cast<std::uint32_t>(
                (image.size() - net::kAsnDbHeaderSize) / net::kAsnDbEntrySize);
            const std::uint32_t lies[] = {0,           1,           real - 1,
                                          real + 1,    0xffffffffu, 0x0aaaaaabu,
                                          static_cast<std::uint32_t>(r())};
            put_u32(12, lies[r.uniform(7)]);
            break;
        }
        case 3: {  // splice: a head of this image, a tail of the other
            const std::size_t head = r.uniform(image.size() + 1);
            const std::size_t tail = r.uniform(other.size() + 1);
            image.resize(head);
            image.insert(image.end(), other.end() - static_cast<std::ptrdiff_t>(tail),
                         other.end());
            break;
        }
        default: {  // an interesting byte in one entry's length/reserved field
            const std::size_t n = (image.size() - net::kAsnDbHeaderSize) / net::kAsnDbEntrySize;
            if (n == 0) break;
            const std::size_t at = net::kAsnDbHeaderSize + r.uniform(n) * net::kAsnDbEntrySize +
                                   16 + r.uniform(2);
            const std::uint8_t values[] = {0, 1, 64, 65, 127, 128, 129, 255};
            image[at] = values[r.uniform(8)];
            break;
        }
    }
    return image;
}

// Mutated images never crash the decoder or the table (run under the
// asan preset for the UB half of that claim); an accepted image
// re-encodes byte-identically, and its table agrees with the Patricia
// reference.
TEST(EnrichDbFuzz, MutatedImagesDecodeSafely) {
    std::vector<std::vector<std::uint8_t>> seeds;
    for (std::uint64_t s = 1; s <= 8; ++s) seeds.push_back(net::encode_asn_db(adversarial_db(s)));
    seeds.push_back(net::encode_asn_db({}));
    seeds.push_back(net::encode_asn_db({entry("2001:db8::/32", 1, "nl")}));
    rng r{2024};
    std::uint64_t accepted = 0, rejected = 0;
    constexpr int kAttempts = 20000;
    for (int i = 0; i < kAttempts; ++i) {
        const auto& seed = seeds[r.uniform(seeds.size())];
        const auto image = mutate(seed, seeds[r.uniform(seeds.size())], r);
        std::string error;
        const auto entries = net::decode_asn_db(image.data(), image.size(), &error);
        if (!entries) {
            ASSERT_FALSE(error.empty());
            ++rejected;
            continue;
        }
        ++accepted;
        ASSERT_EQ(net::encode_asn_db(*entries), image) << "attempt " << i;
        const net::asn_db db(*entries);
        if (i % 8 == 0) expect_matches_reference(db, *entries, probes(*entries, i));
    }
    EXPECT_EQ(accepted + rejected, static_cast<std::uint64_t>(kAttempts));
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(Enrichment, ReloadSwapsAndFailureKeepsOldSnapshot) {
    const std::string path = testing::TempDir() + "enrich_swap.db";
    ASSERT_TRUE(net::write_asn_db(path, {entry("2001:db8::/32", 100)}));

    net::enrichment enr(path);
    EXPECT_EQ(enr.snapshot(), nullptr) << "not loaded until first reload";
    std::string error;
    ASSERT_TRUE(enr.reload(&error)) << error;
    const address probe = *address::parse("2001:db8::1");
    std::shared_ptr<const net::asn_db> snap;
    ASSERT_NE(enr.lookup(probe, snap), nullptr);
    EXPECT_EQ(enr.lookup(probe, snap)->asn, 100u);

    ASSERT_TRUE(net::write_asn_db(path, {entry("2001:db8::/32", 200)}));
    ASSERT_TRUE(enr.reload(&error));
    EXPECT_EQ(enr.lookup(probe, snap)->asn, 200u);
    EXPECT_EQ(snap->generation(), 2u);

    // A corrupt push must not take the service down.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "garbage";
    }
    EXPECT_FALSE(enr.reload(&error));
    EXPECT_FALSE(error.empty());
    ASSERT_NE(enr.lookup(probe, snap), nullptr);
    EXPECT_EQ(enr.lookup(probe, snap)->asn, 200u) << "old snapshot serves on";
    EXPECT_EQ(enr.reloads(), 2u);
    EXPECT_EQ(enr.failures(), 1u);
}

// The tentpole guarantee: readers hammering lookup() while the db file
// is rewritten and reloaded many times always see a complete snapshot —
// every single lookup resolves (zero "dropped" enrichments) and the
// result is one of the two valid generations, never a torn value.
// Run under TSan to prove the swap is race-free.
TEST(Enrichment, HotReloadUnderLoadDropsNothing) {
    const std::string path = testing::TempDir() + "enrich_load.db";
    ASSERT_TRUE(net::write_asn_db(path, {entry("2001:db8::/32", 111, "aa")}));
    net::enrichment enr(path);
    ASSERT_TRUE(enr.reload());

    const address probe = *address::parse("2001:db8::42");
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> lookups{0}, misses{0}, torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&] {
            std::shared_ptr<const net::asn_db> snap;
            while (!stop.load(std::memory_order_relaxed)) {
                const net::enrich_info* info = enr.lookup(probe, snap);
                ++lookups;
                if (!info) {
                    ++misses;
                } else if (!((info->asn == 111 &&
                              info->country == std::array<char, 2>{'a', 'a'}) ||
                             (info->asn == 222 &&
                              info->country == std::array<char, 2>{'b', 'b'}))) {
                    ++torn;
                }
            }
        });

    for (int i = 0; i < 50; ++i) {
        const bool odd = i % 2;
        ASSERT_TRUE(net::write_asn_db(
            path, {entry("2001:db8::/32", odd ? 222 : 111, odd ? "bb" : "aa")}));
        ASSERT_TRUE(enr.reload());
    }
    stop = true;
    for (auto& t : readers) t.join();

    EXPECT_GT(lookups.load(), 0u);
    EXPECT_EQ(misses.load(), 0u) << "a reload made lookups fail";
    EXPECT_EQ(torn.load(), 0u) << "a lookup saw a half-built snapshot";
    EXPECT_EQ(enr.reloads(), 51u);
    EXPECT_EQ(enr.failures(), 0u);
}

TEST(AsnLedger, TakeDaySortsAndForgets) {
    net::asn_ledger ledger;
    const net::enrich_info a{64500, {'d', 'e'}};
    const net::enrich_info b{64501, {'u', 's'}};
    // Two batches, so rows accumulate across calls as well as within one.
    const net::asn_ledger::note_row first[] = {
        {360, &a, 1, 10}, {360, &b, 1, 1}};
    const net::asn_ledger::note_row second[] = {
        {360, &b, 1, 2}, {360, nullptr, 1, 5} /* unrouted bucket */, {361, &a, 1, 7}};
    ledger.note_many(first, std::size(first));
    ledger.note_many(second, std::size(second));

    const auto rows = ledger.take_day(360);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].asn, 64501u);  // 2 records beat 1
    EXPECT_EQ(rows[0].records, 2u);
    EXPECT_EQ(rows[0].hits, 3u);
    EXPECT_EQ(rows[1].records, 1u);
    // Ties (the two 1-record rows) break by ascending ASN; 0 = unrouted.
    EXPECT_EQ(rows[1].asn, 0u);
    EXPECT_EQ(rows[2].asn, 64500u);
    EXPECT_EQ(rows[2].country, (std::array<char, 2>{'d', 'e'}));

    EXPECT_TRUE(ledger.take_day(360).empty()) << "a day reports once";
    EXPECT_EQ(ledger.take_day(361).size(), 1u);

    EXPECT_EQ(ledger.matched(), 4u);
    EXPECT_EQ(ledger.unmatched(), 1u);

    const auto top = ledger.top(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].asn, 64500u);  // lifetime: 2 records for a
    EXPECT_EQ(top[0].records, 2u);
}

// The ledger counts exactly the records the engine accepted. A record
// below the open day is dropped as late, and one pushed after finish()
// is dropped too, so neither may reach a day cell, the lifetime cells
// or the matched tallies — nor re-create a day already taken.
TEST(AsnLedger, IngestCountsOnlyAcceptedRecords) {
    stream_config cfg;
    cfg.shards = 1;
    stream_engine engine(cfg);
    net::asn_ledger ledger;
    const auto ingest = [&](std::initializer_list<stream_record> records) {
        simd::record_block block;
        for (const stream_record& r : records)
            block.push_back(r.addr.hi(), r.addr.lo(), r.day, r.hits);
        net::ingest_block(engine, block, nullptr, &ledger);
    };
    const auto at = [](std::uint64_t lo) {
        return address::from_pair(0x20010db800000000ull, lo);
    };
    ingest({{362, at(1), 1}, {362, at(2), 1}, {363, at(3), 1},
            {362, at(4), 5} /* late */, {363, at(5), 1}});
    EXPECT_EQ(engine.stats().late_dropped, 1u);
    const auto day362 = ledger.take_day(362);
    ASSERT_EQ(day362.size(), 1u);
    EXPECT_EQ(day362[0].records, 2u);
    EXPECT_EQ(day362[0].hits, 2u);

    ingest({{362, at(6), 1} /* late, after the day was taken */, {363, at(7), 1}});
    engine.finish();
    ingest({{364, at(8), 1}});  // dropped: after finish()
    EXPECT_EQ(engine.stats().dropped, 1u);

    EXPECT_TRUE(ledger.take_day(362).empty()) << "a late record re-created the day";
    EXPECT_TRUE(ledger.take_day(364).empty());
    const auto day363 = ledger.take_day(363);
    ASSERT_EQ(day363.size(), 1u);
    EXPECT_EQ(day363[0].records, 3u);
    EXPECT_EQ(ledger.unmatched(), engine.stats().records);
    const auto top = ledger.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].records, engine.stats().records);
    EXPECT_EQ(top[0].hits, engine.stats().hits);
}

}  // namespace
}  // namespace v6
