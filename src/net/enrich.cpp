// enrich.cpp — ASN/geo database build, load, hot-reload, and the
// per-ASN ingest ledger. See enrich.h for the format and the reload
// safety argument.
#include "v6class/net/enrich.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>

#include "v6class/obs/atomic_file.h"
#include "v6class/trie/prefix_map.h"

namespace v6::net {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::string_view trim(std::string_view s) noexcept {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

/// Splits on commas or runs of whitespace, trimming each field — covers
/// both RIR-style CSV ("2001:db8::/32,64500,nl") and route-dump lines
/// ("2001:db8::/32 64500").
std::vector<std::string_view> split_fields(std::string_view line) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
        if (i == line.size() || line[i] == ',' ||
            std::isspace(static_cast<unsigned char>(line[i]))) {
            const std::string_view field = trim(line.substr(start, i - start));
            if (!field.empty()) out.push_back(field);
            start = i + 1;
        }
    }
    return out;
}

}  // namespace

std::optional<enrich_entry> parse_enrich_line(std::string_view line) noexcept {
    const std::vector<std::string_view> fields = split_fields(line);
    if (fields.size() < 2 || fields.size() > 3) return std::nullopt;
    const std::optional<prefix> pfx = prefix::parse(fields[0]);
    if (!pfx) return std::nullopt;
    std::string_view asn_text = fields[1];
    if (asn_text.size() > 2 && (asn_text[0] == 'A' || asn_text[0] == 'a') &&
        (asn_text[1] == 'S' || asn_text[1] == 's'))
        asn_text.remove_prefix(2);
    if (asn_text.empty()) return std::nullopt;
    std::uint64_t asn = 0;
    for (const char c : asn_text) {
        if (c < '0' || c > '9') return std::nullopt;
        asn = asn * 10 + static_cast<std::uint64_t>(c - '0');
        if (asn > 0xffffffffull) return std::nullopt;
    }
    enrich_entry e;
    e.pfx = *pfx;
    e.info.asn = static_cast<std::uint32_t>(asn);
    if (fields.size() == 3) {
        if (fields[2].size() != 2) return std::nullopt;
        e.info.country = {static_cast<char>(std::tolower(
                              static_cast<unsigned char>(fields[2][0]))),
                          static_cast<char>(std::tolower(
                              static_cast<unsigned char>(fields[2][1])))};
    }
    return e;
}

std::optional<std::vector<enrich_entry>> read_enrich_source(
    const std::string& path, std::uint64_t* malformed) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::vector<enrich_entry> entries;
    std::uint64_t bad = 0;
    std::string line;
    while (std::getline(in, line)) {
        const std::string_view text = trim(line);
        if (text.empty() || text.front() == '#') continue;
        if (const auto e = parse_enrich_line(text))
            entries.push_back(*e);
        else
            ++bad;
    }
    if (malformed) *malformed = bad;
    return entries;
}

std::vector<std::uint8_t> encode_asn_db(std::vector<enrich_entry> entries) {
    // Sort by prefix; stable, so within a run of duplicates the input's
    // last entry is the run's last — kept below (last-writer-wins,
    // matching prefix_map::insert overwrite semantics).
    std::stable_sort(entries.begin(), entries.end(),
                     [](const enrich_entry& a, const enrich_entry& b) {
                         return a.pfx < b.pfx;
                     });
    std::vector<enrich_entry> unique_entries;
    unique_entries.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (i + 1 == entries.size() || !(entries[i].pfx == entries[i + 1].pfx))
            unique_entries.push_back(entries[i]);
    entries = std::move(unique_entries);
    std::vector<std::uint8_t> out(kAsnDbHeaderSize + entries.size() * kAsnDbEntrySize);
    std::uint8_t* p = out.data();
    std::memcpy(p, kAsnDbMagic, 8);
    put_u32(p + 8, kAsnDbVersion);
    put_u32(p + 12, static_cast<std::uint32_t>(entries.size()));
    p += kAsnDbHeaderSize;
    for (const enrich_entry& e : entries) {
        std::memcpy(p, e.pfx.base().bytes().data(), 16);
        p[16] = static_cast<std::uint8_t>(e.pfx.length());
        p[17] = 0;
        p[18] = static_cast<std::uint8_t>(e.info.country[0]);
        p[19] = static_cast<std::uint8_t>(e.info.country[1]);
        put_u32(p + 20, e.info.asn);
        p += kAsnDbEntrySize;
    }
    return out;
}

std::optional<std::vector<enrich_entry>> decode_asn_db(
    const std::uint8_t* data, std::size_t len, std::string* error) {
    const auto fail = [&](const std::string& why) -> std::optional<std::vector<enrich_entry>> {
        if (error) *error = why;
        return std::nullopt;
    };
    if (len < kAsnDbHeaderSize) return fail("short header");
    if (std::memcmp(data, kAsnDbMagic, 8) != 0) return fail("bad magic");
    const std::uint32_t version = get_u32(data + 8);
    if (version != kAsnDbVersion)
        return fail("unsupported version " + std::to_string(version));
    const std::uint64_t count = get_u32(data + 12);
    if (len != kAsnDbHeaderSize + count * kAsnDbEntrySize)
        return fail("size mismatch: " + std::to_string(count) + " entries vs " +
                    std::to_string(len) + " bytes");
    std::vector<enrich_entry> entries;
    entries.reserve(count);
    const std::uint8_t* p = data + kAsnDbHeaderSize;
    for (std::uint64_t i = 0; i < count; ++i, p += kAsnDbEntrySize) {
        if (p[16] > 128)
            return fail("entry " + std::to_string(i) + ": prefix length " +
                        std::to_string(p[16]));
        if (p[17] != 0) return fail("entry " + std::to_string(i) + ": reserved byte set");
        std::array<std::uint8_t, 16> bytes;
        std::memcpy(bytes.data(), p, 16);
        enrich_entry e;
        e.pfx = prefix{address{bytes}, p[16]};
        if (e.pfx.base() != address{bytes})
            return fail("entry " + std::to_string(i) + ": host bits set");
        if (!entries.empty() && !(entries.back().pfx < e.pfx))
            return fail("entry " + std::to_string(i) + ": out of order or duplicate");
        e.info.country = {static_cast<char>(p[18]), static_cast<char>(p[19])};
        e.info.asn = get_u32(p + 20);
        entries.push_back(e);
    }
    return entries;
}

bool write_asn_db(const std::string& path, const std::vector<enrich_entry>& entries) {
    const std::vector<std::uint8_t> image = encode_asn_db(entries);
    return obs::atomic_write_file(
        path, std::string(reinterpret_cast<const char*>(image.data()), image.size()));
}

asn_db::asn_db(std::vector<enrich_entry> entries, std::uint64_t generation)
    : generation_(generation) {
    // The transient Patricia map answers the longest match at each
    // boundary; it maps a prefix to its slot in infos_, so a duplicate
    // prefix overwrites the slot's info (last wins) and adds no slot.
    using u128 = unsigned __int128;
    const auto to_u128 = [](const address& a) {
        return (static_cast<u128>(a.hi()) << 64) | a.lo();
    };
    prefix_map<std::uint32_t> map;
    std::vector<u128> bounds{0};
    bounds.reserve(1 + 2 * entries.size());
    for (const enrich_entry& e : entries) {
        if (const std::uint32_t* slot = map.find(e.pfx)) {
            infos_[*slot] = e.info;
            continue;
        }
        map.insert(e.pfx, static_cast<std::uint32_t>(infos_.size()));
        infos_.push_back(e.info);
        max_length_ = std::max(max_length_, e.pfx.length());
        bounds.push_back(to_u128(e.pfx.first_address()));
        const u128 last = to_u128(e.pfx.last_address());
        if (last != ~u128{0}) bounds.push_back(last + 1);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    for (const u128 b : bounds) {
        const std::uint64_t hi = static_cast<std::uint64_t>(b >> 64);
        const std::uint64_t lo = static_cast<std::uint64_t>(b);
        const auto hit = map.longest_match(address::from_pair(hi, lo));
        const enrich_info* match = hit ? &infos_[hit->second.get()] : nullptr;
        if (!match_.empty() && match_.back() == match) continue;  // same interval
        hi_.push_back(hi);
        lo_.push_back(lo);
        match_.push_back(match);
    }
}

std::shared_ptr<const asn_db> asn_db::load(const std::string& path,
                                           std::uint64_t generation,
                                           std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error) *error = "cannot open " + path;
        return nullptr;
    }
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::string why;
    auto entries = decode_asn_db(reinterpret_cast<const std::uint8_t*>(raw.data()),
                                 raw.size(), &why);
    if (!entries) {
        if (error) *error = path + ": " + why;
        return nullptr;
    }
    return std::make_shared<const asn_db>(std::move(*entries), generation);
}

enrichment::enrichment(std::string path, obs::registry* registry)
    : path_(std::move(path)) {
    if (registry) {
        reloads_ = registry->get_counter(
            "v6_net_enrich_reloads_total", {},
            "Successful enrichment database (re)loads.");
        failures_ = registry->get_counter(
            "v6_net_enrich_reload_failures_total", {},
            "Enrichment reloads that failed (previous snapshot kept).");
        entries_gauge_ = registry->get_gauge(
            "v6_net_enrich_entries", {},
            "Prefix entries in the live enrichment snapshot.");
        generation_gauge_ = registry->get_gauge(
            "v6_net_enrich_generation", {},
            "Generation number of the live enrichment snapshot.");
    }
}

bool enrichment::reload(std::string* error) {
    std::shared_ptr<const asn_db> fresh = asn_db::load(path_, generation_ + 1, error);
    if (!fresh) {
        failure_count_.fetch_add(1, std::memory_order_relaxed);
        failures_.inc();
        return false;
    }
    ++generation_;
    entries_gauge_.set(static_cast<std::int64_t>(fresh->size()));
    generation_gauge_.set(static_cast<std::int64_t>(generation_));
    {
        // The RCU swap: readers copying under the same mutex see the
        // old snapshot or the new one, never anything in between.
        std::lock_guard<std::mutex> lock(snap_mutex_);
        snap_ = std::move(fresh);
    }
    reload_count_.fetch_add(1, std::memory_order_relaxed);
    reloads_.inc();
    return true;
}

// ------------------------------------------------------------ ledger

asn_ledger::asn_ledger(obs::registry* registry, std::size_t max_series)
    : registry_(registry), max_series_(max_series) {
    if (registry_) {
        matched_ = registry_->get_counter(
            "v6_net_enrich_matched_total", {},
            "Ingested records a database prefix covered.");
        unmatched_ = registry_->get_counter(
            "v6_net_enrich_unmatched_total", {},
            "Ingested records no database prefix covered.");
    }
}

obs::counter asn_ledger::series_for(std::uint32_t asn) {
    if (!registry_) return {};
    const auto it = series_.find(asn);
    if (it != series_.end()) return it->second;
    if (series_.size() < max_series_) {
        const obs::counter c = registry_->get_counter(
            "v6_net_asn_records_total", {{"asn", std::to_string(asn)}},
            "Ingested records by origin ASN (capped label set; overflow "
            "lands in asn=\"other\").");
        series_.emplace(asn, c);
        return c;
    }
    if (!other_series_)
        other_series_ = registry_->get_counter(
            "v6_net_asn_records_total", {{"asn", "other"}},
            "Ingested records by origin ASN (capped label set; overflow "
            "lands in asn=\"other\").");
    return other_series_;
}

void asn_ledger::note_many(const note_row* rows, std::size_t n) {
    std::uint64_t matched = 0, unmatched = 0;
    for (std::size_t i = 0; i < n; ++i)
        (rows[i].info ? matched : unmatched) += rows[i].records;
    if (matched) {
        matched_count_.fetch_add(matched, std::memory_order_relaxed);
        matched_.inc(matched);
    }
    if (unmatched) {
        unmatched_count_.fetch_add(unmatched, std::memory_order_relaxed);
        unmatched_.inc(unmatched);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
        const note_row& row = rows[i];
        const enrich_info* info = row.info;
        const std::uint32_t asn = info ? info->asn : 0;
        cell& day_cell = days_[row.day][asn];
        cell& life_cell = lifetime_[asn];
        if (info) {
            day_cell.country = info->country;
            life_cell.country = info->country;
        }
        day_cell.records += row.records;
        day_cell.hits += row.hits;
        life_cell.records += row.records;
        life_cell.hits += row.hits;
        series_for(asn).inc(row.records);
    }
}

std::vector<asn_row> asn_ledger::take_day(int day) {
    std::map<std::uint32_t, cell> rows;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = days_.find(day);
        if (it == days_.end()) return {};
        rows = std::move(it->second);
        days_.erase(it);
    }
    std::vector<asn_row> out;
    out.reserve(rows.size());
    for (const auto& [asn, c] : rows)
        out.push_back({asn, c.country, c.records, c.hits});
    std::sort(out.begin(), out.end(), [](const asn_row& a, const asn_row& b) {
        return a.records != b.records ? a.records > b.records : a.asn < b.asn;
    });
    return out;
}

void flush_day_asn(obs::tsdb::database& db, int day,
                   const std::vector<asn_row>& rows, std::size_t max_rows) {
    std::uint64_t other_records = 0, other_hits = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i >= max_rows) {
            other_records += rows[i].records;
            other_hits += rows[i].hits;
            continue;
        }
        const std::string label =
            rows[i].asn ? "AS" + std::to_string(rows[i].asn)
                        : std::string("unrouted");
        db.append("v6class_asn_records", label, day,
                  static_cast<double>(rows[i].records));
        db.append("v6class_asn_hits", label, day,
                  static_cast<double>(rows[i].hits));
    }
    if (other_records || other_hits) {
        db.append("v6class_asn_records", "other", day,
                  static_cast<double>(other_records));
        db.append("v6class_asn_hits", "other", day,
                  static_cast<double>(other_hits));
    }
}

std::vector<asn_row> asn_ledger::top(std::size_t n) const {
    std::vector<asn_row> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.reserve(lifetime_.size());
        for (const auto& [asn, c] : lifetime_)
            out.push_back({asn, c.country, c.records, c.hits});
    }
    std::sort(out.begin(), out.end(), [](const asn_row& a, const asn_row& b) {
        return a.records != b.records ? a.records > b.records : a.asn < b.asn;
    });
    if (out.size() > n) out.resize(n);
    return out;
}

}  // namespace v6::net
