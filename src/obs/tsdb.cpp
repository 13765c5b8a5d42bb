#include "v6class/obs/tsdb.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "v6class/obs/federate.h"
#include "v6class/obs/http.h"
#include "v6class/obs/trace.h"

namespace v6::obs::tsdb {

namespace {

// Frames larger than this are rejected as corruption during recovery:
// no writer here produces one (a point batch is bounded by the commit
// buffer, an event by the log's own limits), so an absurd length is a
// torn or garbage header, not data.
constexpr std::uint32_t kMaxFrame = 1u << 24;

constexpr std::uint8_t kKindDef = 1;
constexpr std::uint8_t kKindPoints = 2;
constexpr std::uint8_t kKindEvent = 3;

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
    put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(out, bits);
}

/// Bounds-checked little-endian reader over one decoded payload.
struct reader {
    const std::uint8_t* p;
    std::size_t left;

    bool u8(std::uint8_t& v) {
        if (left < 1) return false;
        v = *p;
        ++p;
        --left;
        return true;
    }
    bool u16(std::uint16_t& v) {
        if (left < 2) return false;
        v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
        p += 2;
        left -= 2;
        return true;
    }
    bool u32(std::uint32_t& v) {
        if (left < 4) return false;
        v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        left -= 4;
        return true;
    }
    bool u64(std::uint64_t& v) {
        if (left < 8) return false;
        v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        left -= 8;
        return true;
    }
    bool i64(std::int64_t& v) {
        std::uint64_t u;
        if (!u64(u)) return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }
    bool f64(double& v) {
        std::uint64_t bits;
        if (!u64(bits)) return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }
    bool str(std::string& out, std::size_t n) {
        if (left < n) return false;
        out.assign(reinterpret_cast<const char*>(p), n);
        p += n;
        left -= n;
        return true;
    }
};

bool write_all(int fd, const void* data, std::size_t len) {
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

event_level level_of(std::uint8_t v) {
    switch (v) {
        case 1: return event_level::warn;
        case 2: return event_level::error;
        default: return event_level::info;
    }
}

std::uint8_t level_byte(event_level l) {
    switch (l) {
        case event_level::warn: return 1;
        case event_level::error: return 2;
        default: return 0;
    }
}

/// Renders an event's fields as one JSON object string (values are
/// already JSON tokens, same as event_json's "fields" member).
std::string fields_json_of(const event_fields& fields) {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) out += ',';
        out += '"' + json_escape(fields[i].first) + "\":" + fields[i].second;
    }
    out += '}';
    return out;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::vector<point> downsample(const std::vector<point>& pts, std::int64_t step) {
    if (step <= 1 || pts.empty()) return pts;
    std::vector<point> out;
    // Floor-divide toward -inf so negative timestamps bucket correctly.
    const auto bucket_of = [step](std::int64_t ts) {
        std::int64_t q = ts / step;
        if (ts % step != 0 && ts < 0) --q;
        return q * step;
    };
    std::int64_t bucket = bucket_of(pts.front().ts);
    double sum = 0;
    std::uint64_t n = 0;
    for (const point& p : pts) {
        const std::int64_t b = bucket_of(p.ts);
        if (b != bucket && n > 0) {
            out.push_back({bucket, sum / static_cast<double>(n)});
            sum = 0;
            n = 0;
        }
        bucket = b;
        sum += p.value;
        ++n;
    }
    if (n > 0) out.push_back({bucket, sum / static_cast<double>(n)});
    return out;
}

std::string database::segment_path(std::uint64_t seq) const {
    char name[32];
    std::snprintf(name, sizeof name, "seg-%06llu.v6t",
                  static_cast<unsigned long long>(seq));
    return dir_ + "/" + name;
}

std::unique_ptr<database> database::open(const std::string& dir,
                                         const options& opt,
                                         std::string* error) {
    std::unique_ptr<database> db(new database());
    db->dir_ = dir;
    db->opt_ = opt;
    if (opt.metrics) {
        registry& reg = *opt.metrics;
        db->commits_ = reg.get_counter("v6_tsdb_commits_total", {},
                                       "tsdb commit() calls that wrote frames.");
        db->rotations_ = reg.get_counter("v6_tsdb_segment_rotations_total", {},
                                         "Segments sealed by size rotation.");
        db->retired_ = reg.get_counter("v6_tsdb_segments_retired_total", {},
                                       "Segments unlinked by retention.");
        db->duplicates_ = reg.get_counter(
            "v6_tsdb_duplicate_points_total", {},
            "Appends dropped by the monotone-timestamp re-anchor check.");
        db->write_errors_ = reg.get_counter("v6_tsdb_write_errors_total", {},
                                            "Failed frame writes.");
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error) *error = dir + ": " + ec.message();
        return nullptr;
    }
    // Discover segments. Anything not matching the name pattern is
    // ignored (a crashed atomic_file temp, an operator's notes).
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        unsigned long long seq = 0;
        char suffix[8] = {0};
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (std::sscanf(name.c_str(), "seg-%6llu.v6%3s", &seq, suffix) == 2 &&
            std::strcmp(suffix, "t") == 0)
            db->segments_.push_back(seq);
    }
    if (ec) {
        if (error) *error = dir + ": " + ec.message();
        return nullptr;
    }
    std::sort(db->segments_.begin(), db->segments_.end());
    for (std::size_t i = 0; i < db->segments_.size(); ++i) {
        if (!db->scan_segment(db->segments_[i], i + 1 == db->segments_.size(),
                              error))
            return nullptr;
    }
    std::lock_guard lock(db->mutex_);
    if (!db->open_active_locked(error)) return nullptr;
    return db;
}

bool database::scan_segment(std::uint64_t seq, bool newest, std::string* error) {
    const std::string path = segment_path(seq);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error) *error = path + ": " + std::strerror(errno);
        return false;
    }
    std::fseek(f, 0, SEEK_END);
    const long file_size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> payload;
    std::uint64_t offset = 0;
    std::int64_t seg_max_ts = 0;
    bool seg_any_ts = false;
    for (;;) {
        std::uint8_t head[8];
        const std::size_t got = std::fread(head, 1, sizeof head, f);
        if (got == 0) break;  // clean end
        bool ok = got == sizeof head;
        std::uint32_t len = 0, crc = 0;
        if (ok) {
            for (int i = 0; i < 4; ++i) {
                len |= static_cast<std::uint32_t>(head[i]) << (8 * i);
                crc |= static_cast<std::uint32_t>(head[4 + i]) << (8 * i);
            }
            ok = len >= 1 && len <= kMaxFrame;
        }
        if (ok) {
            payload.resize(len);
            ok = std::fread(payload.data(), 1, len, f) == len &&
                 crc32(payload.data(), len) == crc;
        }
        if (ok) {
            // Decode. A structurally bad payload with a valid CRC is a
            // writer bug, not a torn tail; treat it the same way —
            // truncate here rather than guess at the rest.
            reader r{payload.data() + 1, payload.size() - 1};
            switch (payload[0]) {
                case kKindDef: {
                    std::uint32_t id;
                    std::uint16_t nlen, llen;
                    std::string name, label;
                    ok = r.u32(id) && r.u16(nlen) && r.u16(llen) &&
                         r.str(name, nlen) && r.str(label, llen) && r.left == 0;
                    if (ok) {
                        // Ids are assigned densely by this writer; a
                        // foreign id is corruption.
                        const auto key = std::make_pair(name, label);
                        const auto it = by_key_.find(key);
                        if (it == by_key_.end()) {
                            ok = id == series_.size();
                            if (ok) {
                                series_state s;
                                s.name = name;
                                s.label = label;
                                series_.push_back(std::move(s));
                                by_key_.emplace(key, id);
                            }
                        } else {
                            ok = it->second == id;  // re-definition must agree
                        }
                    }
                    if (ok && newest) active_seg_defs_.push_back(id);
                    break;
                }
                case kKindPoints: {
                    std::uint32_t id, count;
                    ok = r.u32(id) && r.u32(count) && id < series_.size() &&
                         r.left == count * 16u && count > 0;
                    if (ok) {
                        block b;
                        b.series = id;
                        b.count = count;
                        b.segment = seq;
                        b.offset = offset;
                        b.len = len;
                        series_state& s = series_[id];
                        for (std::uint32_t i = 0; ok && i < count; ++i) {
                            std::int64_t ts;
                            double v;
                            ok = r.i64(ts) && r.f64(v);
                            if (!ok) break;
                            if (i == 0) b.min_ts = ts;
                            b.max_ts = ts;
                            if (s.points == 0) s.first_ts = ts;
                            s.last_ts = ts;
                            ++s.points;
                            ++recovered_points_;
                            if (!seg_any_ts || ts > seg_max_ts) seg_max_ts = ts;
                            seg_any_ts = true;
                            if (!any_ts_ || ts > newest_ts_) newest_ts_ = ts;
                            any_ts_ = true;
                        }
                        if (ok) s.blocks.push_back(b);
                    }
                    break;
                }
                case kKindEvent: {
                    std::uint8_t level;
                    double time;
                    std::uint16_t klen, mlen;
                    std::uint32_t flen;
                    std::string kind, msg, fields;
                    ok = r.u8(level) && r.f64(time) && r.u16(klen) &&
                         r.u16(mlen) && r.u32(flen) && r.str(kind, klen) &&
                         r.str(msg, mlen) && r.str(fields, flen) && r.left == 0;
                    if (ok) {
                        event_ref e;
                        e.time = time;
                        e.level = level_of(level);
                        e.segment = seq;
                        e.offset = offset;
                        e.len = len;
                        events_.push_back(e);
                    }
                    break;
                }
                default:
                    ok = false;
            }
        }
        if (!ok) {
            // Torn or corrupt frame. On the newest segment this is the
            // expected crash shape: truncate back to the last whole
            // record and resume appending there. On an older segment it
            // means data after this point is unreachable; truncating is
            // still the honest representation (the committed prefix).
            std::fclose(f);
            f = nullptr;
            truncated_bytes_ +=
                static_cast<std::uint64_t>(file_size) - offset;
            if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
                if (error) *error = path + ": truncate: " + std::strerror(errno);
                return false;
            }
            break;
        }
        offset += 8 + len;
    }
    if (f) std::fclose(f);
    segment_bytes_[seq] = offset;
    if (seg_any_ts) segment_max_ts_[seq] = seg_max_ts;
    return true;
}

bool database::open_active_locked(std::string* error) {
    if (segments_.empty()) {
        active_seq_ = 1;
        segments_.push_back(active_seq_);
        segment_bytes_[active_seq_] = 0;
        active_size_ = 0;
        active_fd_ = ::open(segment_path(active_seq_).c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (active_fd_ < 0) {
            if (error)
                *error = segment_path(active_seq_) + ": " + std::strerror(errno);
            return false;
        }
        // A fresh segment opens with every known definition (none on a
        // brand-new directory; all of them after a rotation).
        for (std::uint32_t id = 0; id < series_.size(); ++id)
            series_[id].persisted = false;
        return true;
    }
    active_seq_ = segments_.back();
    active_size_ = segment_bytes_[active_seq_];
    active_fd_ = ::open(segment_path(active_seq_).c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (active_fd_ < 0) {
        if (error)
            *error = segment_path(active_seq_) + ": " + std::strerror(errno);
        return false;
    }
    // Only the definitions recovery actually saw in this (the resumed
    // active) segment are persisted here. Everything else — typically
    // after a crash right between rotate_locked() creating the fresh
    // segment and the next commit() rewriting the definitions — must be
    // written again by the next commit, or retention could unlink the
    // older segments holding the only copy of those defs and a later
    // open() would truncate this segment at its first unknown series id.
    for (series_state& s : series_) s.persisted = false;
    for (const std::uint32_t id : active_seg_defs_)
        if (id < series_.size()) series_[id].persisted = true;
    return true;
}

std::uint32_t database::intern_locked(const std::string& name,
                                      const std::string& label) {
    const auto key = std::make_pair(name, label);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(series_.size());
    series_state s;
    s.name = name;
    s.label = label;
    s.persisted = false;
    series_.push_back(std::move(s));
    by_key_.emplace(key, id);
    return id;
}

std::uint32_t database::series_id(const std::string& name,
                                  const std::string& label) {
    std::lock_guard lock(mutex_);
    return intern_locked(name, label);
}

void database::append(std::uint32_t id, std::int64_t ts, double value) {
    std::lock_guard lock(mutex_);
    if (id >= series_.size()) return;
    series_state& s = series_[id];
    if (s.points > 0 && ts <= s.last_ts) {
        ++duplicate_points_;
        duplicates_.inc();
        return;
    }
    // last_ts must also cover the pending buffer, so two appends of the
    // same ts in one commit window still dedup.
    if (s.points == 0) s.first_ts = ts;
    s.last_ts = ts;
    ++s.points;
    s.pending.push_back({ts, value});
    if (!any_ts_ || ts > newest_ts_) newest_ts_ = ts;
    any_ts_ = true;
}

void database::append_event(const event& e) {
    std::lock_guard lock(mutex_);
    pending_events_.push_back(e);
}

bool database::write_frame_locked(std::uint8_t kind, const std::string& body,
                                  std::uint64_t* offset) {
    std::string payload;
    payload.reserve(1 + body.size());
    payload.push_back(static_cast<char>(kind));
    payload += body;
    std::string frame;
    frame.reserve(8 + payload.size());
    put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    put_u32(frame, crc32(payload.data(), payload.size()));
    frame += payload;
    if (offset) *offset = active_size_;
    if (!write_all(active_fd_, frame.data(), frame.size())) {
        write_errors_.inc();
        // A partial write (e.g. ENOSPC mid-frame) leaves garbage past
        // the last whole frame; with O_APPEND the retried frame would
        // land after it, desyncing every indexed offset and poisoning
        // restart recovery. Cut the file back to the committed tail
        // before any further write; if even that fails the tail is
        // unknowable, so fail the handle rather than corrupt (commit()
        // refuses a closed handle).
        if (::ftruncate(active_fd_, static_cast<off_t>(active_size_)) != 0) {
            ::close(active_fd_);
            active_fd_ = -1;
        }
        return false;
    }
    active_size_ += frame.size();
    segment_bytes_[active_seq_] = active_size_;
    return true;
}

bool database::rotate_locked() {
    ::fsync(active_fd_);
    ::close(active_fd_);
    active_fd_ = -1;
    if (any_ts_) segment_max_ts_[active_seq_] = newest_ts_;
    ++active_seq_;
    segments_.push_back(active_seq_);
    segment_bytes_[active_seq_] = 0;
    active_size_ = 0;
    active_fd_ = ::open(segment_path(active_seq_).c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_TRUNC, 0644);
    if (active_fd_ < 0) return false;
    rotations_.inc();
    // Self-contained segments: every definition goes again at the top.
    for (series_state& s : series_) s.persisted = false;
    apply_retention_locked();
    return true;
}

void database::apply_retention_locked() {
    // Only sealed segments are candidates; the active one never goes.
    const auto drop_front = [&] {
        const std::uint64_t seq = segments_.front();
        ::unlink(segment_path(seq).c_str());
        // Forget the retired segment's blocks and events.
        for (series_state& s : series_) {
            auto& b = s.blocks;
            b.erase(std::remove_if(b.begin(), b.end(),
                                   [&](const block& x) { return x.segment == seq; }),
                    b.end());
        }
        events_.erase(std::remove_if(events_.begin(), events_.end(),
                                     [&](const event_ref& e) {
                                         return e.segment == seq;
                                     }),
                      events_.end());
        segment_bytes_.erase(seq);
        segment_max_ts_.erase(seq);
        segments_.erase(segments_.begin());
        ++retired_segments_;
        retired_.inc();
    };
    if (opt_.retain_bytes > 0) {
        const auto total = [&] {
            std::uint64_t t = 0;
            for (const auto& [seq, bytes] : segment_bytes_) t += bytes;
            return t;
        };
        // The newest sealed segment is exempt alongside the active one:
        // a cap smaller than one commit must not erase the newest data.
        while (segments_.size() > 2 && total() > opt_.retain_bytes) drop_front();
    }
    if (opt_.retain_age > 0 && any_ts_) {
        while (segments_.size() > 1) {
            const auto it = segment_max_ts_.find(segments_.front());
            if (it == segment_max_ts_.end()) break;  // no points: keep
            if (newest_ts_ - it->second <= opt_.retain_age) break;
            drop_front();
        }
    }
}

bool database::commit() {
    const obs::span commit_span("tsdb.commit");
    std::lock_guard lock(mutex_);
    if (active_fd_ < 0) return false;
    bool wrote = false;
    bool ok = true;
    // Definitions first: a points frame must never precede its series'
    // definition within a segment.
    for (std::uint32_t id = 0; id < series_.size() && ok; ++id) {
        series_state& s = series_[id];
        if (s.persisted) continue;
        std::string body;
        put_u32(body, id);
        put_u16(body, static_cast<std::uint16_t>(s.name.size()));
        put_u16(body, static_cast<std::uint16_t>(s.label.size()));
        body += s.name;
        body += s.label;
        ok = write_frame_locked(kKindDef, body, nullptr);
        if (ok) {
            s.persisted = true;
            wrote = true;
        }
    }
    for (std::uint32_t id = 0; id < series_.size() && ok; ++id) {
        series_state& s = series_[id];
        if (s.pending.empty()) continue;
        std::string body;
        put_u32(body, id);
        put_u32(body, static_cast<std::uint32_t>(s.pending.size()));
        for (const point& p : s.pending) {
            put_i64(body, p.ts);
            put_f64(body, p.value);
        }
        std::uint64_t offset = 0;
        ok = write_frame_locked(kKindPoints, body, &offset);
        if (!ok) break;
        block b;
        b.series = id;
        b.count = static_cast<std::uint32_t>(s.pending.size());
        b.min_ts = s.pending.front().ts;
        b.max_ts = s.pending.back().ts;
        b.segment = active_seq_;
        b.offset = offset;
        b.len = static_cast<std::uint32_t>(1 + body.size());
        s.blocks.push_back(b);
        s.pending.clear();
        wrote = true;
    }
    std::size_t events_written = 0;
    for (std::size_t i = 0; ok && i < pending_events_.size(); ++i) {
        const event& e = pending_events_[i];
        const std::string fields = fields_json_of(e.fields);
        std::string body;
        body.push_back(static_cast<char>(level_byte(e.level)));
        put_f64(body, e.unix_time);
        put_u16(body, static_cast<std::uint16_t>(e.kind.size()));
        put_u16(body, static_cast<std::uint16_t>(e.message.size()));
        put_u32(body, static_cast<std::uint32_t>(fields.size()));
        body += e.kind;
        body += e.message;
        body += fields;
        std::uint64_t offset = 0;
        ok = write_frame_locked(kKindEvent, body, &offset);
        if (!ok) break;
        event_ref ref;
        ref.time = e.unix_time;
        ref.level = e.level;
        ref.segment = active_seq_;
        ref.offset = offset;
        ref.len = static_cast<std::uint32_t>(1 + body.size());
        events_.push_back(ref);
        ++events_written;
        wrote = true;
    }
    // Written events are durably indexed in events_; drop exactly that
    // prefix. On a failed write the loop stops early and the unwritten
    // tail stays buffered for the next commit — the same retry contract
    // the point buffers follow.
    if (events_written > 0)
        pending_events_.erase(
            pending_events_.begin(),
            pending_events_.begin() +
                static_cast<std::ptrdiff_t>(events_written));
    if (ok && wrote) {
        commits_.inc();
        if (opt_.fsync_commit) ::fsync(active_fd_);
        if (active_size_ >= opt_.segment_bytes) ok = rotate_locked();
    }
    return ok;
}

std::vector<series_info> database::list_series() const {
    std::lock_guard lock(mutex_);
    std::vector<series_info> out;
    out.reserve(series_.size());
    for (const series_state& s : series_) {
        series_info info;
        info.name = s.name;
        info.label = s.label;
        info.first_ts = s.first_ts;
        info.last_ts = s.last_ts;
        info.points = s.points;
        out.push_back(std::move(info));
    }
    std::sort(out.begin(), out.end(), [](const series_info& a, const series_info& b) {
        return a.name != b.name ? a.name < b.name : a.label < b.label;
    });
    return out;
}

std::optional<std::int64_t> database::last_ts(const std::string& name,
                                              const std::string& label) const {
    std::lock_guard lock(mutex_);
    const auto it = by_key_.find(std::make_pair(name, label));
    if (it == by_key_.end()) return std::nullopt;
    const series_state& s = series_[it->second];
    if (s.points == 0) return std::nullopt;
    return s.last_ts;
}

std::vector<point> database::query(const std::string& name,
                                   const std::string& label, std::int64_t from,
                                   std::int64_t to) const {
    std::lock_guard lock(mutex_);
    std::vector<point> out;
    const auto it = by_key_.find(std::make_pair(name, label));
    if (it == by_key_.end()) return out;
    const series_state& s = series_[it->second];
    std::vector<std::uint8_t> payload;
    for (const block& b : s.blocks) {
        if (b.max_ts < from || b.min_ts > to) continue;  // the index at work
        const std::string path = segment_path(b.segment);
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (!f) continue;  // retired between index snapshot and read
        bool ok = std::fseek(f, static_cast<long>(b.offset + 8), SEEK_SET) == 0;
        payload.resize(b.len);
        ok = ok && std::fread(payload.data(), 1, b.len, f) == b.len;
        std::fclose(f);
        if (!ok || payload[0] != kKindPoints) continue;
        reader r{payload.data() + 1, payload.size() - 1};
        std::uint32_t id, count;
        if (!r.u32(id) || !r.u32(count)) continue;
        for (std::uint32_t i = 0; i < count; ++i) {
            std::int64_t ts;
            double v;
            if (!r.i64(ts) || !r.f64(v)) break;
            if (ts >= from && ts <= to) out.push_back({ts, v});
        }
    }
    for (const point& p : s.pending)
        if (p.ts >= from && p.ts <= to) out.push_back(p);
    std::sort(out.begin(), out.end(),
              [](const point& a, const point& b) { return a.ts < b.ts; });
    return out;
}

std::vector<stored_event> database::query_events(event_level min_level,
                                                 double from, double to,
                                                 std::size_t limit) const {
    std::lock_guard lock(mutex_);
    std::vector<stored_event> out;
    const auto decode_into = [&](const std::uint8_t* data, std::size_t len) {
        reader r{data + 1, len - 1};
        std::uint8_t level;
        double time;
        std::uint16_t klen, mlen;
        std::uint32_t flen;
        stored_event e;
        if (!r.u8(level) || !r.f64(time) || !r.u16(klen) || !r.u16(mlen) ||
            !r.u32(flen) || !r.str(e.kind, klen) || !r.str(e.message, mlen) ||
            !r.str(e.fields_json, flen))
            return;
        e.unix_time = time;
        e.level = level_of(level);
        out.push_back(std::move(e));
    };
    std::vector<std::uint8_t> payload;
    for (const event_ref& ref : events_) {
        if (ref.time < from || ref.time > to) continue;
        if (static_cast<int>(ref.level) < static_cast<int>(min_level)) continue;
        const std::string path = segment_path(ref.segment);
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (!f) continue;
        bool ok = std::fseek(f, static_cast<long>(ref.offset + 8), SEEK_SET) == 0;
        payload.resize(ref.len);
        ok = ok && std::fread(payload.data(), 1, ref.len, f) == ref.len;
        std::fclose(f);
        if (ok && payload[0] == kKindEvent) decode_into(payload.data(), payload.size());
    }
    for (const event& e : pending_events_) {
        if (e.unix_time < from || e.unix_time > to) continue;
        if (static_cast<int>(e.level) < static_cast<int>(min_level)) continue;
        stored_event se;
        se.unix_time = e.unix_time;
        se.level = e.level;
        se.kind = e.kind;
        se.message = e.message;
        se.fields_json = fields_json_of(e.fields);
        out.push_back(std::move(se));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const stored_event& a, const stored_event& b) {
                         return a.unix_time < b.unix_time;
                     });
    if (out.size() > limit)
        out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(limit));
    return out;
}

std::uint64_t database::recovered_points() const {
    std::lock_guard lock(mutex_);
    return recovered_points_;
}

std::uint64_t database::truncated_bytes() const {
    std::lock_guard lock(mutex_);
    return truncated_bytes_;
}

std::uint64_t database::duplicate_points() const {
    std::lock_guard lock(mutex_);
    return duplicate_points_;
}

std::size_t database::segment_count() const {
    std::lock_guard lock(mutex_);
    return segments_.size();
}

std::uint64_t database::retired_segments() const {
    std::lock_guard lock(mutex_);
    return retired_segments_;
}

database::~database() {
    commit();
    std::lock_guard lock(mutex_);
    if (active_fd_ >= 0) {
        ::fsync(active_fd_);
        ::close(active_fd_);
        active_fd_ = -1;
    }
}

seal_sink::seal_sink(database& db, event_log& events)
    : db_(&db), events_(&events), event_cursor_(events.total()) {}

void seal_sink::operator()(const federate::seal_snapshot& snap) {
    if (first_call_) {
        first_call_ = false;
        std::optional<std::int64_t> resume_day;
        for (const net::tel_sample& row : snap.series)
            if (const auto last = db_->last_ts(row.name, row.label))
                resume_day = std::max(resume_day.value_or(*last), *last);
        if (resume_day)
            events_->log(
                event_level::info, "tsdb",
                "tsdb resume: series history through day " +
                    std::to_string(*resume_day),
                {{"last_day",
                  event_field_number(static_cast<double>(*resume_day))},
                 {"recovered_points",
                  event_field_number(
                      static_cast<double>(db_->recovered_points()))}});
    }
    for (const net::tel_sample& row : snap.series) {
        const auto last = db_->last_ts(row.name, row.label);
        if (!last || snap.day > *last)
            db_->append(row.name, row.label, snap.day, row.value);
    }
    for (const event& e : events_->since(event_cursor_)) {
        db_->append_event(e);
        event_cursor_ = e.seq;
    }
    db_->commit();
}

void register_history_api(metrics_server& server, const database* db) {
    server.add_handler("/api/series", [db](const query_params& q) {
        http_reply reply;
        const auto get = [&q](const char* k) {
            const auto it = q.find(k);
            return it == q.end() ? std::string() : it->second;
        };
        const std::string name = get("name");
        if (name.empty()) {
            // No name: the series directory, so a client can discover
            // what to chart.
            reply.body = "[";
            bool first = true;
            for (const series_info& s : db->list_series()) {
                reply.body += std::string(first ? "" : ",") + "{\"name\":" +
                              event_field_string(s.name) + ",\"label\":" +
                              event_field_string(s.label) + ",\"from\":" +
                              std::to_string(s.first_ts) + ",\"to\":" +
                              std::to_string(s.last_ts) + ",\"points\":" +
                              std::to_string(s.points) + "}";
                first = false;
            }
            reply.body += "]";
            return reply;
        }
        constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        const std::string from_s = get("from"), to_s = get("to"),
                          step_s = get("step");
        const std::int64_t from =
            from_s.empty() ? kMin : std::atoll(from_s.c_str());
        const std::int64_t to = to_s.empty() ? kMax : std::atoll(to_s.c_str());
        const std::int64_t step =
            step_s.empty() ? 0 : std::atoll(step_s.c_str());
        if (step < 0) {
            reply.status = 400;
            reply.body = "{\"error\":\"step must be >= 0\"}";
            return reply;
        }
        std::vector<point> pts = db->query(name, get("label"), from, to);
        if (step > 1) pts = downsample(pts, step);
        reply.body = "{\"name\":" + event_field_string(name) + ",\"label\":" +
                     event_field_string(get("label")) + ",\"points\":[";
        for (std::size_t i = 0; i < pts.size(); ++i)
            reply.body += std::string(i ? "," : "") + "[" +
                          std::to_string(pts[i].ts) + "," +
                          event_field_number(pts[i].value) + "]";
        reply.body += "]}";
        return reply;
    });
    server.add_handler("/api/events", [db](const query_params& q) {
        http_reply reply;
        const auto get = [&q](const char* k) {
            const auto it = q.find(k);
            return it == q.end() ? std::string() : it->second;
        };
        const std::string level_s = get("level");
        event_level min_level = event_level::info;
        if (level_s == "warn")
            min_level = event_level::warn;
        else if (level_s == "error")
            min_level = event_level::error;
        else if (!level_s.empty() && level_s != "info") {
            reply.status = 400;
            reply.body = "{\"error\":\"level must be info|warn|error\"}";
            return reply;
        }
        const std::string from_s = get("from"), to_s = get("to"),
                          limit_s = get("limit");
        const double from = from_s.empty() ? -1e300 : std::atof(from_s.c_str());
        const double to = to_s.empty() ? 1e300 : std::atof(to_s.c_str());
        const std::size_t limit =
            limit_s.empty()
                ? 1024
                : static_cast<std::size_t>(std::atoll(limit_s.c_str()));
        reply.body = "[";
        bool first = true;
        for (const stored_event& e :
             db->query_events(min_level, from, to, limit)) {
            reply.body += std::string(first ? "" : ",") + "{\"time\":" +
                          event_field_number(e.unix_time) + ",\"level\":\"" +
                          event_level_name(e.level) + "\",\"kind\":" +
                          event_field_string(e.kind) + ",\"message\":" +
                          event_field_string(e.message) + ",\"fields\":" +
                          (e.fields_json.empty() ? "{}" : e.fields_json) + "}";
            first = false;
        }
        reply.body += "]";
        return reply;
    });
}

}  // namespace v6::obs::tsdb
