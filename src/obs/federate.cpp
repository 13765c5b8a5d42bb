#include "v6class/obs/federate.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "v6class/obs/http.h"
#include "v6class/obs/tsdb.h"

namespace v6::obs::federate {

namespace {

std::string format_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

double unix_now() {
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// connect() bounded by `timeout`: non-blocking connect, poll for
/// writability, then check SO_ERROR. Returns a connected blocking fd
/// or -1.
int connect_with_timeout(const std::string& host, std::uint16_t port,
                         std::chrono::milliseconds timeout) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(port);
    if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr && fd < 0; ai = ai->ai_next) {
        const int s = ::socket(ai->ai_family,
                               ai->ai_socktype | SOCK_NONBLOCK,
                               ai->ai_protocol);
        if (s < 0) continue;
        if (::connect(s, ai->ai_addr, ai->ai_addrlen) == 0) {
            fd = s;
            break;
        }
        if (errno != EINPROGRESS) {
            ::close(s);
            continue;
        }
        pollfd pfd{s, POLLOUT, 0};
        if (::poll(&pfd, 1, static_cast<int>(timeout.count())) <= 0) {
            ::close(s);
            continue;
        }
        int soerr = 0;
        socklen_t len = sizeof soerr;
        if (::getsockopt(s, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
            soerr != 0) {
            ::close(s);
            continue;
        }
        fd = s;
    }
    ::freeaddrinfo(res);
    if (fd < 0) return -1;
    // Back to blocking; per-send deadlines come from SO_SNDTIMEO.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    return fd;
}

void set_io_timeout(int fd, std::chrono::milliseconds ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

event_level parse_level(const std::string& name) {
    if (name == "error") return event_level::error;
    if (name == "warn") return event_level::warn;
    return event_level::info;
}

void add_stats(net::tel_decode_stats& into, const net::tel_decode_stats& s) {
    into.frames += s.frames;
    into.short_frame += s.short_frame;
    into.bad_magic += s.bad_magic;
    into.bad_version += s.bad_version;
    into.bad_kind += s.bad_kind;
    into.bad_node += s.bad_node;
    into.truncated += s.truncated;
    into.trailing += s.trailing;
    into.oversized += s.oversized;
    into.seq_gaps += s.seq_gaps;
    into.seq_reorder += s.seq_reorder;
}

}  // namespace

std::string node_label(const std::string& base_label,
                       const std::string& node) {
    if (base_label.empty()) return "node=" + node;
    return base_label + ",node=" + node;
}

std::vector<net::tel_sketch> serialize_seal_sketches(const seal_snapshot& s) {
    std::vector<net::tel_sketch> out;
    if (!s.has_sketches) return out;
    out.reserve(5);
    const auto put_hll = [&out](std::uint8_t id, const hyperloglog& h) {
        net::tel_sketch e;
        e.id = id;
        e.stype = net::kTelSketchTypeHll;
        h.serialize(e.payload);
        out.push_back(std::move(e));
    };
    const auto put_p2 = [&out](std::uint8_t id, const p2_quantile& p) {
        net::tel_sketch e;
        e.id = id;
        e.stype = net::kTelSketchTypeP2;
        p.serialize(e.payload);
        out.push_back(std::move(e));
    };
    put_hll(net::kTelSketchDayAddresses, s.addresses);
    put_hll(net::kTelSketchDay48s, s.p48s);
    put_hll(net::kTelSketchDay64s, s.p64s);
    put_p2(net::kTelSketchHitsP50, s.hits_p50);
    put_p2(net::kTelSketchHitsP99, s.hits_p99);
    return out;
}

// ------------------------------------------------------------- pusher

telemetry_pusher::telemetry_pusher(config cfg)
    : cfg_(std::move(cfg)),
      encoder_(cfg_.node.empty() ? "node" : cfg_.node) {
    if (cfg_.node.empty()) cfg_.node = "node";
}

telemetry_pusher::~telemetry_pusher() {
    std::lock_guard lock(mutex_);
    close_locked();
}

void telemetry_pusher::close_locked() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool telemetry_pusher::ensure_connected_locked() {
    if (fd_ >= 0) return true;
    const int fd = connect_with_timeout(cfg_.host, cfg_.port, cfg_.io_timeout);
    if (fd < 0) return false;
    set_io_timeout(fd, cfg_.io_timeout);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    if (connected_once_) ++reconnects_;
    connected_once_ = true;
    return true;
}

bool telemetry_pusher::send_frame_locked(
    const std::vector<std::uint8_t>& frame) {
    if (!ensure_connected_locked()) {
        ++failures_;
        return false;
    }
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            // A dead peer is discovered here; the next push reconnects.
            close_locked();
            ++failures_;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    ++frames_;
    return true;
}

bool telemetry_pusher::push_status(const net::tel_status& s) {
    std::lock_guard lock(mutex_);
    std::vector<std::uint8_t> frame;
    encoder_.encode_status(s, frame);
    return send_frame_locked(frame);
}

bool telemetry_pusher::push_series(
    const std::vector<net::tel_sample>& samples) {
    if (samples.empty()) return true;
    std::lock_guard lock(mutex_);
    std::vector<std::uint8_t> frame;
    encoder_.encode_series(samples, frame);
    return send_frame_locked(frame);
}

bool telemetry_pusher::push_events(const std::vector<event>& events) {
    if (events.empty()) return true;
    std::vector<net::tel_event> wire;
    wire.reserve(events.size());
    for (const event& e : events) {
        net::tel_event t;
        t.unix_time = e.unix_time;
        t.level = event_level_name(e.level);
        t.kind = e.kind;
        t.message = e.message;
        t.fields = e.fields;
        wire.push_back(std::move(t));
    }
    std::lock_guard lock(mutex_);
    std::vector<std::uint8_t> frame;
    encoder_.encode_events(wire, frame);
    return send_frame_locked(frame);
}

bool telemetry_pusher::push_seal(const seal_snapshot& snap) {
    const std::vector<net::tel_sketch> sketches =
        serialize_seal_sketches(snap);
    std::lock_guard lock(mutex_);
    bool ok = true;
    std::vector<std::uint8_t> frame;
    if (!snap.series.empty()) {
        encoder_.encode_series(snap.series, frame);
        ok = send_frame_locked(frame) && ok;
    }
    if (!sketches.empty()) {
        encoder_.encode_sketches(snap.day, sketches, frame);
        ok = send_frame_locked(frame) && ok;
    }
    return ok;
}

std::uint64_t telemetry_pusher::frames_sent() const {
    std::lock_guard lock(mutex_);
    return frames_;
}

std::uint64_t telemetry_pusher::send_failures() const {
    std::lock_guard lock(mutex_);
    return failures_;
}

std::uint64_t telemetry_pusher::reconnects() const {
    std::lock_guard lock(mutex_);
    return reconnects_;
}

// --------------------------------------------------------- aggregator

telemetry_aggregator::telemetry_aggregator(config cfg)
    : cfg_(std::move(cfg)) {
    if (cfg_.keep_days < 1) cfg_.keep_days = 1;
    if (cfg_.metrics != nullptr) {
        frames_total_ = cfg_.metrics->get_counter(
            "v6fleet_frames_total", {},
            "telemetry frames accepted from all nodes");
        rejected_total_ = cfg_.metrics->get_counter(
            "v6fleet_frames_rejected_total", {},
            "telemetry frames rejected by the V6TEL1 decoder");
        points_total_ = cfg_.metrics->get_counter(
            "v6fleet_points_total", {},
            "series points merged into the fleet tsdb");
        events_total_ = cfg_.metrics->get_counter(
            "v6fleet_events_total", {}, "events forwarded by nodes");
        nodes_gauge_ = cfg_.metrics->get_gauge(
            "v6fleet_nodes", {}, "nodes ever seen by this aggregator");
        stale_gauge_ = cfg_.metrics->get_gauge(
            "v6fleet_nodes_stale", {}, "nodes past the staleness window");
        global_addresses_ = cfg_.metrics->get_dgauge(
            "v6fleet_day_distinct_addresses_estimate", {},
            "exact cross-node HLL union, newest day: distinct addresses");
        global_48s_ = cfg_.metrics->get_dgauge(
            "v6fleet_day_distinct_48s_estimate", {},
            "exact cross-node HLL union, newest day: distinct /48s");
        global_64s_ = cfg_.metrics->get_dgauge(
            "v6fleet_day_distinct_64s_estimate", {},
            "exact cross-node HLL union, newest day: distinct /64s");
    }
}

telemetry_aggregator::~telemetry_aggregator() { stop(); }

bool telemetry_aggregator::start(std::string* error) {
    const auto fail = [&](const std::string& what) {
        if (error != nullptr) *error = what + ": " + std::strerror(errno);
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        return false;
    };
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) return fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
        return fail("bind");
    if (::listen(listen_fd_, 16) != 0) return fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);
    running_.store(true);
    thread_ = std::thread([this] { rx_loop(); });
    return true;
}

void telemetry_aggregator::stop() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    std::lock_guard lock(mutex_);
    for (connection& c : conns_) {
        add_stats(closed_stats_, c.decoder.stats());
        ::close(c.fd);
    }
    conns_.clear();
    flush_days_locked(true);
    if (cfg_.tsdb != nullptr && tsdb_dirty_) {
        cfg_.tsdb->commit();
        tsdb_dirty_ = false;
    }
}

/// One rx thread: poll on the listener plus every connection (fd list
/// snapshotted under the mutex), then re-acquire the mutex to accept /
/// read / decode / sweep. Client fds are non-blocking, so the held
/// section never waits on a peer — readers (nodes_json, /api/nodes)
/// only ever contend with CPU-bound decode work.
void telemetry_aggregator::rx_loop() {
    std::vector<std::uint8_t> rxbuf(64 * 1024);
    while (running_.load(std::memory_order_relaxed)) {
        std::vector<pollfd> pfds;
        {
            std::lock_guard lock(mutex_);
            pfds.reserve(conns_.size() + 1);
            pfds.push_back({listen_fd_, POLLIN, 0});
            for (const connection& c : conns_)
                pfds.push_back({c.fd, POLLIN, 0});
        }
        const int ready =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
        if (!running_.load(std::memory_order_relaxed)) break;

        std::lock_guard lock(mutex_);
        if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
            for (;;) {
                const int fd =
                    ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
                if (fd < 0) break;
                conns_.push_back(connection{fd, {}, {}});
            }
        }

        std::vector<std::size_t> dead;
        // pfds indexes a snapshot: only positions that still match the
        // live conns_ prefix are read (accepts above only appended).
        const std::size_t scan =
            std::min(conns_.size(), pfds.size() > 0 ? pfds.size() - 1 : 0);
        for (std::size_t i = 0; ready > 0 && i < scan; ++i) {
            if ((pfds[i + 1].revents & (POLLIN | POLLERR | POLLHUP)) == 0)
                continue;
            connection& c = conns_[i];
            const ssize_t n = ::recv(c.fd, rxbuf.data(), rxbuf.size(), 0);
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR)) {
                dead.push_back(i);
                continue;
            }
            if (n < 0) continue;
            c.buffer.insert(c.buffer.end(), rxbuf.data(), rxbuf.data() + n);
            net::tel_frame frame;
            bool fatal = false;
            for (;;) {
                const net::tel_pull r = c.decoder.pull(c.buffer, frame);
                if (r == net::tel_pull::frame) {
                    ingest_frame_locked(frame);
                    continue;
                }
                if (r == net::tel_pull::reject) {
                    rejected_total_.inc();
                    continue;
                }
                if (r == net::tel_pull::fatal) fatal = true;
                break;
            }
            if (fatal) dead.push_back(i);
        }
        for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
            connection& c = conns_[*it];
            add_stats(closed_stats_, c.decoder.stats());
            ::close(c.fd);
            conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(*it));
        }

        sweep_locked(std::chrono::steady_clock::now());
        if (cfg_.tsdb != nullptr && tsdb_dirty_) {
            cfg_.tsdb->commit();
            tsdb_dirty_ = false;
        }
    }
}

telemetry_aggregator::node_state& telemetry_aggregator::touch_node_locked(
    const std::string& name) {
    auto it = nodes_.find(name);
    if (it == nodes_.end()) {
        node_state state;
        state.status.name = name;
        state.was_fresh = true;
        state.status.fresh = true;
        if (cfg_.metrics != nullptr) {
            state.up = cfg_.metrics->get_gauge(
                "v6fleet_node_up", {{"node", name}},
                "1 while the node pushed within the staleness window");
            state.up.set(1);
        }
        it = nodes_.emplace(name, std::move(state)).first;
        if (cfg_.events != nullptr)
            cfg_.events->log(event_level::info, "fleet",
                             "node joined the fleet",
                             {{"node", event_field_string(name)}});
    }
    return it->second;
}

void telemetry_aggregator::ingest_frame_locked(const net::tel_frame& frame) {
    frames_total_.inc();
    node_state& n = touch_node_locked(frame.node);
    n.last_seen = std::chrono::steady_clock::now();
    n.status.last_seen_unix = unix_now();
    ++n.status.frames;
    // Node-level sequence accounting: frames are self-contained, so a
    // node reconnecting (new connection, fresh decoder) keeps one gap
    // history here.
    if (n.seen_any && frame.seq > n.high_seq + 1)
        n.status.seq_gaps += frame.seq - n.high_seq - 1;
    if (!n.seen_any || frame.seq > n.high_seq) n.high_seq = frame.seq;
    n.seen_any = true;

    switch (frame.kind) {
        case net::kTelKindStatus:
            n.status.records = frame.status.records;
            n.status.open_day = frame.status.open_day;
            n.status.sealed_day =
                std::max(n.status.sealed_day, frame.status.sealed_day);
            break;
        case net::kTelKindSeries:
            if (cfg_.tsdb != nullptr && !frame.samples.empty()) {
                for (const net::tel_sample& s : frame.samples)
                    cfg_.tsdb->append(s.name,
                                      node_label(s.label, frame.node), s.ts,
                                      s.value);
                tsdb_dirty_ = true;
            }
            points_total_.inc(frame.samples.size());
            break;
        case net::kTelKindSketches: {
            n.status.sealed_day =
                std::max(n.status.sealed_day, frame.sketch_day);
            day_state& d = days_[frame.sketch_day];
            for (const net::tel_sketch& s : frame.sketches) {
                if (s.stype != net::kTelSketchTypeHll) continue;
                if (s.id < net::kTelSketchDayAddresses ||
                    s.id > net::kTelSketchDay64s)
                    continue;
                auto hll = hyperloglog::deserialize(s.payload.data(),
                                                    s.payload.size());
                if (!hll) continue;
                const std::size_t slot = s.id - net::kTelSketchDayAddresses;
                hyperloglog& target = slot == 0   ? d.addresses
                                      : slot == 1 ? d.p48s
                                                  : d.p64s;
                if (!d.have[slot]) {
                    target = std::move(*hll);
                    d.have[slot] = true;
                } else {
                    // Register-wise max: exact union, idempotent under
                    // duplicated pushes after a reconnect.
                    target.merge(*hll);
                }
            }
            while (days_.size() > static_cast<std::size_t>(cfg_.keep_days))
                days_.erase(days_.begin());
            flush_days_locked(false);
            if (!days_.empty()) {
                const day_state& newest = days_.rbegin()->second;
                if (newest.have[0])
                    global_addresses_.set(newest.addresses.estimate());
                if (newest.have[1]) global_48s_.set(newest.p48s.estimate());
                if (newest.have[2]) global_64s_.set(newest.p64s.estimate());
            }
            break;
        }
        case net::kTelKindEvents:
            events_total_.inc(frame.events.size());
            if (cfg_.events != nullptr) {
                for (const net::tel_event& e : frame.events) {
                    event_fields fields = e.fields;
                    fields.emplace_back("node",
                                        event_field_string(frame.node));
                    cfg_.events->log(parse_level(e.level), e.kind, e.message,
                                     std::move(fields));
                }
            }
            break;
        default:
            break;
    }
    update_fleet_gauges_locked();
}

void telemetry_aggregator::sweep_locked(
    std::chrono::steady_clock::time_point now) {
    for (auto& [name, n] : nodes_) {
        const bool fresh = (now - n.last_seen) <= cfg_.staleness;
        n.status.fresh = fresh;
        n.status.age_seconds =
            std::chrono::duration<double>(now - n.last_seen).count();
        if (fresh != n.was_fresh) {
            n.was_fresh = fresh;
            n.up.set(fresh ? 1 : 0);
            if (cfg_.events != nullptr)
                cfg_.events->log(
                    fresh ? event_level::info : event_level::warn, "fleet",
                    fresh ? "node recovered" : "node went stale",
                    {{"node", event_field_string(name)},
                     {"age_seconds",
                      event_field_number(n.status.age_seconds)}});
        }
    }
    update_fleet_gauges_locked();
}

void telemetry_aggregator::update_fleet_gauges_locked() {
    std::int64_t stale = 0;
    for (const auto& [name, n] : nodes_)
        if (!n.status.fresh) ++stale;
    nodes_gauge_.set(static_cast<std::int64_t>(nodes_.size()));
    stale_gauge_.set(stale);
}

/// Persist global estimates once per day: the tsdb drops re-appends at
/// the same timestamp (the re-anchor contract), so a day's point is
/// written only after its union has settled — when a newer day appears
/// (every node seals forward) or at stop(). A laggard pushing an
/// already-flushed day still merges into the in-memory union (and
/// /api/nodes); only the stored chart point keeps its first-flush
/// value.
void telemetry_aggregator::flush_days_locked(bool include_newest) {
    if (cfg_.tsdb == nullptr || days_.empty()) return;
    const std::int64_t newest = days_.rbegin()->first;
    static const char* kNames[3] = {
        "v6fleet_day_distinct_addresses_estimate",
        "v6fleet_day_distinct_48s_estimate",
        "v6fleet_day_distinct_64s_estimate",
    };
    for (auto& [day, d] : days_) {
        if (d.flushed) continue;
        if (day == newest && !include_newest) continue;
        const hyperloglog* sketches[3] = {&d.addresses, &d.p48s, &d.p64s};
        for (int i = 0; i < 3; ++i)
            if (d.have[i])
                cfg_.tsdb->append(kNames[i], "", day,
                                  sketches[i]->estimate());
        d.flushed = true;
        tsdb_dirty_ = true;
    }
}

std::vector<node_status> telemetry_aggregator::nodes() const {
    std::lock_guard lock(mutex_);
    std::vector<node_status> out;
    out.reserve(nodes_.size());
    for (const auto& [name, n] : nodes_) out.push_back(n.status);
    return out;
}

std::string telemetry_aggregator::nodes_json() const {
    std::string out = "{\"nodes\":[";
    {
        std::lock_guard lock(mutex_);
        bool first = true;
        for (const auto& [name, n] : nodes_) {
            if (!first) out += ',';
            first = false;
            const node_status& s = n.status;
            out += "{\"node\":\"" + json_escape(s.name) + "\"";
            out += ",\"fresh\":" + std::string(s.fresh ? "true" : "false");
            out += ",\"age_seconds\":" + format_double(s.age_seconds);
            out += ",\"last_seen\":" + format_double(s.last_seen_unix);
            out += ",\"frames\":" + std::to_string(s.frames);
            out += ",\"records\":" + std::to_string(s.records);
            out += ",\"open_day\":" + std::to_string(s.open_day);
            out += ",\"sealed_day\":" + std::to_string(s.sealed_day);
            out += ",\"seq_gaps\":" + std::to_string(s.seq_gaps);
            out += "}";
        }
        out += "]";
        if (!days_.empty()) {
            const auto& [day, d] = *days_.rbegin();
            out += ",\"day\":" + std::to_string(day);
            out += ",\"global\":{";
            out += "\"distinct_addresses\":" +
                   (d.have[0] ? format_double(d.addresses.estimate())
                              : std::string("null"));
            out += ",\"distinct_48s\":" +
                   (d.have[1] ? format_double(d.p48s.estimate())
                              : std::string("null"));
            out += ",\"distinct_64s\":" +
                   (d.have[2] ? format_double(d.p64s.estimate())
                              : std::string("null"));
            out += "}";
        } else {
            out += ",\"day\":-1,\"global\":null";
        }
        net::tel_decode_stats stats = closed_stats_;
        for (const connection& c : conns_) add_stats(stats, c.decoder.stats());
        out += ",\"codec\":{\"frames\":" + std::to_string(stats.frames);
        out += ",\"rejected\":" + std::to_string(stats.rejected());
        out += ",\"seq_gaps\":" + std::to_string(stats.seq_gaps);
        out += "}}";
    }
    return out;
}

std::optional<hyperloglog> telemetry_aggregator::global_sketch(
    std::int64_t day, std::uint8_t id) const {
    if (id < net::kTelSketchDayAddresses || id > net::kTelSketchDay64s)
        return std::nullopt;
    std::lock_guard lock(mutex_);
    const auto it = days_.find(day);
    if (it == days_.end()) return std::nullopt;
    const std::size_t slot = id - net::kTelSketchDayAddresses;
    if (!it->second.have[slot]) return std::nullopt;
    switch (slot) {
        case 0: return it->second.addresses;
        case 1: return it->second.p48s;
        default: return it->second.p64s;
    }
}

std::optional<double> telemetry_aggregator::global_estimate(
    std::int64_t day, std::uint8_t id) const {
    const auto sketch = global_sketch(day, id);
    if (!sketch) return std::nullopt;
    return sketch->estimate();
}

std::int64_t telemetry_aggregator::newest_day() const {
    std::lock_guard lock(mutex_);
    return days_.empty() ? -1 : days_.rbegin()->first;
}

net::tel_decode_stats telemetry_aggregator::decode_stats() const {
    std::lock_guard lock(mutex_);
    net::tel_decode_stats stats = closed_stats_;
    for (const connection& c : conns_) add_stats(stats, c.decoder.stats());
    return stats;
}

std::optional<double> telemetry_aggregator::sample(
    const std::string& series, const std::string& label) const {
    std::lock_guard lock(mutex_);
    if (series == "v6fleet_nodes") return static_cast<double>(nodes_.size());
    if (series == "v6fleet_nodes_stale") {
        std::int64_t stale = 0;
        for (const auto& [name, n] : nodes_)
            if (!n.status.fresh) ++stale;
        return static_cast<double>(stale);
    }
    if (series == "v6fleet_node_up") {
        if (label.rfind("node=", 0) != 0) return std::nullopt;
        const auto it = nodes_.find(label.substr(5));
        if (it == nodes_.end() || !it->second.status.fresh)
            return std::nullopt;  // absent: the alert's missing sample
        return 1.0;
    }
    return std::nullopt;
}

void telemetry_aggregator::register_http(metrics_server& server) {
    server.add_handler("/api/nodes", [this](const query_params&) {
        http_reply reply;
        reply.body = nodes_json();
        return reply;
    });
}

}  // namespace v6::obs::federate
