// Tests for fleet telemetry federation: the V6TEL1 codec (round-trips,
// per-reason rejects, stream reassembly, sequence accounting), the
// pusher ↔ aggregator path over real loopback TCP (bit-exact cross-node
// HLL union, per-node series under node= labels, node-absence
// alerting), and thread-safety under concurrent push + scrape.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "v6class/net/telwire.h"
#include "v6class/obs/alert.h"
#include "v6class/obs/event_log.h"
#include "v6class/obs/federate.h"
#include "v6class/obs/http.h"
#include "v6class/obs/metrics.h"
#include "v6class/obs/sketch.h"
#include "v6class/obs/tsdb.h"
#include "v6class/stream/engine.h"

namespace v6 {
namespace {

using namespace std::chrono_literals;

/// Spins until `cond` holds or ~5 s pass. Returns the final value, so
/// callers can ASSERT on it.
bool wait_for(const std::function<bool()>& cond) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
        if (cond()) return true;
        std::this_thread::sleep_for(10ms);
    }
    return cond();
}

/// One blocking HTTP exchange against 127.0.0.1:port.
std::string http_get(std::uint16_t port, const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return "";
    }
    const std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, request.data(), request.size(), 0);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

/// Raw TCP byte sender — for frames the pusher would never produce
/// (seq skips, garbage prefixes).
void send_raw(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
}

obs::hyperloglog make_hll(unsigned precision, std::uint64_t seed,
                          unsigned count) {
    obs::hyperloglog h(precision);
    std::uint64_t x = seed;
    for (unsigned i = 0; i < count; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        h.add(x);
    }
    return h;
}

// ----------------------------------------------------------- codec

TEST(TelWireTest, StatusFrameRoundTrips) {
    net::tel_encoder enc("edge-1");
    net::tel_status s;
    s.records = 123456789;
    s.open_day = 42;
    s.sealed_day = 41;
    s.unix_time = 1722950000.125;
    std::vector<std::uint8_t> frame;
    enc.encode_status(s, frame);

    net::tel_decoder dec;
    net::tel_frame out;
    std::vector<std::uint8_t> buffer = frame;
    ASSERT_EQ(dec.pull(buffer, out), net::tel_pull::frame);
    EXPECT_TRUE(buffer.empty());  // consumed
    EXPECT_EQ(out.kind, net::kTelKindStatus);
    EXPECT_EQ(out.seq, 0u);
    EXPECT_EQ(out.node, "edge-1");
    EXPECT_EQ(out.status.records, s.records);
    EXPECT_EQ(out.status.open_day, s.open_day);
    EXPECT_EQ(out.status.sealed_day, s.sealed_day);
    EXPECT_EQ(out.status.unix_time, s.unix_time);
    EXPECT_EQ(dec.stats().frames, 1u);
    EXPECT_EQ(dec.stats().rejected(), 0u);
}

TEST(TelWireTest, SeriesFrameRoundTrips) {
    net::tel_encoder enc("n");
    std::vector<net::tel_sample> samples = {
        {"v6class_gamma16_48", "", 12, 41.5},
        {"v6class_asn_records", "asn=13335", -3, 0.0},
    };
    std::vector<std::uint8_t> frame;
    enc.encode_series(samples, frame);

    net::tel_decoder dec;
    net::tel_frame out;
    ASSERT_TRUE(dec.decode(frame.data() + 4, frame.size() - 4, out));
    ASSERT_EQ(out.samples.size(), 2u);
    EXPECT_EQ(out.samples[0].name, "v6class_gamma16_48");
    EXPECT_EQ(out.samples[0].label, "");
    EXPECT_EQ(out.samples[0].ts, 12);
    EXPECT_EQ(out.samples[0].value, 41.5);
    EXPECT_EQ(out.samples[1].label, "asn=13335");
    EXPECT_EQ(out.samples[1].ts, -3);
}

TEST(TelWireTest, SketchesFrameRoundTripsBitForBit) {
    const obs::hyperloglog hll = make_hll(10, 7, 500);
    obs::p2_quantile p2(0.99);
    for (int i = 1; i <= 100; ++i) p2.observe(i);

    net::tel_sketch hs;
    hs.id = net::kTelSketchDayAddresses;
    hs.stype = net::kTelSketchTypeHll;
    hll.serialize(hs.payload);
    net::tel_sketch ps;
    ps.id = net::kTelSketchHitsP99;
    ps.stype = net::kTelSketchTypeP2;
    p2.serialize(ps.payload);

    net::tel_encoder enc("n");
    std::vector<std::uint8_t> frame;
    enc.encode_sketches(17, {hs, ps}, frame);

    net::tel_decoder dec;
    net::tel_frame out;
    ASSERT_TRUE(dec.decode(frame.data() + 4, frame.size() - 4, out));
    EXPECT_EQ(out.sketch_day, 17);
    ASSERT_EQ(out.sketches.size(), 2u);
    const auto hll2 = obs::hyperloglog::deserialize(
        out.sketches[0].payload.data(), out.sketches[0].payload.size());
    ASSERT_TRUE(hll2.has_value());
    EXPECT_TRUE(*hll2 == hll);  // register-for-register
    const auto p22 = obs::p2_quantile::deserialize(
        out.sketches[1].payload.data(), out.sketches[1].payload.size());
    ASSERT_TRUE(p22.has_value());
    EXPECT_TRUE(*p22 == p2);
}

TEST(TelWireTest, EventsFrameRoundTrips) {
    net::tel_encoder enc("n");
    std::vector<net::tel_event> events(1);
    events[0].unix_time = 1722950001.5;
    events[0].level = "warn";
    events[0].kind = "drift";
    events[0].message = "gamma16_48 shifted";
    events[0].fields = {{"day", "12"}, {"z", "6.1"}};
    std::vector<std::uint8_t> frame;
    enc.encode_events(events, frame);

    net::tel_decoder dec;
    net::tel_frame out;
    ASSERT_TRUE(dec.decode(frame.data() + 4, frame.size() - 4, out));
    ASSERT_EQ(out.events.size(), 1u);
    EXPECT_EQ(out.events[0].level, "warn");
    EXPECT_EQ(out.events[0].kind, "drift");
    EXPECT_EQ(out.events[0].message, "gamma16_48 shifted");
    ASSERT_EQ(out.events[0].fields.size(), 2u);
    EXPECT_EQ(out.events[0].fields[1].first, "z");
    EXPECT_EQ(out.events[0].fields[1].second, "6.1");
}

TEST(TelWireTest, RejectsIncrementExactlyOnePerReasonCounter) {
    net::tel_encoder enc("n");
    std::vector<std::uint8_t> frame;
    enc.encode_status({}, frame);
    std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end());

    net::tel_frame out;
    {   // shorter than the fixed header
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(payload.data(), net::kTelHeaderSize - 1, out));
        EXPECT_EQ(d.stats().short_frame, 1u);
        EXPECT_EQ(d.stats().rejected(), 1u);
    }
    {   // magic mismatch
        auto bad = payload;
        bad[0] ^= 0xff;
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().bad_magic, 1u);
        EXPECT_EQ(d.stats().rejected(), 1u);
    }
    {   // future version
        auto bad = payload;
        bad[6] = 9;
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().bad_version, 1u);
    }
    {   // kind outside [1, 4]
        auto bad = payload;
        bad[7] = 0;
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().bad_kind, 1u);
        bad[7] = 5;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().bad_kind, 2u);
    }
    {   // node_len of zero
        auto bad = payload;
        bad[16] = bad[17] = 0;
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().bad_node, 1u);
    }
    {   // body cut short
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(payload.data(), payload.size() - 1, out));
        EXPECT_EQ(d.stats().truncated, 1u);
    }
    {   // spare byte after the body
        auto bad = payload;
        bad.push_back(0);
        net::tel_decoder d;
        EXPECT_FALSE(d.decode(bad.data(), bad.size(), out));
        EXPECT_EQ(d.stats().trailing, 1u);
    }
}

TEST(TelWireTest, EveryDecodeEitherAcceptsOrCountsExactlyOneReject) {
    // Corruption property (the wire.h test discipline): flip each byte
    // of a valid series payload in turn; whatever the decoder decides,
    // accepted + rejected must account for every attempt, and the
    // decoder must never crash or read out of bounds.
    net::tel_encoder enc("edge");
    std::vector<net::tel_sample> samples = {{"m", "node=a", 3, 1.25},
                                            {"n", "", 4, -2.0}};
    std::vector<std::uint8_t> frame;
    enc.encode_series(samples, frame);
    std::vector<std::uint8_t> payload(frame.begin() + 4, frame.end());

    std::uint64_t attempts = 0;
    net::tel_decoder dec;
    net::tel_frame out;
    for (std::size_t i = 0; i < payload.size(); ++i) {
        for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
            auto bad = payload;
            bad[i] ^= flip;
            ++attempts;
            dec.decode(bad.data(), bad.size(), out);
        }
    }
    EXPECT_EQ(dec.stats().frames + dec.stats().rejected(), attempts);
}

TEST(TelWireTest, PullReassemblesDribbledBytesAndBackToBackFrames) {
    net::tel_encoder enc("n");
    std::vector<std::uint8_t> f1, f2;
    enc.encode_status({}, f1);
    enc.encode_series({{"m", "", 1, 2.0}}, f2);

    // Dribble one byte at a time: need_more until the last byte lands.
    net::tel_decoder dec;
    net::tel_frame out;
    std::vector<std::uint8_t> buffer;
    for (std::size_t i = 0; i + 1 < f1.size(); ++i) {
        buffer.push_back(f1[i]);
        EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::need_more);
    }
    buffer.push_back(f1.back());
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::frame);
    EXPECT_EQ(out.kind, net::kTelKindStatus);

    // Two frames in one read drain in order. (f1 re-sent: its seq is
    // behind the decoder's high-water mark, which counts a reorder but
    // still yields the frame.)
    buffer = f1;
    buffer.insert(buffer.end(), f2.begin(), f2.end());
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::frame);
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::frame);
    EXPECT_EQ(out.kind, net::kTelKindSeries);
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::need_more);
}

TEST(TelWireTest, PullTreatsGarbageLengthPrefixAsFatal) {
    net::tel_decoder dec;
    net::tel_frame out;
    // Length prefix beyond kTelMaxFrame: no resync possible.
    std::vector<std::uint8_t> buffer = {0xff, 0xff, 0xff, 0xff, 0x00};
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::fatal);
    EXPECT_EQ(dec.stats().oversized, 1u);
    // Length prefix smaller than the fixed header: equally fatal.
    buffer = {0x01, 0x00, 0x00, 0x00, 0x00};
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::fatal);
    EXPECT_EQ(dec.stats().oversized, 2u);
}

TEST(TelWireTest, WellFramedButMalformedPayloadKeepsTheStreamAligned) {
    net::tel_encoder enc("n");
    std::vector<std::uint8_t> good;
    enc.encode_status({}, good);
    // A frame with valid length prefix but corrupted magic, followed by
    // a good frame: reject, then frame.
    std::vector<std::uint8_t> bad = good;
    bad[4] ^= 0xff;  // first magic byte (after the 4-byte prefix)
    std::vector<std::uint8_t> next;
    enc.encode_status({}, next);

    net::tel_decoder dec;
    net::tel_frame out;
    std::vector<std::uint8_t> buffer = bad;
    buffer.insert(buffer.end(), next.begin(), next.end());
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::reject);
    EXPECT_EQ(dec.pull(buffer, out), net::tel_pull::frame);
    EXPECT_EQ(dec.stats().bad_magic, 1u);
    EXPECT_EQ(dec.stats().frames, 1u);
}

TEST(TelWireTest, SequenceGapsAndReorderAreCounted) {
    net::tel_encoder enc("n");
    std::vector<std::uint8_t> f0, f1, f2;
    enc.encode_status({}, f0);  // seq 0
    enc.encode_status({}, f1);  // seq 1
    enc.encode_status({}, f2);  // seq 2

    net::tel_decoder dec;
    net::tel_frame out;
    ASSERT_TRUE(dec.decode(f0.data() + 4, f0.size() - 4, out));
    ASSERT_TRUE(dec.decode(f2.data() + 4, f2.size() - 4, out));  // skip 1
    EXPECT_EQ(dec.stats().seq_gaps, 1u);
    ASSERT_TRUE(dec.decode(f1.data() + 4, f1.size() - 4, out));  // late
    EXPECT_EQ(dec.stats().seq_reorder, 1u);
    EXPECT_EQ(dec.stats().frames, 3u);  // reordered frames still count
}

// -------------------------------------------------- federate helpers

TEST(FederateTest, NodeLabelJoinsIdentityOntoTheBaseLabel) {
    EXPECT_EQ(obs::federate::node_label("", "edge-1"), "node=edge-1");
    EXPECT_EQ(obs::federate::node_label("asn=13335", "edge-1"),
              "asn=13335,node=edge-1");
}

TEST(FederateTest, SerializeSealSketchesRoundTripsEverySketch) {
    obs::federate::seal_snapshot snap;
    snap.day = 9;
    snap.has_sketches = true;
    snap.addresses = make_hll(12, 1, 300);
    snap.p48s = make_hll(12, 2, 200);
    snap.p64s = make_hll(12, 3, 100);
    for (int i = 1; i <= 64; ++i) {
        snap.hits_p50.observe(i);
        snap.hits_p99.observe(i * i);
    }
    const std::vector<net::tel_sketch> wire =
        obs::federate::serialize_seal_sketches(snap);
    ASSERT_EQ(wire.size(), 5u);
    const auto back0 =
        obs::hyperloglog::deserialize(wire[0].payload.data(),
                                      wire[0].payload.size());
    ASSERT_TRUE(back0.has_value());
    EXPECT_TRUE(*back0 == snap.addresses);
    const auto back4 = obs::p2_quantile::deserialize(wire[4].payload.data(),
                                                     wire[4].payload.size());
    ASSERT_TRUE(back4.has_value());
    EXPECT_TRUE(*back4 == snap.hits_p99);

    obs::federate::seal_snapshot empty;
    EXPECT_TRUE(obs::federate::serialize_seal_sketches(empty).empty());
}

// --------------------------------------------- pusher <-> aggregator

class FederateE2eTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("v6_federate_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(FederateE2eTest, GlobalSketchIsTheBitExactCrossNodeUnion) {
    obs::federate::telemetry_aggregator agg({});
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    // Two nodes with overlapping element sets, as two vantage points
    // seeing partly the same addresses would produce.
    obs::federate::seal_snapshot a, b;
    a.day = b.day = 7;
    a.has_sketches = b.has_sketches = true;
    a.addresses = make_hll(14, 1, 4000);
    a.p48s = make_hll(12, 2, 700);
    a.p64s = make_hll(12, 3, 900);
    b.addresses = make_hll(14, 1, 2000);  // subset of a's stream
    b.addresses.merge(make_hll(14, 99, 3000));  // plus its own
    b.p48s = make_hll(12, 4, 600);
    b.p64s = make_hll(12, 3, 900);  // identical to a's

    {
        obs::federate::telemetry_pusher pa({"127.0.0.1", agg.port(), "a"});
        obs::federate::telemetry_pusher pb({"127.0.0.1", agg.port(), "b"});
        ASSERT_TRUE(pa.push_seal(a));
        ASSERT_TRUE(pb.push_seal(b));
        EXPECT_EQ(pa.send_failures(), 0u);
    }

    ASSERT_TRUE(wait_for([&] {
        return agg.global_sketch(7, net::kTelSketchDay64s).has_value() &&
               agg.decode_stats().frames >= 2;
    }));

    obs::hyperloglog want_addr = a.addresses;
    want_addr.merge(b.addresses);
    obs::hyperloglog want_48 = a.p48s;
    want_48.merge(b.p48s);
    obs::hyperloglog want_64 = a.p64s;
    want_64.merge(b.p64s);

    const auto got_addr =
        agg.global_sketch(7, net::kTelSketchDayAddresses);
    const auto got_48 = agg.global_sketch(7, net::kTelSketchDay48s);
    const auto got_64 = agg.global_sketch(7, net::kTelSketchDay64s);
    ASSERT_TRUE(got_addr && got_48 && got_64);
    // Same registers, not approximately-equal estimates: the union is
    // exact because register-wise max commutes with serialization.
    EXPECT_TRUE(*got_addr == want_addr);
    EXPECT_TRUE(*got_48 == want_48);
    EXPECT_TRUE(*got_64 == want_64);
    EXPECT_EQ(*agg.global_estimate(7, net::kTelSketchDayAddresses),
              want_addr.estimate());
    EXPECT_EQ(agg.newest_day(), 7);

    // Idempotence: a reconnecting node re-pushing the same day must not
    // change the union.
    {
        obs::federate::telemetry_pusher pa({"127.0.0.1", agg.port(), "a"});
        ASSERT_TRUE(pa.push_seal(a));
    }
    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 3; }));
    EXPECT_TRUE(*agg.global_sketch(7, net::kTelSketchDayAddresses) ==
                want_addr);
    agg.stop();
}

TEST_F(FederateE2eTest, SeriesLandInTheTsdbUnderNodeLabels) {
    obs::registry reg;
    obs::event_log log;
    std::string error;
    auto tsdb = obs::tsdb::database::open(dir_, {}, &error);
    ASSERT_TRUE(tsdb) << error;

    obs::federate::telemetry_aggregator::config cfg;
    cfg.metrics = &reg;
    cfg.events = &log;
    cfg.tsdb = tsdb.get();
    obs::federate::telemetry_aggregator agg(cfg);
    ASSERT_TRUE(agg.start(&error)) << error;

    obs::federate::telemetry_pusher push({"127.0.0.1", agg.port(), "edge-1"});
    net::tel_status st;
    st.records = 500;
    st.open_day = 13;
    st.sealed_day = 12;
    ASSERT_TRUE(push.push_status(st));
    ASSERT_TRUE(push.push_series({{"v6class_gamma16_48", "", 12, 41.5},
                                  {"v6class_active_addresses", "", 12, 900}}));
    obs::event e;
    e.unix_time = 1722950000.5;
    e.level = obs::event_level::warn;
    e.kind = "drift";
    e.message = "moved";
    ASSERT_TRUE(push.push_events({e}));

    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 3; }));

    // Node registry reflects the status frame.
    const auto nodes = agg.nodes();
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0].name, "edge-1");
    EXPECT_TRUE(nodes[0].fresh);
    EXPECT_EQ(nodes[0].records, 500u);
    EXPECT_EQ(nodes[0].open_day, 13);
    EXPECT_EQ(nodes[0].sealed_day, 12);

    // Series landed under the node= label.
    const auto pts = tsdb->query("v6class_gamma16_48", "node=edge-1",
                                 INT64_MIN, INT64_MAX);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].ts, 12);
    EXPECT_EQ(pts[0].value, 41.5);

    // The forwarded event carries its origin node.
    const auto events = log.recent(16);
    bool saw = false;
    for (const obs::event& ev : events)
        if (ev.kind == "drift") {
            saw = true;
            ASSERT_FALSE(ev.fields.empty());
            EXPECT_EQ(ev.fields.back().first, "node");
            EXPECT_EQ(ev.fields.back().second, "\"edge-1\"");
        }
    EXPECT_TRUE(saw);

    // nodes_json is one well-formed fleet summary.
    const std::string json = agg.nodes_json();
    EXPECT_NE(json.find("\"node\":\"edge-1\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"records\":500"), std::string::npos) << json;
    agg.stop();
}

TEST_F(FederateE2eTest, HttpServesNodesAndNodeLabeledSeries) {
    obs::registry reg;
    std::string error;
    auto tsdb = obs::tsdb::database::open(dir_, {}, &error);
    ASSERT_TRUE(tsdb) << error;

    obs::federate::telemetry_aggregator::config cfg;
    cfg.metrics = &reg;
    cfg.tsdb = tsdb.get();
    obs::federate::telemetry_aggregator agg(cfg);
    ASSERT_TRUE(agg.start(&error)) << error;

    obs::metrics_server server;
    agg.register_http(server);
    obs::tsdb::register_history_api(server, tsdb.get());
    ASSERT_TRUE(server.start(0, &reg, &error)) << error;

    obs::federate::telemetry_pusher push({"127.0.0.1", agg.port(), "edge-9"});
    ASSERT_TRUE(push.push_series({{"v6class_stable_fraction", "", 3, 0.75}}));
    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 1; }));

    const std::string nodes = http_get(server.port(), "/api/nodes");
    EXPECT_NE(nodes.find("200 OK"), std::string::npos);
    EXPECT_NE(nodes.find("\"node\":\"edge-9\""), std::string::npos) << nodes;

    // The per-node series is discoverable and queryable with its
    // node= label through the shared history API.
    const std::string dir = http_get(server.port(), "/api/series");
    EXPECT_NE(dir.find("node=edge-9"), std::string::npos) << dir;
    const std::string series = http_get(
        server.port(),
        "/api/series?name=v6class_stable_fraction&label=node%3Dedge-9");
    EXPECT_NE(series.find("[3,0.75]"), std::string::npos) << series;

    // The fleet metrics ride the same registry.
    const std::string metrics = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics.find("v6fleet_frames_total 1"), std::string::npos)
        << metrics;
    server.stop();
    agg.stop();
}

TEST_F(FederateE2eTest, NodeAbsenceAlertReachesFiringWithinOneHoldDown) {
    obs::registry reg;
    obs::event_log log;
    obs::federate::telemetry_aggregator::config cfg;
    cfg.metrics = &reg;
    cfg.events = &log;
    cfg.staleness = std::chrono::milliseconds(150);
    obs::federate::telemetry_aggregator agg(cfg);
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    // The node= sugar expands to the aggregator's liveness series.
    const auto rules =
        obs::parse_alert_rules("collector-gone node=edge-1 level=error");
    ASSERT_TRUE(rules.has_value());
    ASSERT_EQ(rules->size(), 1u);
    EXPECT_EQ((*rules)[0].series, "v6fleet_node_up");
    EXPECT_EQ((*rules)[0].label, "node=edge-1");
    EXPECT_EQ((*rules)[0].cond, obs::alert_cond::absent);

    obs::alert_engine alerts(&reg, &log);
    alerts.load_rules(*rules);
    const auto sampler = [&agg](const std::string& series,
                                const std::string& label) {
        return agg.sample(series, label);
    };

    {
        obs::federate::telemetry_pusher push(
            {"127.0.0.1", agg.port(), "edge-1"});
        ASSERT_TRUE(push.push_status({}));
        ASSERT_TRUE(wait_for([&] { return !agg.nodes().empty(); }));
        alerts.evaluate(sampler, 1);
        EXPECT_EQ(alerts.firing_count(), 0u);  // fresh: sample present
    }
    // Pusher gone: once the staleness window passes, the very next
    // evaluation fires (absent=1, for=0 — one hold-down).
    ASSERT_TRUE(wait_for([&] {
        const auto nodes = agg.nodes();
        return !nodes.empty() && !nodes[0].fresh;
    }));
    alerts.evaluate(sampler, 2);
    EXPECT_EQ(alerts.firing_count(), 1u);
    const auto snap = alerts.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].state, obs::alert_state::firing);
    agg.stop();
}

TEST_F(FederateE2eTest, NodeLevelSequenceGapsSurviveReconnects) {
    obs::federate::telemetry_aggregator agg({});
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    // Hand-build three status frames and deliver only seq 0 and 2, on
    // two separate connections: the per-connection decoder can't see
    // the gap (fresh decoder per connection), the node registry must.
    net::tel_encoder enc("edge-2");
    std::vector<std::uint8_t> f0, f1, f2;
    enc.encode_status({}, f0);
    enc.encode_status({}, f1);  // never sent
    enc.encode_status({}, f2);
    send_raw(agg.port(), f0);
    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 1; }));
    send_raw(agg.port(), f2);
    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 2; }));

    const auto nodes = agg.nodes();
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0].seq_gaps, 1u);
    EXPECT_EQ(nodes[0].frames, 2u);
    agg.stop();
}

TEST_F(FederateE2eTest, MalformedFramesAreCountedWithoutKillingTheStream) {
    obs::registry reg;
    obs::federate::telemetry_aggregator::config cfg;
    cfg.metrics = &reg;
    obs::federate::telemetry_aggregator agg(cfg);
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    net::tel_encoder enc("edge-3");
    std::vector<std::uint8_t> good1, bad, good2;
    enc.encode_status({}, good1);
    enc.encode_status({}, bad);
    bad[4] ^= 0xff;  // corrupt the magic inside a valid length frame
    enc.encode_status({}, good2);
    std::vector<std::uint8_t> stream = good1;
    stream.insert(stream.end(), bad.begin(), bad.end());
    stream.insert(stream.end(), good2.begin(), good2.end());
    send_raw(agg.port(), stream);

    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 2; }));
    const net::tel_decode_stats stats = agg.decode_stats();
    EXPECT_EQ(stats.frames, 2u);       // both good frames survived
    EXPECT_EQ(stats.bad_magic, 1u);    // the middle one was counted
    EXPECT_EQ(stats.rejected(), 1u);
    agg.stop();
}

// --------------------------------------------------- engine seal hook

TEST(FederateEngineTest, SealHookReceivesSeriesAndSketchesPerDay) {
    std::mutex mu;
    std::vector<obs::federate::seal_snapshot> seen;
    stream_config cfg;
    cfg.shards = 2;
    cfg.batch_size = 8;
    cfg.queue_capacity = 4;
    cfg.on_seal = [&](const obs::federate::seal_snapshot& s) {
        std::lock_guard lock(mu);
        seen.push_back(s);
    };
    stream_engine engine(cfg);
    for (unsigned i = 0; i < 50; ++i)
        engine.push(3, address::from_pair(0x20010db800000000ull + i, i), 1);
    for (unsigned i = 0; i < 30; ++i)
        engine.push(4, address::from_pair(0x20010db900000000ull + i, i), 2);
    engine.finish();

    std::lock_guard lock(mu);
    ASSERT_EQ(seen.size(), 2u);  // one hook call per sealed day
    EXPECT_EQ(seen[0].day, 3);
    EXPECT_EQ(seen[1].day, 4);
    // One row per live series, in live() order, stamped with the day.
    const live_view view = engine.live(0);
    for (const obs::federate::seal_snapshot& s : seen) {
        ASSERT_EQ(s.series.size(), view.series.size());
        for (std::size_t i = 0; i < s.series.size(); ++i) {
            EXPECT_EQ(s.series[i].name, view.series[i].metric) << i;
            EXPECT_EQ(s.series[i].label, view.series[i].label) << i;
            EXPECT_EQ(s.series[i].ts, s.day) << i;
        }
        ASSERT_TRUE(s.has_sketches);
    }
    // The last seal's rows are the live series' current values.
    for (std::size_t i = 0; i < view.series.size(); ++i)
        EXPECT_EQ(seen[1].series[i].value, view.series[i].current) << i;
    // The pushed sketch is the engine's own merged day sketch: its
    // estimate must agree exactly with the day report's estimate.
    const std::vector<day_report> reports = engine.reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(seen[0].addresses.estimate(), reports[0].est_day_addresses);
    EXPECT_EQ(seen[1].addresses.estimate(), reports[1].est_day_addresses);
}

TEST(FederateEngineTest, SealHookWithoutSketchesCarriesNoSketches) {
    std::vector<obs::federate::seal_snapshot> seen;  // roll thread only
    stream_config cfg;
    cfg.shards = 2;
    cfg.sketches = false;
    cfg.on_seal = [&](const obs::federate::seal_snapshot& s) {
        seen.push_back(s);
    };
    stream_engine engine(cfg);
    for (unsigned i = 0; i < 40; ++i)
        engine.push(5, address::from_pair(0x20010db800000000ull + i, i), 3);
    engine.finish();

    ASSERT_EQ(seen.size(), 1u);
    EXPECT_FALSE(seen[0].has_sketches);
    bool saw_p50 = false;
    for (const net::tel_sample& row : seen[0].series) {
        if (row.name != "v6class_hits_p50") continue;
        saw_p50 = true;
        EXPECT_EQ(row.value, 0.0);  // no quantiles without sketches
    }
    EXPECT_TRUE(saw_p50);
    EXPECT_TRUE(obs::federate::serialize_seal_sketches(seen[0]).empty());
}

TEST(FederateEngineTest, EngineToAggregatorEndToEndUnionIsExact) {
    // The acceptance path: two engines classify different (overlapping)
    // feeds, each seals through a pusher; the aggregator's global /64
    // estimate must equal the estimate of the locally-merged teed
    // sketches — same registers, not approximately.
    obs::federate::telemetry_aggregator agg({});
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    std::mutex mu;
    std::vector<obs::federate::seal_snapshot> teed;
    const auto run_engine = [&](const char* node, std::uint64_t base) {
        obs::federate::telemetry_pusher push({"127.0.0.1", agg.port(), node});
        stream_config cfg;
        cfg.shards = 2;
        cfg.batch_size = 8;
        cfg.queue_capacity = 4;
        cfg.on_seal = [&](const obs::federate::seal_snapshot& s) {
            push.push_seal(s);
            std::lock_guard lock(mu);
            teed.push_back(s);
        };
        stream_engine engine(cfg);
        for (unsigned i = 0; i < 400; ++i)
            engine.push(6, address::from_pair(base + i / 4, i), 1);
        engine.finish();
    };
    run_engine("east", 0x20010db800000000ull);
    run_engine("west", 0x20010db800000020ull);  // overlaps east's /64s

    ASSERT_TRUE(wait_for([&] {
        return agg.global_sketch(6, net::kTelSketchDay64s).has_value() &&
               agg.decode_stats().frames >= 4;  // 2 nodes x (series+sketches)
    }));
    std::lock_guard lock(mu);
    ASSERT_EQ(teed.size(), 2u);
    obs::hyperloglog local = teed[0].p64s;
    local.merge(teed[1].p64s);
    const auto global = agg.global_sketch(6, net::kTelSketchDay64s);
    ASSERT_TRUE(global.has_value());
    EXPECT_TRUE(*global == local);
    EXPECT_EQ(*agg.global_estimate(6, net::kTelSketchDay64s),
              local.estimate());
    agg.stop();
}

// ------------------------------------------------------- concurrency

TEST(FederateConcurrencyTest, ConcurrentPushScrapeAndSealStayClean) {
    // TSan target: two pusher threads sealing/statusing, one scraper
    // thread reading every public surface, while the rx thread ingests.
    obs::registry reg;
    obs::event_log log;
    obs::federate::telemetry_aggregator::config cfg;
    cfg.metrics = &reg;
    cfg.events = &log;
    obs::federate::telemetry_aggregator agg(cfg);
    std::string error;
    ASSERT_TRUE(agg.start(&error)) << error;

    std::atomic<bool> stop{false};
    const auto pusher_loop = [&](const char* node, std::uint64_t seed) {
        obs::federate::telemetry_pusher push({"127.0.0.1", agg.port(), node});
        for (int i = 0; i < 40; ++i) {
            net::tel_status st;
            st.records = static_cast<std::uint64_t>(i);
            st.sealed_day = i;
            push.push_status(st);
            obs::federate::seal_snapshot snap;
            snap.day = i;
            snap.has_sketches = true;
            snap.addresses = make_hll(8, seed + i, 50);
            snap.p48s = make_hll(8, seed + i + 1, 50);
            snap.p64s = make_hll(8, seed + i + 2, 50);
            push.push_seal(snap);
        }
    };
    std::thread a(pusher_loop, "a", 1);
    std::thread b(pusher_loop, "b", 1000);
    std::thread scraper([&] {
        while (!stop.load()) {
            (void)agg.nodes_json();
            (void)agg.decode_stats();
            (void)agg.nodes();
            (void)agg.global_estimate(agg.newest_day(),
                                      net::kTelSketchDayAddresses);
            (void)agg.sample("v6fleet_node_up", "node=a");
            (void)reg.prometheus_text();
            std::this_thread::sleep_for(1ms);
        }
    });
    a.join();
    b.join();
    ASSERT_TRUE(wait_for([&] { return agg.decode_stats().frames >= 100; }));
    stop.store(true);
    scraper.join();
    agg.stop();
    EXPECT_GE(agg.decode_stats().frames, 100u);
    EXPECT_EQ(agg.decode_stats().rejected(), 0u);
}

}  // namespace
}  // namespace v6
