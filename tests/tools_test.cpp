// End-to-end tests of the command-line tools: invoke the real binaries
// with real files and check exit codes and output shape. Tool paths come
// from the V6CLASS_TOOLS_DIR compile definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.h"

namespace {

namespace fs = std::filesystem;

std::string tool(const std::string& name) {
    return std::string(V6CLASS_TOOLS_DIR) + "/" + name;
}

struct run_result {
    int exit_code = -1;
    std::string output;
};

// Runs a shell command capturing stdout (stderr untouched).
run_result run(const std::string& command) {
    run_result result;
    const fs::path out_file =
        fs::temp_directory_path() /
        ("v6class_tools_out_" + std::to_string(::getpid()) + ".txt");
    const int status =
        std::system((command + " > " + out_file.string()).c_str());
    result.exit_code = status == -1 ? -1 : WEXITSTATUS(status);
    std::ifstream in(out_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    result.output = buf.str();
    fs::remove(out_file);
    return result;
}

class ToolsTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        corpus_ = fs::temp_directory_path() /
                  ("v6class_tools_corpus_" + std::to_string(::getpid()));
        fs::remove_all(corpus_);
        const run_result synth = run(
            tool("v6synth") + " --out=" + corpus_.string() +
            " --scale=0.03 --first=362 --last=368 --routes --routers --zone"
            " 2>/dev/null");
        ASSERT_EQ(synth.exit_code, 0);
    }
    static void TearDownTestSuite() { fs::remove_all(corpus_); }
    static fs::path corpus_;
};

fs::path ToolsTest::corpus_;

std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST_F(ToolsTest, SynthWroteTheCorpus) {
    EXPECT_TRUE(fs::exists(corpus_ / "day_365.log"));
    EXPECT_TRUE(fs::exists(corpus_ / "routes.txt"));
    EXPECT_TRUE(fs::exists(corpus_ / "routers.txt"));
    EXPECT_TRUE(fs::exists(corpus_ / "zone.ptr"));
}

TEST_F(ToolsTest, ArpaNamesAndZoneResolution) {
    const fs::path input = corpus_ / "arpa_input.txt";
    {
        std::ofstream out(input);
        out << "2001:db8::1\n";
    }
    const run_result names = run(tool("v6arpa") + " " + input.string());
    EXPECT_EQ(names.exit_code, 0);
    EXPECT_NE(names.output.find("8.b.d.0.1.0.0.2.ip6.arpa"), std::string::npos);

    // Resolve the routers against the synthesized zone: every router
    // interface must have a name.
    const run_result scan =
        run(tool("v6arpa") + " --zone=" + (corpus_ / "zone.ptr").string() +
            " --scan " + (corpus_ / "routers.txt").string() + " 2>/dev/null");
    EXPECT_EQ(scan.exit_code, 0);
    EXPECT_NE(scan.output.find("example.net"), std::string::npos);
}

TEST_F(ToolsTest, ClassifyEmitsTsv) {
    const fs::path input = corpus_ / "classify_input.txt";
    {
        std::ofstream out(input);
        out << "2001:db8:0:1cdf:21e:c2ff:fec0:11db\n2002:c000:221::1\n";
    }
    const run_result r = run(tool("v6classify") + " " + input.string());
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("eui64"), std::string::npos);
    EXPECT_NE(r.output.find("mac=00:1e:c2:c0:11:db"), std::string::npos);
    EXPECT_NE(r.output.find("6to4"), std::string::npos);
    EXPECT_NE(r.output.find("v4=192.0.2.33"), std::string::npos);
}

TEST_F(ToolsTest, ClassifySummaryCounts) {
    const run_result r = run(tool("v6classify") + " --summary " +
                             (corpus_ / "day_365.log").string());
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("transition:"), std::string::npos);
    EXPECT_NE(r.output.find("native"), std::string::npos);
}

TEST_F(ToolsTest, MraRendersAsciiAndCsv) {
    const std::string input = (corpus_ / "day_365.log").string();
    const run_result ascii = run(tool("v6mra") + " --title=test " + input);
    EXPECT_EQ(ascii.exit_code, 0);
    EXPECT_NE(ascii.output.find("16-bit segments"), std::string::npos);
    const run_result csv = run(tool("v6mra") + " --csv " + input);
    EXPECT_EQ(csv.exit_code, 0);
    EXPECT_EQ(csv.output.rfind("p,k,ratio\n", 0), 0u);
}

TEST_F(ToolsTest, MraCompareMeasuresShapeDistance) {
    const std::string a = (corpus_ / "day_365.log").string();
    const std::string b = (corpus_ / "day_366.log").string();
    const std::string routers = (corpus_ / "routers.txt").string();
    // Same population two days apart: tiny distance. Clients vs routers:
    // very different plans.
    const run_result close_run = run(tool("v6mra") + " --compare=" + b + " " + a);
    ASSERT_EQ(close_run.exit_code, 0);
    const double same = std::atof(close_run.output.c_str());
    const run_result far = run(tool("v6mra") + " --compare=" + routers + " " + a);
    ASSERT_EQ(far.exit_code, 0);
    const double different = std::atof(far.output.c_str());
    EXPECT_LT(same, 0.5);
    EXPECT_GT(different, same * 2);
}

TEST_F(ToolsTest, MraWritesGnuplotArtifacts) {
    const fs::path plot_dir = corpus_ / "plots";
    const run_result r =
        run(tool("v6mra") + " --gnuplot=" + plot_dir.string() + " --stem=day " +
            (corpus_ / "day_365.log").string() + " 2>/dev/null");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_TRUE(fs::exists(plot_dir / "day.gp"));
    EXPECT_TRUE(fs::exists(plot_dir / "day.dat"));
}

TEST_F(ToolsTest, DenseTableAndTargets) {
    const std::string routers = (corpus_ / "routers.txt").string();
    const run_result table =
        run(tool("v6dense") + " --class=2@112 --class=2@120 " + routers);
    EXPECT_EQ(table.exit_code, 0);
    EXPECT_NE(table.output.find("2 @ /112"), std::string::npos);
    EXPECT_NE(table.output.find("2 @ /120"), std::string::npos);
    const run_result targets =
        run(tool("v6dense") + " --class=2@120 --targets=64 " + routers);
    EXPECT_EQ(targets.exit_code, 0);
    std::size_t lines = 0;
    for (char c : targets.output)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, 64u);
}

TEST_F(ToolsTest, DenseRejectsBadClass) {
    const run_result r = run(tool("v6dense") + " --class=banana /dev/null 2>/dev/null");
    EXPECT_NE(r.exit_code, 0);
}

TEST_F(ToolsTest, StableClassifiesReferenceDay) {
    const run_result r = run(tool("v6stable") + " --corpus=" + corpus_.string() +
                             " --ref=365 --n=3");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("3d-stable (-7d,+7d)"), std::string::npos);
    const run_result p64 = run(tool("v6stable") + " --corpus=" + corpus_.string() +
                               " --ref=365 --prefix-length=64");
    EXPECT_EQ(p64.exit_code, 0);
    EXPECT_NE(p64.output.find("/64 prefixes"), std::string::npos);
}

TEST_F(ToolsTest, ProfileInfersPractices) {
    const run_result r = run(tool("v6profile") + " --corpus=" + corpus_.string() +
                             " --routes=" + (corpus_ / "routes.txt").string() +
                             " --ref=365");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("dynamic-64-pool"), std::string::npos);
    EXPECT_NE(r.output.find("shared-dense"), std::string::npos);
    EXPECT_NE(r.output.find("AS20001"), std::string::npos);
}

TEST_F(ToolsTest, StreamConsumesSynthFeed) {
    // The README quickstart: pipe a synthetic feed straight into the
    // streaming classifier and read the JSON day roll-ups + final report.
    const run_result r = run(
        tool("v6synth") + " --stream --scale=0.02 --first=362 --last=366"
        " 2>/dev/null | " + tool("v6stream") + " --shards=3 --n=3 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("{\"type\":\"day\",\"day\":362,"), std::string::npos);
    EXPECT_NE(r.output.find("{\"type\":\"day\",\"day\":366,"), std::string::npos);
    EXPECT_NE(r.output.find("\"type\":\"final\""), std::string::npos);
    EXPECT_NE(r.output.find("\"spectrum\":["), std::string::npos);
    EXPECT_NE(r.output.find("\"late_dropped\":0"), std::string::npos);
}

TEST_F(ToolsTest, StreamReplaysACorpusDirectory) {
    const run_result r =
        run(tool("v6stream") + " --replay=" + corpus_.string() +
            " --shards=2 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("{\"type\":\"day\",\"day\":362,"), std::string::npos);
    EXPECT_NE(r.output.find("\"type\":\"final\""), std::string::npos);
}

TEST_F(ToolsTest, StreamRejectsBadClass) {
    const run_result r =
        run("true | " + tool("v6stream") + " --class=nope 2>/dev/null");
    EXPECT_NE(r.exit_code, 0);
}

TEST_F(ToolsTest, StreamRejectsUnknownFlag) {
    const run_result r =
        run("true | " + tool("v6stream") + " --no-such-flag 2>/dev/null");
    EXPECT_NE(r.exit_code, 0);
}

// ------------------------------------------------------------ wire

TEST_F(ToolsTest, WireDumpRoundTripsTheStreamFeed) {
    // The binary capture of a world must decode back to byte-for-byte
    // the text feed v6synth --stream emits for the same world.
    const fs::path capture = corpus_ / "feed.v6w";
    const run_result synth = run(
        tool("v6synth") + " --wire=" + capture.string() +
        " --scale=0.02 --first=362 --last=364 2>/dev/null");
    ASSERT_EQ(synth.exit_code, 0);

    const run_result text = run(
        tool("v6synth") + " --stream --scale=0.02 --first=362 --last=364"
        " 2>/dev/null");
    ASSERT_EQ(text.exit_code, 0);
    const run_result dump =
        run(tool("v6wire") + " dump " + capture.string() + " 2>/dev/null");
    ASSERT_EQ(dump.exit_code, 0);
    EXPECT_EQ(dump.output, text.output);

    const run_result info = run(tool("v6wire") + " info " + capture.string());
    EXPECT_EQ(info.exit_code, 0);
    EXPECT_NE(info.output.find("rejected    0"), std::string::npos);
}

TEST_F(ToolsTest, StreamReplaysWireCaptureIdenticalToCorpusDir) {
    // One world three ways: the day_<n>.log corpus SetUpTestSuite wrote
    // into corpus_, the same days as a text feed, and as a binary wire
    // capture. Every source enters the engine through the same ingest
    // step, so the whole stdout — day roll-ups, per-ASN day breakdowns
    // and the final report — must be byte-identical.
    const std::string world = " --scale=0.03 --first=362 --last=368 2>/dev/null";
    const fs::path capture = corpus_ / "replay.v6w";
    const fs::path feed = corpus_ / "replay.txt";
    const fs::path db = corpus_ / "replay.asndb";
    ASSERT_EQ(run(tool("v6synth") + " --wire=" + capture.string() + world).exit_code, 0);
    const run_result text = run(tool("v6synth") + " --stream" + world);
    ASSERT_EQ(text.exit_code, 0);
    std::ofstream(feed) << text.output;
    ASSERT_EQ(run(tool("v6mkdb") + " --in=" + (corpus_ / "routes.txt").string() +
                  " --out=" + db.string() + " 2>/dev/null")
                  .exit_code,
              0);

    const std::string stream = tool("v6stream") +
                               " --status-every=0 --shards=2 --asn-db=" +
                               db.string() + " ";
    const run_result from_dir =
        run(stream + "--replay=" + corpus_.string() + " 2>/dev/null");
    const run_result from_text = run(stream + feed.string() + " 2>/dev/null");
    const run_result from_wire =
        run(stream + "--replay=" + capture.string() + " 2>/dev/null");
    ASSERT_EQ(from_dir.exit_code, 0);
    ASSERT_EQ(from_text.exit_code, 0);
    ASSERT_EQ(from_wire.exit_code, 0);
    ASSERT_NE(from_dir.output.find("{\"type\":\"day_asn\",\"day\":362,"),
              std::string::npos);
    ASSERT_NE(from_dir.output.find("\"type\":\"final\""), std::string::npos);
    EXPECT_EQ(from_text.output, from_dir.output);
    EXPECT_EQ(from_wire.output, from_dir.output);
}

TEST_F(ToolsTest, StreamForcedScalarReplayIsByteIdentical) {
    // The SIMD dispatch contract end to end: V6CLASS_FORCE_SCALAR=1 swaps
    // every batch kernel for its scalar reference, and the sealed-day
    // reports over the same wire capture must stay byte-for-byte
    // identical — the dispatch decision is invisible to every consumer.
    // So is the shard count: the shards partition the address space and
    // every report merges exactly, so --shards=1 and --shards=5 print
    // the same bytes as --shards=2.
    const fs::path capture = corpus_ / "scalar.v6w";
    const run_result synth = run(
        tool("v6synth") + " --wire=" + capture.string() +
        " --scale=0.03 --first=362 --last=368 2>/dev/null");
    ASSERT_EQ(synth.exit_code, 0);

    const std::string replay =
        tool("v6stream") + " --replay=" + capture.string() + " --shards=";
    const run_result dispatched = run(replay + "2 2>/dev/null");
    const run_result scalar = run("V6CLASS_FORCE_SCALAR=1 " + replay + "2 2>/dev/null");
    ASSERT_EQ(dispatched.exit_code, 0);
    ASSERT_EQ(scalar.exit_code, 0);
    ASSERT_NE(dispatched.output.find("{\"type\":\"day\",\"day\":362,"),
              std::string::npos);
    ASSERT_NE(dispatched.output.find("\"type\":\"final\""), std::string::npos);
    EXPECT_EQ(scalar.output, dispatched.output);
    for (const char* shards : {"1", "5"}) {
        const run_result r = run(replay + shards + " 2>/dev/null");
        ASSERT_EQ(r.exit_code, 0) << "--shards=" << shards;
        EXPECT_EQ(r.output, dispatched.output) << "--shards=" << shards;
    }
}

TEST_F(ToolsTest, MkdbBuildsDbAndStreamEmitsAsnBreakdowns) {
    const fs::path db = corpus_ / "asn.db";
    const run_result build = run(
        tool("v6mkdb") + " --in=" + (corpus_ / "routes.txt").string() +
        " --out=" + db.string() + " 2>/dev/null");
    ASSERT_EQ(build.exit_code, 0);
    ASSERT_TRUE(fs::exists(db));

    // The db dumps back as "prefix asn country" source lines.
    const run_result dump = run(tool("v6mkdb") + " --dump=" + db.string());
    ASSERT_EQ(dump.exit_code, 0);
    EXPECT_NE(dump.output.find("20001"), std::string::npos);

    // Enriched replay: every sealed day gains a day_asn breakdown whose
    // rows carry the synthetic world's ASNs.
    const run_result r =
        run(tool("v6stream") + " --replay=" + corpus_.string() +
            " --asn-db=" + db.string() + " --shards=2 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("{\"type\":\"day_asn\",\"day\":362,"),
              std::string::npos);
    EXPECT_NE(r.output.find("\"asn\":20001"), std::string::npos);
    EXPECT_NE(r.output.find("\"records\":"), std::string::npos);
}

TEST_F(ToolsTest, MkdbRejectsGarbageDb) {
    const fs::path bad = corpus_ / "bad.db";
    {
        std::ofstream out(bad);
        out << "not a database\n";
    }
    const run_result dump =
        run(tool("v6mkdb") + " --dump=" + bad.string() + " 2>/dev/null");
    EXPECT_NE(dump.exit_code, 0);
    const run_result r =
        run("true | " + tool("v6stream") + " --asn-db=" + bad.string() +
            " 2>/dev/null");
    EXPECT_NE(r.exit_code, 0) << "a corrupt db at startup is a hard error";
}

TEST_F(ToolsTest, StreamReplaySigintSealsAndReports) {
    // SIGINT mid-replay must still produce the ordered shutdown: the
    // open day seals, day reports drain, and the final object appears —
    // with exit code 0. --rate keeps the replay running long enough for
    // the signal to land mid-feed.
    const run_result r = run(
        "{ " + tool("v6stream") + " --replay=" + corpus_.string() +
        " --rate=2000 --shards=2 2>/dev/null & pid=$!; sleep 1;"
        " kill -INT $pid; wait $pid; }");
    ASSERT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("\"type\":\"final\""), std::string::npos);
    EXPECT_NE(r.output.find("\"spectrum\":["), std::string::npos);
}

TEST_F(ToolsTest, StreamWireReplayReloadsDbOnSighup) {
    // SIGHUP mid-replay of a wire capture hot-reloads the ASN db between
    // blocks, like every other source; SIGINT then ends the run through
    // the ordered shutdown with exit code 0. --rate keeps the replay
    // running long enough for both signals to land mid-feed.
    const fs::path capture = corpus_ / "sighup.v6w";
    const fs::path db = corpus_ / "sighup.asndb";
    ASSERT_EQ(run(tool("v6synth") + " --wire=" + capture.string() +
                  " --scale=0.03 --first=362 --last=368 2>/dev/null")
                  .exit_code,
              0);
    ASSERT_EQ(run(tool("v6mkdb") + " --in=" + (corpus_ / "routes.txt").string() +
                  " --out=" + db.string() + " 2>/dev/null")
                  .exit_code,
              0);
    // stderr is captured; stdout is dropped.
    const run_result r = run(
        "{ " + tool("v6stream") + " --replay=" + capture.string() +
        " --asn-db=" + db.string() + " --rate=5000 --shards=2 2>&1 >/dev/null"
        " & pid=$!; sleep 1; kill -HUP $pid; sleep 0.5; kill -INT $pid;"
        " wait $pid; }");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("reloaded " + db.string()), std::string::npos)
        << r.output;
}

TEST_F(ToolsTest, StreamPacedWireReplayPrintsDaysAsTheySeal) {
    // A day's report is due when the day seals, not when the capture
    // ends: a .v6w replay paced to last a few seconds must have printed
    // day lines while it still runs. The whole stdout must then equal a
    // line-rate replay's — when a report drains changes nothing printed.
    const fs::path capture = corpus_ / "timing.v6w";
    const fs::path paced = corpus_ / "timing_paced.json";
    ASSERT_EQ(run(tool("v6synth") + " --wire=" + capture.string() +
                  " --scale=0.03 --first=362 --last=368 2>/dev/null")
                  .exit_code,
              0);
    const std::string replay = tool("v6stream") + " --replay=" +
                               capture.string() + " --status-every=0 --shards=2";
    // ~36.6k records at 10k records/s: about 3.7 s. At 2 s the process
    // must still be running and have printed at least one day line.
    const run_result probe = run(
        "{ " + replay + " --rate=10000 >" + paced.string() +
        " 2>/dev/null & pid=$!; sleep 2;"
        " if kill -0 $pid 2>/dev/null; then"
        "   grep -c '\"type\":\"day\",' " + paced.string() + ";"
        " else echo exited; fi; wait $pid; }");
    ASSERT_EQ(probe.exit_code, 0) << probe.output;
    ASSERT_NE(probe.output.find_first_of("0123456789"), std::string::npos)
        << "replay ended before the probe: " << probe.output;
    EXPECT_GE(std::atoi(probe.output.c_str()), 1)
        << "no day line printed mid-replay";

    const run_result line_rate = run(replay + " --rate=0 2>/dev/null");
    ASSERT_EQ(line_rate.exit_code, 0);
    ASSERT_NE(line_rate.output.find("\"type\":\"final\""), std::string::npos);
    EXPECT_EQ(slurp(paced), line_rate.output);
}

TEST_F(ToolsTest, StreamAsnLedgerCountsOnlyAcceptedRecords) {
    // The engine drops a record below the open day as late; the per-ASN
    // ledger must not count it either. Here ::4 (5 hits) arrives for
    // day 362 after day 363 opened, so day 362's day_asn line holds ::1
    // and ::2 only, matching the final object's records and late counts.
    const fs::path routes = corpus_ / "late_routes.txt";
    const fs::path db = corpus_ / "late.asndb";
    const fs::path feed = corpus_ / "late_feed.txt";
    std::ofstream(routes) << "2001:db8::/32 64500 de\n";
    std::ofstream(feed) << "362 2001:db8::1\n362 2001:db8::2\n"
                           "363 2001:db8::3\n362 2001:db8::4 5\n"
                           "363 2001:db8::5\n";
    ASSERT_EQ(run(tool("v6mkdb") + " --in=" + routes.string() +
                  " --out=" + db.string() + " 2>/dev/null")
                  .exit_code,
              0);
    const run_result r =
        run(tool("v6stream") + " --status-every=0 --shards=1 --asn-db=" +
            db.string() + " " + feed.string() + " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("{\"type\":\"day_asn\",\"day\":362,\"rows\":["
                            "{\"asn\":64500,\"country\":\"de\","
                            "\"records\":2,\"hits\":2}]}"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("{\"type\":\"day_asn\",\"day\":363,\"rows\":["
                            "{\"asn\":64500,\"country\":\"de\","
                            "\"records\":2,\"hits\":2}]}"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"records\":4,\"hits\":4,\"late_dropped\":1,"),
              std::string::npos)
        << r.output;
}

TEST_F(ToolsTest, ToolsPrintUsageOnHelp) {
    for (const char* name : {"v6classify", "v6mra", "v6dense", "v6stable",
                             "v6synth", "v6profile", "v6arpa", "v6stream",
                             "v6wire", "v6mkdb"}) {
        const run_result r = run(tool(name) + " --help");
        EXPECT_EQ(r.exit_code, 0) << name;
        EXPECT_NE(r.output.find("usage:"), std::string::npos) << name;
    }
}

TEST_F(ToolsTest, MissingInputFails) {
    const run_result r =
        run(tool("v6classify") + " /nonexistent/file.txt 2>/dev/null");
    EXPECT_NE(r.exit_code, 0);
}

// ------------------------------------------------------------ metrics

TEST_F(ToolsTest, MetricsOutWritesValidJson) {
    const fs::path out = fs::temp_directory_path() / "v6class_tools_m.json";
    fs::remove(out);
    const run_result r = run(
        tool("v6classify") + " --summary --metrics-out=" + out.string() + " " +
        (corpus_ / "routers.txt").string() + " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    const std::string json = slurp(out);
    ASSERT_FALSE(json.empty()) << "no metrics dump at " << out;
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    // The shared read-input phase timer must have fired exactly once.
    EXPECT_NE(json.find("\"v6_tools_read_input_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    fs::remove(out);
}

TEST_F(ToolsTest, StreamMetricsOutPrometheusAgreesWithFinalReport) {
    const fs::path out = fs::temp_directory_path() / "v6class_tools_m.prom";
    fs::remove(out);
    const run_result r = run(
        tool("v6synth") + " --stream --scale=0.02 --first=362 --last=364"
        " 2>/dev/null | " + tool("v6stream") + " --shards=2 --metrics-out=" +
        out.string() + " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    // Pull "records" out of the final JSON line.
    const std::size_t fin = r.output.find("\"type\":\"final\"");
    ASSERT_NE(fin, std::string::npos);
    const std::size_t rec = r.output.find("\"records\":", fin);
    ASSERT_NE(rec, std::string::npos);
    const long long records = std::atoll(r.output.c_str() + rec + 10);
    ASSERT_GT(records, 0);

    const std::string prom = slurp(out);
    EXPECT_NE(prom.find("# TYPE v6_stream_records_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("v6_stream_records_total " + std::to_string(records)),
              std::string::npos);
    EXPECT_NE(prom.find("v6_stream_queue_depth{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("v6_stream_seal_latency_seconds_bucket"),
              std::string::npos);

    // The default /metrics surface, pinned: a series family added or
    // removed anywhere in the pipeline must change this list visibly.
    std::vector<std::string> families;
    std::istringstream lines(prom);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("# TYPE ", 0) == 0)
            families.push_back(line.substr(7, line.find(' ', 7) - 7));
    std::sort(families.begin(), families.end());
    const std::vector<std::string> expected = {
        "v6_par_active_seats",
        "v6_par_pool_utilization",
        "v6_par_pool_workers",
        "v6_par_tasks_total",
        "v6_process_rss_bytes",
        "v6_profile_dropped_samples_total",
        "v6_spatial_density_table_seconds",
        "v6_spatial_mra_seconds",
        "v6_stream_batches_total",
        "v6_stream_distinct_addresses",
        "v6_stream_distinct_projected",
        "v6_stream_dropped_total",
        "v6_stream_epoch_lag_days",
        "v6_stream_fed_total",
        "v6_stream_hits_total",
        "v6_stream_ingest_rate",
        "v6_stream_late_total",
        "v6_stream_malformed_total",
        "v6_stream_open_day",
        "v6_stream_queue_depth",
        "v6_stream_queue_high_water",
        "v6_stream_records_total",
        "v6_stream_report_build_seconds",
        "v6_stream_seal_latency_seconds",
        "v6_stream_sealed_day",
        "v6_stream_seals_total",
        "v6_stream_shard_records_total",
        "v6_temporal_classify_day_seconds",
        "v6_temporal_record_day_seconds",
        "v6_trace_dropped_spans_total",
        "v6class_active_addresses",
        "v6class_day_distinct_48s_estimate",
        "v6class_day_distinct_64s_estimate",
        "v6class_day_distinct_addresses_estimate",
        "v6class_dense_prefixes",
        "v6class_drift_events_total",
        "v6class_gamma16_48",
        "v6class_gamma1_64",
        "v6class_gamma4_60",
        "v6class_hits_p50",
        "v6class_hits_p99",
        "v6class_pmu_available",
        "v6class_simd_level",
        "v6class_stable_fraction",
    };
    EXPECT_EQ(families, expected);
    fs::remove(out);
}

TEST_F(ToolsTest, StreamEventsOutCapturesDriftOnStepFeed) {
    // A feed with a mid-run addressing change: ten steady days of 30
    // active addresses, then 300 — the daemon must raise drift events
    // and --events-out must capture them as valid JSON lines.
    const fs::path feed = fs::temp_directory_path() / "v6class_tools_feed.txt";
    const fs::path out = fs::temp_directory_path() / "v6class_tools_ev.jsonl";
    fs::remove(out);
    {
        std::ofstream f(feed);
        for (int day = 1; day <= 14; ++day) {
            const int actives = day <= 10 ? 30 : 300;
            for (int i = 0; i < actives; ++i)
                f << day << " 2001:db8:" << std::hex << (i >> 8) << "::"
                  << (i & 0xff) << std::dec << "\n";
        }
    }
    const run_result r = run(
        tool("v6stream") + " --shards=2 --n=1 --back=1 --fwd=0 --events-out=" +
        out.string() + " " + feed.string() + " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    // The day roll-ups now carry the derived series.
    EXPECT_NE(r.output.find("\"gamma1\":"), std::string::npos);
    EXPECT_NE(r.output.find("\"stable_fraction\":"), std::string::npos);

    const std::string lines = slurp(out);
    ASSERT_FALSE(lines.empty()) << "no drift events were dumped";
    EXPECT_NE(lines.find("\"kind\":\"drift\""), std::string::npos);
    std::istringstream in(lines);
    std::string line;
    while (std::getline(in, line))
        EXPECT_TRUE(v6::testing::json_checker::valid(line)) << line;
    fs::remove(feed);
    fs::remove(out);
}

TEST_F(ToolsTest, TraceOutWritesChromeTraceJson) {
    const fs::path out = fs::temp_directory_path() / "v6class_tools_trace.json";
    fs::remove(out);
    const run_result r = run(
        tool("v6mra") + " --trace-out=" + out.string() + " " +
        (corpus_ / "routers.txt").string() + " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0);
    const std::string json = slurp(out);
    ASSERT_FALSE(json.empty());
    EXPECT_TRUE(v6::testing::json_checker::valid(json)) << json;
    EXPECT_NE(json.find("\"read_input\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    fs::remove(out);
}

}  // namespace
