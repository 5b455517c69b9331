/**
 * @file
 * Unit tests for the trace-event writer and metrics registry: the
 * emitted file must parse as strictly valid JSON, spans must nest,
 * counter timestamps must be monotonic, and the metrics snapshot must
 * carry counters plus distribution percentiles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_json.hh"

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace fa3c;

using test::JsonParser;
using test::JsonValue;
using test::TempFile;
using test::parseFile;
using test::slurp;

TEST(TraceWriter, EmitsValidJson)
{
    TempFile file("trace_valid.json");
    {
        obs::TraceWriter tw(file.path());
        ASSERT_TRUE(tw.ok());
        const obs::TraceArg args[] = {{"bytes", 4096.0}};
        tw.completeEvent("CU 0", "fw:conv1", 1'000'000, 2'000'000, args);
        tw.counterEvent("dram bytes", 2'000'000, 4096.0);
        tw.hostCompleteEvent("RL worker 0", "routine", 0.0, 12.5);
        const int pid = tw.newProcess("run 2");
        tw.setSimProcess(pid);
        tw.completeEvent("CU 0", "bw:conv1", 0, 500'000);
    }
    const JsonValue doc = parseFile(file.path());
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);
    EXPECT_GT(events.array.size(), 4u);
    for (const JsonValue &e : events.array) {
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("pid"));
    }
    EXPECT_EQ(doc.at("otherData").at("droppedEvents").number, 0.0);
}

TEST(TraceWriter, TracksBecomeNamedThreads)
{
    TempFile file("trace_tracks.json");
    {
        obs::TraceWriter tw(file.path());
        tw.completeEvent("CU-infer 0", "inference", 0, 10);
        tw.completeEvent("CU-train 1", "training", 0, 10);
        tw.completeEvent("DRAM ch0", "xfer", 0, 10);
        tw.hostCompleteEvent("RL worker 0", "routine", 0.0, 1.0);
    }
    const JsonValue doc = parseFile(file.path());
    std::vector<std::string> thread_names;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").str == "M" &&
            e.at("name").str == "thread_name")
            thread_names.push_back(e.at("args").at("name").str);
    }
    ASSERT_EQ(thread_names.size(), 4u);
    EXPECT_EQ(thread_names[0], "CU-infer 0");
    EXPECT_EQ(thread_names[1], "CU-train 1");
    EXPECT_EQ(thread_names[2], "DRAM ch0");
    EXPECT_EQ(thread_names[3], "RL worker 0");
}

TEST(TraceWriter, SpansNestByContainment)
{
    TempFile file("trace_nest.json");
    {
        obs::TraceWriter tw(file.path());
        // Same track: the viewer nests X events by interval
        // containment, so inner must lie inside outer.
        tw.completeEvent("CU 0", "task", 1'000'000, 9'000'000);
        tw.completeEvent("CU 0", "phase", 2'000'000, 5'000'000);
    }
    const JsonValue doc = parseFile(file.path());
    const JsonValue *outer = nullptr;
    const JsonValue *inner = nullptr;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").str != "X")
            continue;
        if (e.at("name").str == "task")
            outer = &e;
        if (e.at("name").str == "phase")
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->at("pid").number, inner->at("pid").number);
    EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
    const double outer_start = outer->at("ts").number;
    const double outer_end = outer_start + outer->at("dur").number;
    const double inner_start = inner->at("ts").number;
    const double inner_end = inner_start + inner->at("dur").number;
    EXPECT_GE(inner_start, outer_start);
    EXPECT_LE(inner_end, outer_end);
}

TEST(TraceWriter, CounterTimestampsMonotonic)
{
    TempFile file("trace_counter.json");
    {
        obs::TraceWriter tw(file.path());
        std::uint64_t total = 0;
        for (sim::Tick t = 0; t < 10; ++t) {
            total += 512;
            tw.counterEvent("dram bytes", t * 1'000'000,
                            static_cast<double>(total));
        }
    }
    const JsonValue doc = parseFile(file.path());
    double last_ts = -1.0;
    double last_value = -1.0;
    int counters = 0;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").str != "C")
            continue;
        ++counters;
        EXPECT_GT(e.at("ts").number, last_ts);
        EXPECT_GT(e.at("args").at("value").number, last_value);
        last_ts = e.at("ts").number;
        last_value = e.at("args").at("value").number;
    }
    EXPECT_EQ(counters, 10);
}

TEST(TraceWriter, EventCapRecordsDrops)
{
    TempFile file("trace_cap.json");
    {
        obs::TraceWriter tw(file.path(), 3);
        // The constructor's two process_name metadata events count
        // toward the cap, so only one counter fits.
        for (int i = 0; i < 10; ++i)
            tw.counterEvent("c", i, i);
        EXPECT_EQ(tw.eventsWritten(), 3u);
        EXPECT_EQ(tw.eventsDropped(), 9u);
    }
    const JsonValue doc = parseFile(file.path());
    EXPECT_EQ(doc.at("traceEvents").array.size(), 3u);
    EXPECT_EQ(doc.at("otherData").at("droppedEvents").number, 9.0);
}

TEST(TraceSpan, NullWriterIsNoop)
{
    obs::TraceSpan span(nullptr, "track", "name"); // must not crash
}

TEST(TraceProcessScope, RestoresSimProcess)
{
    TempFile file("trace_scope.json");
    obs::TraceWriter tw(file.path());
    const int before = tw.simProcess();
    {
        obs::TraceProcessScope scope(&tw, "FA3C x16");
        EXPECT_NE(tw.simProcess(), before);
    }
    EXPECT_EQ(tw.simProcess(), before);
}

TEST(MetricsRegistry, SnapshotCarriesCountersAndPercentiles)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.count("fa3c.dram", "ch0.bytes", 65536);
    for (int i = 1; i <= 100; ++i)
        reg.sample("fa3c.cu", "phase.fw.cycles", static_cast<double>(i));
    const JsonValue doc = JsonParser(reg.snapshotJson()).parse();
    EXPECT_EQ(doc.at("schema").str, "fa3c.metrics.v1");
    const JsonValue &dram = doc.at("groups").at("fa3c.dram");
    EXPECT_EQ(dram.at("counters").at("ch0.bytes").number, 65536.0);
    const JsonValue &dist = doc.at("groups")
                                .at("fa3c.cu")
                                .at("distributions")
                                .at("phase.fw.cycles");
    EXPECT_EQ(dist.at("count").number, 100.0);
    EXPECT_NEAR(dist.at("p50").number, 50.0, 5.0);
    EXPECT_NEAR(dist.at("p95").number, 95.0, 7.0);
    EXPECT_NEAR(dist.at("p99").number, 99.0, 7.0);
    EXPECT_EQ(dist.at("min").number, 1.0);
    EXPECT_EQ(dist.at("max").number, 100.0);
}

TEST(MetricsRegistry, DisabledCallsAreNoops)
{
    obs::MetricsRegistry reg;
    reg.count("g", "c", 5);
    reg.sample("g", "d", 1.0);
    EXPECT_EQ(reg.groupCount(), 0u);
}

TEST(MetricsRegistry, ScopedGroupRetainsFinalSnapshot)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    {
        sim::StatGroup group;
        group.counter("dram.ch0.bytes").inc(1234);
        obs::ScopedMetricsGroup scoped(reg, "FA3C x16.board", &group);
        group.counter("dram.ch0.bytes").inc(1);
    }
    // The live group is gone; its final values must survive export.
    const JsonValue doc = JsonParser(reg.snapshotJson()).parse();
    const JsonValue &groups = doc.at("groups");
    ASSERT_TRUE(groups.has("FA3C x16.board@0"));
    EXPECT_EQ(groups.at("FA3C x16.board@0")
                  .at("counters")
                  .at("dram.ch0.bytes")
                  .number,
              1235.0);
}

TEST(MetricsRegistry, WriteToProducesValidJsonFile)
{
    TempFile file("metrics_out.json");
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.count("g", "c", 7);
    ASSERT_TRUE(reg.writeTo(file.path()));
    const JsonValue doc = parseFile(file.path());
    EXPECT_EQ(doc.at("groups").at("g").at("counters").at("c").number,
              7.0);
}

TEST(MetricsRegistry, WriteToCreatesMissingParentDirs)
{
    const std::string dir =
        ::testing::TempDir() + "obs_guard/missing/nested";
    const std::string path = dir + "/metrics.json";
    std::filesystem::remove_all(::testing::TempDir() + "obs_guard");
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.count("g", "c", 3);
    ASSERT_TRUE(reg.writeTo(path));
    const JsonValue doc = parseFile(path);
    EXPECT_EQ(doc.at("groups").at("g").at("counters").at("c").number,
              3.0);
    std::filesystem::remove_all(::testing::TempDir() + "obs_guard");
}

TEST(MetricsRegistry, FlushBestEffortWritesExportPath)
{
    TempFile file("metrics_flush.json");
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.setExportPath(file.path());
    reg.count("g", "c", 11);
    ASSERT_TRUE(reg.flushBestEffort());
    const JsonValue doc = parseFile(file.path());
    EXPECT_EQ(doc.at("groups").at("g").at("counters").at("c").number,
              11.0);
}

TEST(MetricsRegistry, ConcurrentWritersNeverPublishATornDocument)
{
    // The periodic flusher (writeTo) and the signal path
    // (flushBestEffort) export one path through one temp file; while
    // both run flat out, every read of the published file must parse.
    TempFile file("metrics_race.json");
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.setExportPath(file.path());
    for (int i = 0; i < 64; ++i)
        reg.count("race", std::to_string(i), 1);
    ASSERT_TRUE(reg.writeTo(file.path()));

    std::atomic<bool> stop{false};
    std::atomic<int> write_failures{0};
    std::thread flusher([&] {
        while (!stop.load())
            if (!reg.writeTo(file.path()))
                write_failures.fetch_add(1);
    });
    std::thread signal_path([&] {
        while (!stop.load())
            reg.flushBestEffort();
    });
    int reads = 0;
    int torn = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (std::chrono::steady_clock::now() < deadline) {
        ++reads;
        try {
            (void)JsonParser(slurp(file.path())).parse();
        } catch (const std::exception &) {
            ++torn;
        }
    }
    stop.store(true);
    flusher.join();
    signal_path.join();
    std::remove((file.path() + ".tmp").c_str());
    EXPECT_EQ(torn, 0) << "of " << reads << " reads";
    EXPECT_EQ(write_failures.load(), 0);
}

TEST(TraceWriter, CreatesMissingParentDirs)
{
    const std::string path = ::testing::TempDir() +
                             "obs_guard_trace/deep/trace.json";
    std::filesystem::remove_all(::testing::TempDir() +
                                "obs_guard_trace");
    {
        obs::TraceWriter tw(path);
        ASSERT_TRUE(tw.ok());
        tw.completeEvent("CU 0", "fw", 0, 1'000'000);
    }
    const JsonValue doc = parseFile(path);
    EXPECT_EQ(doc.at("traceEvents").kind, JsonValue::Kind::Array);
    std::filesystem::remove_all(::testing::TempDir() +
                                "obs_guard_trace");
}

TEST(TraceWriter, CloseBestEffortFinalizesJson)
{
    // The signal-flush path must leave a parseable file even though
    // the writer has not been destroyed yet (a killed process never
    // runs the destructor).
    TempFile file("trace_close.json");
    obs::TraceWriter tw(file.path());
    ASSERT_TRUE(tw.ok());
    tw.completeEvent("CU 0", "fw", 0, 1'000'000);
    tw.closeBestEffort();
    const JsonValue doc = parseFile(file.path());
    EXPECT_EQ(doc.at("otherData").at("droppedEvents").number, 0.0);
    // Post-close events are dropped silently, not corrupted.
    tw.completeEvent("CU 0", "late", 0, 1'000'000);
    EXPECT_NO_THROW(parseFile(file.path()));
}

TEST(JsonHelpers, EscapeAndNumbers)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(obs::jsonNumber(2.5), "2.5");
    // Non-finite values must degrade to a valid token.
    const std::string inf = obs::jsonNumber(
        std::numeric_limits<double>::infinity());
    EXPECT_NO_THROW(JsonParser(inf).parse());
}
