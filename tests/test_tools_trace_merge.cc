/**
 * @file
 * Offline fleet-trace merging: two TraceWriter files that share one
 * distributed trace_id (a worker span and the PS span it propagated
 * to) are aligned via their footer clock metadata, merged onto one
 * timeline with remapped Chrome pids, and the cross-process check
 * reports the shared trace — the same gate CI runs on real fleet
 * traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/trace.hh"
#include "trace_merge/trace_merge.hh"

using namespace fa3c;

namespace {

struct TempFile
{
    std::string path;
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
};

/** Write one trace file with a span event carrying @p trace_id. */
void
writeTraceWithSpan(const std::string &path, const std::string &label,
                   double clock_offset_us, double trace_id)
{
    obs::TraceWriter writer(path, 1000);
    ASSERT_TRUE(writer.ok());
    writer.setProcessLabel(label);
    writer.setClockOffsetUs(clock_offset_us);
    const obs::TraceArg args[] = {{"trace_id", trace_id},
                                  {"span_id", trace_id + 1},
                                  {"parent_id", 0.0}};
    writer.hostCompleteEvent("net", label + ".op", 10.0, 50.0, args,
                             "span");
    // Destructor writes the footer (pid, start stamp, offset, label).
}

} // namespace

TEST(TraceMerge, AlignsAndDetectsCrossProcessTraces)
{
    const double shared_trace = 123456789.0;
    TempFile file_a("trace_merge_test_a.json");
    TempFile file_b("trace_merge_test_b.json");
    writeTraceWithSpan(file_a.path, "w0", 0.0, shared_trace);
    // Second "host" whose wall clock runs 2.5 ms ahead of the PS.
    writeTraceWithSpan(file_b.path, "ps", 2500.0, shared_trace);

    std::vector<tools::TraceFile> files;
    files.push_back(tools::loadTraceFile(file_a.path));
    files.push_back(tools::loadTraceFile(file_b.path));
    EXPECT_EQ(files[0].processLabel, "w0");
    EXPECT_EQ(files[1].processLabel, "ps");
    EXPECT_DOUBLE_EQ(files[1].clockOffsetUs, 2500.0);
    EXPECT_GT(files[0].traceStartUnixUs, 0.0);

    std::ostringstream merged;
    const auto report = tools::mergeTraces(files, merged);

    EXPECT_EQ(report.files, 2u);
    EXPECT_EQ(report.spanEvents, 2u);

    // The propagation gate: one trace id seen in both files.
    ASSERT_EQ(report.traceFiles.size(), 1u);
    EXPECT_EQ(report.traceFiles.begin()->first,
              static_cast<std::uint64_t>(shared_trace));
    EXPECT_EQ(report.traceFiles.begin()->second.size(), 2u);
    EXPECT_EQ(report.crossProcessTraces(2), 1u);
    EXPECT_EQ(report.crossProcessTraces(3), 0u);

    // The merged document is itself valid JSON with both files'
    // events, pids remapped into disjoint bands, and process names
    // prefixed by the originating label.
    const obs::Json doc = obs::parseJson(merged.str());
    const auto &events = doc.at("traceEvents").array;
    EXPECT_GE(events.size(), 4u); // 2 spans + process metadata

    bool saw_w0 = false;
    bool saw_ps = false;
    double w0_ts = -1.0;
    double ps_ts = -1.0;
    for (const auto &event : events) {
        if (event.stringOr("ph", "") == "M") {
            if (!event.at("args").stringOr("name", "").compare(
                    0, 3, "w0/"))
                saw_w0 = true;
            if (!event.at("args").stringOr("name", "").compare(
                    0, 3, "ps/"))
                saw_ps = true;
            continue;
        }
        if (event.stringOr("cat", "") != "span")
            continue;
        const double pid = event.numberOr("pid", -1.0);
        if (pid < 100.0)
            w0_ts = event.numberOr("ts", -1.0);
        else
            ps_ts = event.numberOr("ts", -1.0);
    }
    EXPECT_TRUE(saw_w0);
    EXPECT_TRUE(saw_ps);
    ASSERT_GE(w0_ts, 0.0);
    ASSERT_GE(ps_ts, 0.0);

    // Both span events started at local ts=10 us. On the merged
    // timeline they differ by the difference of the files' anchors
    // (start stamps corrected by the clock offsets) — in particular
    // the 2.5 ms bogus clock skew of "ps" must have been removed
    // rather than passed through, so the two timestamps sit within
    // the few ms the two writers were created apart.
    EXPECT_LT(std::abs(w0_ts - ps_ts), 1'000'000.0);

    const double anchor_gap =
        (files[1].traceStartUnixUs - files[1].clockOffsetUs) -
        (files[0].traceStartUnixUs - files[0].clockOffsetUs);
    EXPECT_NEAR(std::abs(w0_ts - ps_ts), std::abs(anchor_gap), 1e-6);
}

TEST(TraceMerge, RejectsNonTraceInput)
{
    TempFile junk("trace_merge_test_junk.json");
    {
        std::ofstream out(junk.path);
        out << "{\"notATrace\":true}";
    }
    EXPECT_THROW((void)tools::loadTraceFile(junk.path),
                 std::runtime_error);
    EXPECT_THROW((void)tools::loadTraceFile("does_not_exist.json"),
                 std::runtime_error);
}
