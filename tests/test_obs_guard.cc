/**
 * @file
 * Export-guard and trace-cap tests.
 *
 * The subprocess test re-executes this binary with --guard-child: the
 * child enables metrics (FA3C_METRICS_JSON + FA3C_METRICS_FLUSH_SEC)
 * and tracing (FA3C_TRACE), then records heartbeats forever. The
 * parent waits for the background flusher to land a first snapshot,
 * SIGTERMs the child mid-run, and asserts that the signal path left
 * behind a valid metrics JSON with the expected group and a finalized
 * (parseable, footer included) trace file — the exact artifacts the
 * guard exists to save from an interrupted serve process.
 *
 * A second test drives TraceWriter directly against a small event
 * cap: past the cap events are dropped and counted, but the file must
 * still close as valid JSON.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_json.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace fa3c;
using namespace std::chrono_literals;
using test::JsonParser;
using test::JsonValue;
using test::TempFile;
using test::slurp;

namespace {

const char *g_argv0 = nullptr;

/** Child mode: instrument forever until a signal kills the process. */
[[noreturn]] void
guardChildMain()
{
    obs::MetricsRegistry &m = obs::metrics(); // configures from env
    (void)obs::trace();
    while (true) {
        m.count("guard", "heartbeat");
        m.sample("guard", "work_us", 42.0);
        obs::TraceSpan span("guard", "beat");
        std::this_thread::sleep_for(1ms);
    }
}

/** Parse @p path if it exists and is complete JSON; Null otherwise. */
JsonValue
tryParseFile(const std::string &path)
{
    const std::string text = slurp(path);
    if (text.empty())
        return JsonValue{};
    try {
        return JsonParser(text).parse();
    } catch (const std::exception &) {
        return JsonValue{};
    }
}

} // namespace

TEST(ExportGuard, SigtermFlushesMetricsAndFinalizesTrace)
{
    const std::string tag = std::to_string(::getpid());
    const std::string metrics_path =
        ::testing::TempDir() + "guard_metrics_" + tag + ".json";
    const std::string trace_path =
        ::testing::TempDir() + "guard_trace_" + tag + ".json";
    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());

    // Build the child environment before fork so the child only execs.
    const std::string env_metrics = "FA3C_METRICS_JSON=" + metrics_path;
    const std::string env_trace = "FA3C_TRACE=" + trace_path;
    std::vector<char *> envp;
    std::string env_path;
    if (const char *path = std::getenv("PATH")) {
        env_path = std::string("PATH=") + path;
        envp.push_back(env_path.data());
    }
    std::string env_flush = "FA3C_METRICS_FLUSH_SEC=0.05";
    envp.push_back(const_cast<char *>(env_metrics.c_str()));
    envp.push_back(const_cast<char *>(env_trace.c_str()));
    envp.push_back(env_flush.data());
    envp.push_back(nullptr);
    char *const argv[] = {const_cast<char *>(g_argv0),
                          const_cast<char *>("--guard-child"), nullptr};

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        ::execve(g_argv0, argv, envp.data());
        ::_exit(127);
    }

    // Wait for the background flusher to land a first full snapshot
    // with at least one heartbeat: proof the child is mid-run.
    bool snapshot_seen = false;
    for (int i = 0; i < 200 && !snapshot_seen; ++i) {
        const JsonValue doc = tryParseFile(metrics_path);
        if (doc.kind == JsonValue::Kind::Object && doc.has("groups") &&
            doc.at("groups").has("guard"))
            snapshot_seen = true;
        else
            std::this_thread::sleep_for(50ms);
    }
    ASSERT_TRUE(snapshot_seen)
        << "periodic flusher never wrote " << metrics_path;

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status))
        << "guard must chain to the default disposition so the "
           "process still dies by signal";
    if (WIFSIGNALED(status)) {
        EXPECT_EQ(WTERMSIG(status), SIGTERM);
    }

    // The metrics export must be complete JSON with the child's data.
    const JsonValue doc = test::parseFile(metrics_path);
    EXPECT_EQ(doc.at("schema").str, "fa3c.metrics.v1");
    const JsonValue &guard = doc.at("groups").at("guard");
    EXPECT_GE(guard.at("counters").at("heartbeat").number, 1.0);
    EXPECT_GE(
        guard.at("distributions").at("work_us").at("count").number,
        1.0);

    // The trace must have been finalized by the signal handler: the
    // strict parser rejects a truncated file with no footer.
    const JsonValue trace_doc = test::parseFile(trace_path);
    EXPECT_FALSE(trace_doc.at("traceEvents").array.empty());
    EXPECT_TRUE(trace_doc.at("otherData").has("droppedEvents"));

    std::remove(metrics_path.c_str());
    std::remove((metrics_path + ".tmp").c_str());
    std::remove(trace_path.c_str());
}

TEST(TraceWriterCap, EventCapStillHonored)
{
    TempFile file("trace_evcap_" + std::to_string(::getpid()) +
                  ".json");
    std::uint64_t dropped = 0;
    {
        obs::TraceWriter w(file.path(), /*max_events=*/10);
        for (int i = 0; i < 100; ++i)
            w.hostCompleteEvent("cap", "event", i * 10.0,
                                i * 10.0 + 5.0);
        // Metadata events (2 process names + 1 thread name) count
        // toward the cap, so 7 of the 100 "X" events fit.
        EXPECT_EQ(w.eventsWritten(), 10u);
        dropped = w.eventsDropped();
        EXPECT_EQ(dropped, 93u);
    }
    const JsonValue doc = test::parseFile(file.path());
    EXPECT_EQ(doc.at("otherData").at("droppedEvents").number,
              static_cast<double>(dropped));
    EXPECT_EQ(doc.at("traceEvents").array.size(), 10u);
}

int
main(int argc, char **argv)
{
    g_argv0 = argv[0];
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--guard-child") == 0)
            guardChildMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
