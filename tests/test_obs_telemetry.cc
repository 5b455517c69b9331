/**
 * @file
 * Live telemetry plane tests: Prometheus exposition correctness
 * (histogram bucket monotonicity, family uniqueness), rolling-window
 * SLO arithmetic under an injected clock, the embedded HTTP endpoint
 * (/metrics, /healthz, /readyz against a real PolicyServer), and
 * span parent/child linkage through queue -> batch -> infer in the
 * sampled trace.
 *
 * A custom main() configures FA3C_TELEMETRY_PORT=0 (ephemeral),
 * FA3C_TRACE, and FA3C_TRACE_SAMPLE=1 before any lazy global
 * initializer runs, so the whole binary exercises the telemetry
 * plane the way a production process would. The span-linkage test
 * finalizes the global trace, so it must stay the last test in this
 * file (gtest runs suites in registration order).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_json.hh"

#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/slo.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "sim/stats.hh"

using namespace fa3c;
using namespace std::chrono_literals;
using test::JsonValue;

namespace {

std::string g_trace_path;

struct HttpResponse
{
    int status = 0;
    std::string body;
};

/** Minimal blocking HTTP GET against the loopback telemetry port. */
HttpResponse
httpGet(int port, const std::string &path)
{
    HttpResponse r;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return r;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return r;
    }
    const std::string req =
        "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
    std::string raw;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        raw.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    std::sscanf(raw.c_str(), "HTTP/1.1 %d", &r.status);
    if (const auto sep = raw.find("\r\n\r\n"); sep != std::string::npos)
        r.body = raw.substr(sep + 4);
    return r;
}

/** Parsed view of one exposition document. */
struct Exposition
{
    std::map<std::string, std::string> familyType;
    /** family -> ordered (le, cumulative count). */
    std::map<std::string, std::vector<std::pair<double, double>>>
        buckets;
    std::map<std::string, double> values; ///< non-bucket samples
};

/** Strict line-by-line exposition parse; fails the test on garbage. */
void
parseExposition(const std::string &body, Exposition &e)
{
    std::istringstream is(body);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream meta(line);
            std::string hash, kind, family, type;
            meta >> hash >> kind >> family >> type;
            if (kind == "TYPE") {
                EXPECT_EQ(e.familyType.count(family), 0u)
                    << "duplicate TYPE for " << family;
                e.familyType[family] = type;
            }
            continue;
        }
        const auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << "bad line: " << line;
        const std::string name = line.substr(0, sp);
        const std::string value_text = line.substr(sp + 1);
        const double value =
            value_text == "+Inf"
                ? std::numeric_limits<double>::infinity()
                : std::strtod(value_text.c_str(), nullptr);
        // Family charset must be Prometheus-legal.
        for (char c : name.substr(0, name.find('{')))
            ASSERT_TRUE((c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':')
                << "illegal char '" << c << "' in " << name;
        const auto brace = name.find("_bucket{le=\"");
        if (brace != std::string::npos) {
            const std::string family = name.substr(0, brace);
            const std::string le_text = name.substr(brace + 12);
            const double le =
                le_text.compare(0, 4, "+Inf") == 0
                    ? std::numeric_limits<double>::infinity()
                    : std::strtod(le_text.c_str(), nullptr);
            e.buckets[family].emplace_back(le, value);
        } else {
            e.values[name] = value;
        }
    }
}

/** Histograms must be cumulative and monotone with agreeing counts. */
void
checkHistograms(const Exposition &e)
{
    for (const auto &[family, buckets] : e.buckets) {
        double last_le = -std::numeric_limits<double>::infinity();
        double last_count = 0.0;
        for (const auto &[le, count] : buckets) {
            EXPECT_GT(le, last_le) << family << " le ordering";
            EXPECT_GE(count, last_count)
                << family << " bucket counts must be cumulative";
            last_le = le;
            last_count = count;
        }
        ASSERT_FALSE(buckets.empty()) << family;
        EXPECT_TRUE(std::isinf(buckets.back().first))
            << family << " must end with the +Inf bucket";
        const auto count_it = e.values.find(family + "_count");
        ASSERT_NE(count_it, e.values.end()) << family << "_count";
        EXPECT_EQ(count_it->second, buckets.back().second)
            << family << " +Inf bucket must equal _count";
        EXPECT_TRUE(e.values.count(family + "_sum"))
            << family << "_sum";
        const auto type_it = e.familyType.find(family);
        ASSERT_NE(type_it, e.familyType.end()) << family;
        EXPECT_EQ(type_it->second, "histogram") << family;
    }
}

} // namespace

TEST(PromWriter, SanitizesNames)
{
    EXPECT_EQ(obs::promSanitize("serve.total_us"), "serve_total_us");
    EXPECT_EQ(obs::promSanitize("rl.a3c@0"), "rl_a3c_0");
    EXPECT_EQ(obs::promSanitize("9lives"), "_9lives");
    EXPECT_EQ(obs::promSanitize(""), "_");
}

TEST(PromWriter, HistogramBucketsAreCumulativeAndMonotone)
{
    sim::Distribution d;
    for (int i = 1; i <= 1000; ++i)
        d.sample(static_cast<double>(i));
    std::ostringstream os;
    obs::PromWriter w(os);
    w.histogram("lat.us", d, "latency");
    w.counter("served", 1000);
    w.gauge("burn", 0.25);

    Exposition e;
    parseExposition(os.str(), e);
    checkHistograms(e);

    ASSERT_TRUE(e.buckets.count("lat_us"));
    EXPECT_GT(e.buckets.at("lat_us").size(), 10u)
        << "1..1000 must spread across many log buckets";
    EXPECT_EQ(e.values.at("lat_us_count"), 1000.0);
    EXPECT_EQ(e.values.at("lat_us_sum"), 500500.0);
    EXPECT_EQ(e.familyType.at("served"), "counter");
    EXPECT_EQ(e.familyType.at("burn"), "gauge");
    EXPECT_EQ(e.values.at("burn"), 0.25);
}

TEST(SloMonitor, WindowArithmeticUnderInjectedClock)
{
    obs::SloMonitor::Config cfg;
    cfg.windowSec = 10.0;
    cfg.missBudget = 0.1;
    cfg.slices = 10;
    obs::SloMonitor slo(cfg);

    auto now = std::chrono::steady_clock::now();
    slo.setClock([&now] { return now; });

    for (int i = 0; i < 90; ++i)
        slo.recordServed(100.0, /*deadlineMiss=*/false);
    for (int i = 0; i < 10; ++i)
        slo.recordServed(10000.0, /*deadlineMiss=*/true);
    slo.recordRejected();

    auto snap = slo.snapshot();
    EXPECT_EQ(snap.served, 100u);
    EXPECT_EQ(snap.missed, 10u);
    EXPECT_EQ(snap.rejected, 1u);
    EXPECT_DOUBLE_EQ(snap.missRatio, 0.1);
    EXPECT_NEAR(snap.burn, 1.0, 1e-9);
    EXPECT_GT(snap.p99Us, snap.p50Us);

    // Ten timeouts push the miss count to 20/110: burn over budget.
    for (int i = 0; i < 10; ++i)
        slo.recordTimedOut();
    snap = slo.snapshot();
    EXPECT_EQ(snap.timedOut, 10u);
    EXPECT_GT(snap.burn, 1.0);

    // March time one full window forward: everything expires.
    now += 11s;
    snap = slo.snapshot();
    EXPECT_EQ(snap.served, 0u);
    EXPECT_EQ(snap.missed, 0u);
    EXPECT_DOUBLE_EQ(snap.burn, 0.0);

    // Fresh traffic after the gap lands in a fresh window.
    slo.recordServed(50.0, false);
    snap = slo.snapshot();
    EXPECT_EQ(snap.served, 1u);
    EXPECT_DOUBLE_EQ(snap.missRatio, 0.0);
}

TEST(SloMonitor, ConfigFromEnvOverridesDefaults)
{
    ::setenv("FA3C_SLO_WINDOW_SEC", "30", 1);
    ::setenv("FA3C_SLO_MISS_BUDGET", "0.05", 1);
    const auto cfg = obs::SloMonitor::configFromEnv();
    EXPECT_DOUBLE_EQ(cfg.windowSec, 30.0);
    EXPECT_DOUBLE_EQ(cfg.missBudget, 0.05);
    ::unsetenv("FA3C_SLO_WINDOW_SEC");
    ::unsetenv("FA3C_SLO_MISS_BUDGET");
    const auto defaults = obs::SloMonitor::configFromEnv();
    EXPECT_DOUBLE_EQ(defaults.windowSec, 60.0);
    EXPECT_DOUBLE_EQ(defaults.missBudget, 0.01);
}

TEST(DistributionMerge, MatchesSampleUnion)
{
    sim::Distribution a, b, all;
    for (int i = 1; i <= 500; ++i) {
        a.sample(static_cast<double>(i));
        all.sample(static_cast<double>(i));
    }
    for (int i = 501; i <= 1000; ++i) {
        b.sample(static_cast<double>(i));
        all.sample(static_cast<double>(i));
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.sum(), all.sum());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    EXPECT_NEAR(a.stddev(), all.stddev(), 1e-6);
    EXPECT_DOUBLE_EQ(a.percentile(50.0), all.percentile(50.0));
    EXPECT_DOUBLE_EQ(a.percentile(99.0), all.percentile(99.0));
    EXPECT_EQ(a.nonEmptyBuckets().size(),
              all.nonEmptyBuckets().size());

    sim::Distribution empty;
    empty.merge(a);
    EXPECT_EQ(empty.count(), a.count());
    EXPECT_DOUBLE_EQ(empty.percentile(95.0), a.percentile(95.0));
    a.merge(sim::Distribution{});
    EXPECT_EQ(a.count(), all.count());
}

TEST(TelemetryHttp, HealthzAlwaysOkAndUnknownPathIs404)
{
    obs::TelemetryServer *srv = obs::telemetry();
    ASSERT_NE(srv, nullptr) << "FA3C_TELEMETRY_PORT not honored";
    ASSERT_TRUE(srv->ok());
    ASSERT_GT(srv->port(), 0);
    const auto r = httpGet(srv->port(), "/healthz");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "ok\n");

    EXPECT_EQ(httpGet(srv->port(), "/nope").status, 404);
    EXPECT_EQ(httpGet(srv->port(), "/profilez").status, 404);
}

TEST(TelemetryHttp, ReadyzTracksServerLifecycle)
{
    obs::TelemetryServer *srv = obs::telemetry();
    ASSERT_NE(srv, nullptr);

    // Nothing registered yet: not ready.
    EXPECT_EQ(httpGet(srv->port(), "/readyz").status, 503);

    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);
    serve::ServeConfig cfg;
    cfg.workers = 1;
    {
        serve::PolicyServer server(net, cfg);
        // Registered, but no model published and not started.
        auto r = httpGet(srv->port(), "/readyz");
        EXPECT_EQ(r.status, 503);
        EXPECT_NE(r.body.find("serve"), std::string::npos) << r.body;

        server.publish(net.makeParams());
        server.start();
        r = httpGet(srv->port(), "/readyz");
        EXPECT_EQ(r.status, 200) << r.body;
        EXPECT_NE(r.body.find("model_version=1"), std::string::npos)
            << r.body;

        server.stop();
        EXPECT_EQ(httpGet(srv->port(), "/readyz").status, 503);
    }
    // Server destroyed: its probe must be gone again.
    EXPECT_EQ(httpGet(srv->port(), "/readyz").status, 503);
}

TEST(TelemetryHttp, MetricsExposesServeHistogramsAndSlo)
{
    obs::TelemetryServer *srv = obs::telemetry();
    ASSERT_NE(srv, nullptr);

    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);
    serve::ServeConfig cfg;
    cfg.batch.maxBatch = 4;
    cfg.workers = 1;
    serve::PolicyServer server(net, cfg);
    server.publish(net.makeParams());
    server.start();

    tensor::Tensor obs_t(tensor::Shape(
        {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));
    for (std::size_t i = 0; i < obs_t.numel(); ++i)
        obs_t.data()[i] = static_cast<float>(i % 31) / 31.0f;
    for (int i = 0; i < 32; ++i) {
        const auto resp = server.submitAndWait(obs_t);
        ASSERT_EQ(resp.status, serve::Status::Ok);
    }

    const auto r = httpGet(srv->port(), "/metrics");
    ASSERT_EQ(r.status, 200);

    Exposition e;
    parseExposition(r.body, e);
    checkHistograms(e);

    ASSERT_TRUE(e.buckets.count("serve_total_us"))
        << r.body.substr(0, 2000);
    EXPECT_GE(e.values.at("serve_total_us_count"), 32.0);
    ASSERT_TRUE(e.values.count("slo_burn"));
    EXPECT_DOUBLE_EQ(e.values.at("slo_burn"), 0.0)
        << "no deadlines were set, burn must be zero";
    EXPECT_EQ(e.familyType.at("slo_burn"), "gauge");
    EXPECT_DOUBLE_EQ(e.values.at("serve_model_version"), 1.0);
    EXPECT_GE(e.values.at("slo_window_served"), 32.0);
    EXPECT_GT(e.values.at("slo_window_p50_us"), 0.0);
    EXPECT_TRUE(e.values.count("serve_queue_depth"));
    EXPECT_DOUBLE_EQ(e.values.at("serve_workers"), 1.0);
    EXPECT_GE(e.values.at("serve_admitted"), 32.0);
}

// Finalizes the global trace writer; keep this the LAST test.
TEST(SpanTracing, RequestChainIsConnectedAcrossPipeline)
{
    ASSERT_NE(obs::trace(), nullptr)
        << "FA3C_TRACE not honored by the test main";
    ASSERT_DOUBLE_EQ(obs::spanSampleRate(), 1.0);

    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);
    serve::ServeConfig cfg;
    cfg.batch.maxBatch = 8;
    cfg.workers = 1;
    {
        serve::PolicyServer server(net, cfg);
        server.publish(net.makeParams());
        server.start();
        tensor::Tensor obs_t(tensor::Shape(
            {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));
        // Concurrent submits so at least some batches have size > 1.
        std::vector<std::future<serve::Response>> futures;
        futures.reserve(16);
        for (int i = 0; i < 16; ++i)
            futures.push_back(server.submit(obs_t));
        for (auto &f : futures)
            ASSERT_EQ(f.get().status, serve::Status::Ok);
    }

    obs::trace()->flush();
    obs::trace()->closeBestEffort();

    const JsonValue doc = test::parseFile(g_trace_path);
    struct Span
    {
        std::string name;
        double trace = 0, span = 0, parent = 0;
    };
    std::map<double, Span> by_id;
    int batch_exec = 0;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (!ev.has("cat") || ev.at("cat").str != "span")
            continue;
        Span s;
        s.name = ev.at("name").str;
        s.trace = ev.at("args").at("trace_id").number;
        s.span = ev.at("args").at("span_id").number;
        s.parent = ev.at("args").at("parent_id").number;
        by_id[s.span] = s;
        if (s.name == "batch.exec") {
            ++batch_exec;
            EXPECT_TRUE(ev.at("args").has("batch_size"));
            EXPECT_TRUE(ev.at("args").has("member_0"));
        }
    }
    ASSERT_FALSE(by_id.empty()) << "no spans were sampled";
    EXPECT_GT(batch_exec, 0);

    // Every infer span must walk infer -> batch -> queue -> request
    // within one trace id, ending at a root.
    int chains = 0;
    for (const auto &[id, s] : by_id) {
        if (s.name != "infer")
            continue;
        const auto batch_it = by_id.find(s.parent);
        ASSERT_NE(batch_it, by_id.end()) << "infer without parent";
        EXPECT_EQ(batch_it->second.name, "batch");
        EXPECT_EQ(batch_it->second.trace, s.trace);
        const auto queue_it = by_id.find(batch_it->second.parent);
        ASSERT_NE(queue_it, by_id.end()) << "batch without parent";
        EXPECT_EQ(queue_it->second.name, "queue");
        EXPECT_EQ(queue_it->second.trace, s.trace);
        const auto req_it = by_id.find(queue_it->second.parent);
        ASSERT_NE(req_it, by_id.end()) << "queue without parent";
        EXPECT_EQ(req_it->second.name, "request");
        EXPECT_EQ(req_it->second.trace, s.trace);
        EXPECT_EQ(req_it->second.parent, 0.0)
            << "in-process submit: request span must be the root";
        ++chains;
    }
    // Earlier HTTP tests also pushed sampled traffic through their
    // own servers; every one of those requests must chain too, so the
    // floor is this test's 16 submits.
    EXPECT_GE(chains, 16);
}

int
main(int argc, char **argv)
{
    // Configure the lazily-created globals before anything touches
    // them: ephemeral telemetry port, a trace file, full sampling.
    g_trace_path = "/tmp/fa3c_test_telemetry_trace_" +
                   std::to_string(::getpid()) + ".json";
    ::setenv("FA3C_TELEMETRY_PORT", "0", 1);
    ::setenv("FA3C_TRACE", g_trace_path.c_str(), 1);
    ::setenv("FA3C_TRACE_SAMPLE", "1", 1);
    ::testing::InitGoogleTest(&argc, argv);
    const int rc = RUN_ALL_TESTS();
    std::remove(g_trace_path.c_str());
    return rc;
}
