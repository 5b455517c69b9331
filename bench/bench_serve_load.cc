/**
 * @file
 * Load generator for the policy-serving subsystem (src/serve/):
 *
 *   1. Closed-loop saturation: N blocking clients hammer the server
 *      and we compare dynamic batching (max batch 16; a free worker
 *      runs whatever is queued at once, so batches fill only from
 *      requests that arrive while it is busy) against
 *      single-request-per-forward dispatch (max batch 1) — the
 *      batching win the paper's dedicated-inference-unit design
 *      banks on.
 *   2. Open-loop sweep: evenly paced arrivals at fractions of the
 *      measured peak, reporting p50/p95/p99 latency and the
 *      reject/timeout rate as the offered load crosses capacity (the
 *      admission controller's job). Two more rows offer fixed
 *      fractions of the single-request IPS, which batch formation
 *      cannot move, so they compare two builds at the same offered
 *      load even when their peaks differ.
 *   3. Hot-swap under load: a publisher thread swaps model versions
 *      mid-stream; served requests must not fail or slow down
 *      catastrophically.
 *
 *   4. Trace-sampling overhead: closed-loop throughput with span
 *      sampling off vs FA3C_TRACE_SAMPLE=0.01, quantifying what 1%
 *      request tracing costs (target: < 2% IPS delta). The two arms
 *      run interleaved (A B A B ...) with best-of-N per arm so
 *      machine-state drift cannot sign-flip the comparison.
 *
 *   5. Replica fleet: N PolicyServers behind the ReplicaRouter —
 *      closed-loop aggregate scaling vs one replica, an open-loop
 *      sweep past saturation where fleet-wide shedding must hold
 *      served IPS flat (>= 0.9x peak at 1.2x offered), and a
 *      coordinated hot-swap under load with zero failed requests.
 *
 * Wall-clock per measurement phase is FA3C_SERVE_MS (default 800 ms;
 * CI smoke uses a smaller value). Results land in
 * $FA3C_JSON_DIR/BENCH_serve.json. With FA3C_TELEMETRY_PORT set the
 * whole run is scrapable: each live PolicyServer exports slo_burn /
 * serve_model_version itself, and a bench-lifetime collector keeps
 * bench_phase plus the last phase's values visible between phases so
 * a CI curl never races an idle gap.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "obs/prometheus.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "sim/perf_counters.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

using namespace fa3c;
using namespace std::chrono_literals;

namespace {

using Clock = serve::Clock;

// Scrape-visible bench state. While a PolicyServer is live it exports
// slo_burn / serve_model_version itself; between phases the bench
// collector re-publishes the last phase's values under the same names
// (guarded by g_serverLive so the exposition never carries duplicate
// samples).
std::atomic<int> g_benchPhase{0};
std::atomic<bool> g_serverLive{false};
std::atomic<double> g_lastSloBurn{0.0};
std::atomic<double> g_lastModelVersion{0.0};

/** Declared before the PolicyServer so the flag flips false only
 * after the server (and its collector) is gone. */
struct ServerLiveGuard
{
    ServerLiveGuard() { g_serverLive.store(true); }
    ~ServerLiveGuard() { g_serverLive.store(false); }
};

struct LoadResult
{
    double ips = 0.0;        ///< served Ok responses per second
    double offeredIps = 0.0; ///< submissions per second
    double p50 = 0.0, p95 = 0.0, p99 = 0.0; ///< total latency, us
    double meanBatch = 0.0;
    double inferUsPerReq = 0.0; ///< forwardBatch time / batch size
    double sloBurn = 0.0; ///< rolling-window burn at phase end
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timedOut = 0;

    double
    rejectRate() const
    {
        const double total =
            static_cast<double>(ok + rejected + timedOut);
        return total > 0.0
                   ? static_cast<double>(rejected + timedOut) / total
                   : 0.0;
    }
};

tensor::Tensor
makeObservation(const nn::NetConfig &cfg, unsigned salt)
{
    tensor::Tensor obs(tensor::Shape(
        {cfg.inChannels, cfg.inHeight, cfg.inWidth}));
    for (std::size_t i = 0; i < obs.numel(); ++i)
        obs.data()[i] =
            static_cast<float>((i * 31 + salt) % 101) / 101.0f;
    return obs;
}

serve::ServeConfig
serveConfig(int max_batch, int workers)
{
    serve::ServeConfig cfg;
    cfg.queue.maxDepth = 1024;
    cfg.batch.maxBatch = max_batch;
    cfg.workers = workers;
    cfg.backend = rl::BackendKind::FastCpu;
    return cfg;
}

/** Closed loop: @p clients blocking callers for @p duration. */
LoadResult
runClosedLoop(const nn::A3cNetwork &net, const nn::ParamSet &params,
              const serve::ServeConfig &cfg, int clients,
              std::chrono::milliseconds duration,
              std::chrono::milliseconds publish_every = 0ms)
{
    ServerLiveGuard live_guard;
    serve::PolicyServer server(net, cfg);
    server.publish(params);
    server.start();

    // Warm up the workers (thread creation, first parameter staging).
    const tensor::Tensor warm = makeObservation(net.config(), 0);
    (void)server.submitAndWait(warm);

    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> failed{0};
    const auto t_end = Clock::now() + duration;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const tensor::Tensor obs = makeObservation(
                net.config(), static_cast<unsigned>(c) + 1);
            while (Clock::now() < t_end) {
                const serve::Response r = server.submitAndWait(obs);
                if (r.status == serve::Status::Ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                else
                    failed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::uint64_t publishes = 0;
    if (publish_every.count() > 0) {
        nn::ParamSet next = net.makeParams();
        next.copyFrom(params);
        while (Clock::now() < t_end) {
            std::this_thread::sleep_for(publish_every);
            server.publish(next);
            ++publishes;
        }
    }
    for (auto &t : threads)
        t.join();
    server.stop();
    const obs::SloMonitor::Snapshot slo = server.slo().snapshot();
    g_lastSloBurn.store(slo.burn);
    g_lastModelVersion.store(
        static_cast<double>(server.modelVersion()));

    const sim::StatGroup stats = server.statsSnapshot();
    const auto &total = stats.distributions().at("total_us");
    LoadResult r;
    r.sloBurn = slo.burn;
    const double secs =
        std::chrono::duration<double>(duration).count();
    r.ok = ok.load();
    r.rejected = failed.load();
    r.timedOut = stats.counterValue("timed_out");
    r.ips = static_cast<double>(r.ok) / secs;
    r.offeredIps = static_cast<double>(r.ok + r.rejected) / secs;
    r.p50 = total.percentile(50);
    r.p95 = total.percentile(95);
    r.p99 = total.percentile(99);
    r.meanBatch = stats.distributions().at("batch_size").mean();
    if (r.meanBatch > 0.0)
        r.inferUsPerReq =
            stats.distributions().at("infer_us").mean() / r.meanBatch;
    if (publish_every.count() > 0)
        std::printf("  (hot-swap: %llu publishes mid-load, %llu param "
                    "stages)\n",
                    static_cast<unsigned long long>(publishes),
                    static_cast<unsigned long long>(
                        stats.counterValue("param_stages")));
    return r;
}

/**
 * Open loop: one dispatcher paces submissions at @p rate_ips with a
 * deadline budget, so overload shows up as rejections/timeouts
 * instead of unbounded queueing.
 */
LoadResult
runOpenLoop(const nn::A3cNetwork &net, const nn::ParamSet &params,
            const serve::ServeConfig &cfg, double rate_ips,
            std::chrono::milliseconds duration)
{
    ServerLiveGuard live_guard;
    serve::PolicyServer server(net, cfg);
    server.publish(params);
    server.start();
    const tensor::Tensor warm = makeObservation(net.config(), 0);
    (void)server.submitAndWait(warm);

    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate_ips));
    const auto deadline_budget = 50ms;
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(static_cast<std::size_t>(
        rate_ips * std::chrono::duration<double>(duration).count() *
        1.2));

    const tensor::Tensor obs = makeObservation(net.config(), 7);
    const auto t_start = Clock::now();
    const auto t_end = t_start + duration;
    auto next = t_start;
    std::uint64_t submitted = 0;
    while (next < t_end) {
        std::this_thread::sleep_until(next);
        futures.push_back(server.submit(obs, deadline_budget));
        ++submitted;
        next += interval;
    }

    LoadResult r;
    sim::Distribution latency;
    for (auto &fut : futures) {
        const serve::Response resp = fut.get();
        if (resp.status == serve::Status::Ok) {
            ++r.ok;
            latency.sample(resp.totalUs);
        } else if (resp.status == serve::Status::TimedOut) {
            ++r.timedOut;
        } else {
            ++r.rejected;
        }
    }
    server.stop();
    const obs::SloMonitor::Snapshot slo = server.slo().snapshot();
    r.sloBurn = slo.burn;
    g_lastSloBurn.store(slo.burn);
    g_lastModelVersion.store(
        static_cast<double>(server.modelVersion()));

    const double secs =
        std::chrono::duration<double>(duration).count();
    r.ips = static_cast<double>(r.ok) / secs;
    r.offeredIps = static_cast<double>(submitted) / secs;
    r.p50 = latency.percentile(50);
    r.p95 = latency.percentile(95);
    r.p99 = latency.percentile(99);
    return r;
}

/** One fleet measurement: router-level signals on top of the load. */
struct FleetResult
{
    LoadResult load;
    double shedRate = 0.0;
    std::uint64_t sheds = 0;
    /** 1 when every replica (and its responses) reported the fleet's
     * published version after the run; 0 on any divergence. */
    std::uint64_t versionLockstep = 1;
};

/** Closed loop through the router; optional concurrent publisher. */
FleetResult
runFleetClosedLoop(const nn::A3cNetwork &net,
                   const nn::ParamSet &params,
                   const serve::FleetConfig &fleet, int clients,
                   std::chrono::milliseconds duration,
                   std::chrono::milliseconds publish_every = 0ms)
{
    ServerLiveGuard live_guard;
    serve::ReplicaRouter router(net, fleet);
    router.publish(params);
    router.start();
    const tensor::Tensor warm = makeObservation(net.config(), 0);
    (void)router.submitAndWait(warm);

    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> failed{0};
    const auto t_end = Clock::now() + duration;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const tensor::Tensor obs = makeObservation(
                net.config(), static_cast<unsigned>(c) + 1);
            while (Clock::now() < t_end) {
                const serve::Response r = router.submitAndWait(obs);
                if (r.status == serve::Status::Ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                else
                    failed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::uint64_t publishes = 0;
    if (publish_every.count() > 0) {
        nn::ParamSet next = net.makeParams();
        next.copyFrom(params);
        while (Clock::now() < t_end) {
            std::this_thread::sleep_for(publish_every);
            router.publish(next);
            ++publishes;
        }
    }
    for (auto &t : threads)
        t.join();

    FleetResult r;
    // Coordinated hot-swap verification, before stop(): every replica
    // must answer with the fleet-wide version — no straggler serving
    // a stale snapshot, no serve gap.
    const std::uint64_t fleet_version = router.modelVersion();
    for (int i = 0; i < router.replicas(); ++i) {
        if (router.replica(i).modelVersion() != fleet_version)
            r.versionLockstep = 0;
        const serve::Response probe =
            router.replica(i).submitAndWait(warm);
        if (probe.status != serve::Status::Ok ||
            probe.modelVersion != fleet_version)
            r.versionLockstep = 0;
    }
    router.stop();

    const double secs =
        std::chrono::duration<double>(duration).count();
    r.load.ok = ok.load();
    r.load.rejected = failed.load();
    r.load.ips = static_cast<double>(r.load.ok) / secs;
    r.load.offeredIps =
        static_cast<double>(r.load.ok + r.load.rejected) / secs;
    r.shedRate = router.shedRate();
    r.sheds = router.sheds();
    g_lastModelVersion.store(static_cast<double>(fleet_version));
    if (publish_every.count() > 0)
        std::printf("  (fleet hot-swap: %llu barrier publishes "
                    "mid-load, version lockstep %s)\n",
                    static_cast<unsigned long long>(publishes),
                    r.versionLockstep ? "ok" : "BROKEN");
    return r;
}

/** Open loop through the router (paced rate, deadline budget). */
FleetResult
runFleetOpenLoop(const nn::A3cNetwork &net, const nn::ParamSet &params,
                 const serve::FleetConfig &fleet, double rate_ips,
                 std::chrono::milliseconds duration)
{
    ServerLiveGuard live_guard;
    serve::ReplicaRouter router(net, fleet);
    router.publish(params);
    router.start();
    const tensor::Tensor warm = makeObservation(net.config(), 0);
    (void)router.submitAndWait(warm);

    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate_ips));
    const auto deadline_budget = 50ms;
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(static_cast<std::size_t>(
        rate_ips * std::chrono::duration<double>(duration).count() *
        1.2));

    const tensor::Tensor obs = makeObservation(net.config(), 7);
    const auto t_start = Clock::now();
    const auto t_end = t_start + duration;
    auto next = t_start;
    std::uint64_t submitted = 0;
    while (next < t_end) {
        std::this_thread::sleep_until(next);
        futures.push_back(router.submit(obs, deadline_budget));
        ++submitted;
        next += interval;
    }

    FleetResult r;
    sim::Distribution latency;
    for (auto &fut : futures) {
        const serve::Response resp = fut.get();
        if (resp.status == serve::Status::Ok) {
            ++r.load.ok;
            latency.sample(resp.totalUs);
        } else if (resp.status == serve::Status::TimedOut) {
            ++r.load.timedOut;
        } else {
            ++r.load.rejected;
        }
    }
    r.shedRate = router.shedRate();
    r.sheds = router.sheds();
    router.stop();

    const double secs =
        std::chrono::duration<double>(duration).count();
    r.load.ips = static_cast<double>(r.load.ok) / secs;
    r.load.offeredIps = static_cast<double>(submitted) / secs;
    r.load.p50 = latency.percentile(50);
    r.load.p95 = latency.percentile(95);
    r.load.p99 = latency.percentile(99);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::runMicrobenchmarks(argc, argv);
    bench::banner("serve load",
                  "Dynamic-batching inference server: closed-loop "
                  "saturation, open-loop latency sweep, hot-swap "
                  "under load");

    const auto phase_ms = std::chrono::milliseconds(
        bench::envKnob("FA3C_SERVE_MS", 800));
    const int clients = static_cast<int>(
        bench::envKnob("FA3C_SERVE_CLIENTS", 16));
    const int max_batch = static_cast<int>(
        bench::envKnob("FA3C_SERVE_MAX_BATCH", 16));

    // FA3C_SERVE_NET picks the served network. The headline is "wide"
    // (Atari geometry, 1024-unit FC head): batching amortizes weight-
    // matrix reads, so its win scales with how much of a request is
    // spent streaming FC weights that miss L2. The paper's 256-unit
    // Atari head is conv-dominated on this CPU (conv weights stay
    // cached, so conv cost is batch-invariant) and tops out around
    // 1.5x; a serving-sized head makes the mechanism visible.
    const char *net_env = std::getenv("FA3C_SERVE_NET");
    const std::string net_name = net_env ? net_env : "wide";
    nn::NetConfig net_cfg = nn::NetConfig::atari(4);
    if (net_name == "tiny") {
        net_cfg = nn::NetConfig::tiny(4);
    } else if (net_name == "wide") {
        net_cfg.fcSize = 1024;
    } else if (net_name != "atari") {
        std::fprintf(stderr,
                     "FA3C_SERVE_NET=%s is not tiny|atari|wide\n",
                     net_name.c_str());
        return 1;
    }
    const nn::A3cNetwork net(net_cfg);
    nn::ParamSet params = net.makeParams();
    sim::Rng rng(5);
    net.initParams(params, rng);
    const double params_mb =
        static_cast<double>(net.paramCount()) * sizeof(float) /
        (1024.0 * 1024.0);

    std::printf("Phase length %lld ms, %d closed-loop clients, fast "
                "CPU backend, 1 worker (batching effects are per "
                "worker).\n",
                static_cast<long long>(phase_ms.count()), clients);
    std::printf("Serving net \"%s\": fc width %d, %.1f MB of "
                "parameters.\n\n",
                net_name.c_str(), net_cfg.fcSize, params_mb);

    // Bench-lifetime telemetry attachment: bench_phase is always
    // scrapable, and slo_burn / serve_model_version stay exported in
    // the gaps between phases when no PolicyServer is live.
    obs::TelemetryRegistration telemetry_reg(
        obs::telemetry(),
        [](obs::PromWriter &w) {
            w.gauge("bench_phase",
                    static_cast<double>(g_benchPhase.load()),
                    "bench_serve_load phase in flight (1=closed "
                    "batched, 2=closed single, 3=open sweep, "
                    "4=hot-swap, 5=trace overhead, 6=fleet)");
            if (!g_serverLive.load()) {
                w.gauge("slo_burn", g_lastSloBurn.load(),
                        "rolling-window deadline-miss budget burn "
                        "(last finished phase)");
                w.gauge("serve_model_version",
                        g_lastModelVersion.load(),
                        "model version served in the last phase");
            }
        },
        "bench.serve",
        [](std::string &detail) {
            detail =
                "phase=" + std::to_string(g_benchPhase.load());
            return true;
        });

    bench::JsonReport report("serve");
    report.field("phase_ms",
                 static_cast<std::uint64_t>(phase_ms.count()));
    report.field("clients", clients);
    report.field("max_batch", max_batch);
    report.field("net", net_name);
    report.field("fc_size", net_cfg.fcSize);
    report.field("params_mb", params_mb);

    // --- 1. closed-loop: batched vs single-request dispatch --------
    std::printf("Closed-loop saturation (%d clients):\n", clients);
    g_benchPhase.store(1);
    const LoadResult batched = runClosedLoop(
        net, params, serveConfig(max_batch, 1), clients, phase_ms);
    g_benchPhase.store(2);
    const LoadResult single = runClosedLoop(
        net, params, serveConfig(1, 1), clients, phase_ms);
    const double speedup =
        single.ips > 0.0 ? batched.ips / single.ips : 0.0;

    sim::TextTable closed({"Dispatch", "IPS", "mean batch",
                           "infer us/req", "p50 us", "p95 us",
                           "p99 us"});
    closed.addRow({"max_batch=" + std::to_string(max_batch),
                   sim::TextTable::num(batched.ips, 0),
                   sim::TextTable::num(batched.meanBatch, 1),
                   sim::TextTable::num(batched.inferUsPerReq, 1),
                   sim::TextTable::num(batched.p50, 0),
                   sim::TextTable::num(batched.p95, 0),
                   sim::TextTable::num(batched.p99, 0)});
    closed.addRow({"single-request",
                   sim::TextTable::num(single.ips, 0),
                   sim::TextTable::num(single.meanBatch, 1),
                   sim::TextTable::num(single.inferUsPerReq, 1),
                   sim::TextTable::num(single.p50, 0),
                   sim::TextTable::num(single.p95, 0),
                   sim::TextTable::num(single.p99, 0)});
    std::printf("%s\n", closed.render().c_str());
    std::printf("Batching speedup: %.2fx (throughput at saturation, "
                "same hardware, same model).\n\n",
                speedup);
    report.field("peak_ips", batched.ips);
    report.field("peak_offered_ips", batched.offeredIps);
    report.field("single_ips", single.ips);
    report.field("batch_speedup", speedup);
    report.field("peak_mean_batch", batched.meanBatch);
    // Closed-loop clients set no deadline, so any nonzero burn here
    // means the SLO accounting itself is broken; CI gates on 0.
    report.field("slo_burn", batched.sloBurn);

    // --- 2. open-loop latency/reject sweep --------------------------
    g_benchPhase.store(3);
    std::printf("Open-loop sweep (even pacing, 50 ms deadline budget, "
                "rates relative to the measured peak and to the "
                "single-request IPS):\n");
    sim::TextTable sweep({"Offered", "Offered IPS", "Served IPS",
                          "p50 us", "p95 us", "p99 us", "Reject %"});
    struct SweepPoint
    {
        double frac;
        bool ofSingle; ///< fraction of single.ips, else of batched.ips
    };
    for (const SweepPoint pt : {SweepPoint{0.5, true},
                                SweepPoint{0.9, true},
                                SweepPoint{0.5, false},
                                SweepPoint{0.8, false},
                                SweepPoint{1.0, false},
                                SweepPoint{1.2, false}}) {
        const double rate =
            pt.frac * (pt.ofSingle ? single.ips : batched.ips);
        if (rate < 1.0)
            continue;
        const LoadResult r = runOpenLoop(
            net, params, serveConfig(max_batch, 1), rate, phase_ms);
        sweep.addRow({sim::TextTable::num(pt.frac, 1) +
                          (pt.ofSingle ? "x single" : "x peak"),
                      sim::TextTable::num(r.offeredIps, 0),
                      sim::TextTable::num(r.ips, 0),
                      sim::TextTable::num(r.p50, 0),
                      sim::TextTable::num(r.p95, 0),
                      sim::TextTable::num(r.p99, 0),
                      sim::TextTable::num(100.0 * r.rejectRate(), 1)});
        report.addRow()
            .set(pt.ofSingle ? "offered_over_single"
                             : "offered_over_peak",
                 pt.frac)
            .set("offered_ips", r.offeredIps)
            .set("served_ips", r.ips)
            .set("p50_us", r.p50)
            .set("p95_us", r.p95)
            .set("p99_us", r.p99)
            .set("reject_rate", r.rejectRate())
            .set("slo_burn", r.sloBurn);
    }
    std::printf("%s\n", sweep.render().c_str());
    std::printf("Below capacity the deadline budget is met and "
                "nothing is rejected; past capacity the admission "
                "controller sheds load instead of letting latency "
                "diverge.\n\n");

    // --- 3. hot-swap under load -------------------------------------
    g_benchPhase.store(4);
    std::printf("Hot-swap under closed-loop load (publish every "
                "5 ms):\n");
    const LoadResult swapped = runClosedLoop(
        net, params, serveConfig(max_batch, 1), clients, phase_ms,
        5ms);
    std::printf("  %.0f IPS while swapping (%.1f%% of the no-swap "
                "peak), %llu failed requests.\n",
                swapped.ips,
                batched.ips > 0.0 ? 100.0 * swapped.ips / batched.ips
                                  : 0.0,
                static_cast<unsigned long long>(swapped.rejected));
    report.field("hotswap_ips", swapped.ips);
    report.field("hotswap_failed",
                 static_cast<std::uint64_t>(swapped.rejected));

    // --- 4. trace-sampling overhead ---------------------------------
    g_benchPhase.store(5);
    const bool trace_enabled = obs::trace() != nullptr;
    const double restore_rate = obs::spanSampleRate();
    const double sample_rate = 0.01;
    std::printf("\nTrace-sampling overhead (closed loop, %d clients, "
                "tracing %s):\n",
                clients, trace_enabled ? "on" : "off");
    // Interleaved best-of-N, like bench_nn_kernels' timeManyMs: the
    // two arms alternate A B A B and each takes its best round, so a
    // monotonic machine-state drift (cache/thermal/page warmth)
    // lands on both arms instead of crediting whichever ran second.
    // The old sequential A-then-B version reported *negative*
    // overhead for exactly that reason.
    const int trace_rounds = 3;
    const auto trace_slice = phase_ms / 2;
    double best_unsampled = 0.0;
    double best_sampled = 0.0;
    for (int round = 0; round < trace_rounds; ++round) {
        obs::setSpanSampleRate(0.0);
        const LoadResult off = runClosedLoop(
            net, params, serveConfig(max_batch, 1), clients,
            trace_slice);
        obs::setSpanSampleRate(sample_rate);
        const LoadResult on = runClosedLoop(
            net, params, serveConfig(max_batch, 1), clients,
            trace_slice);
        best_unsampled = std::max(best_unsampled, off.ips);
        best_sampled = std::max(best_sampled, on.ips);
    }
    obs::setSpanSampleRate(restore_rate);
    const double overhead_pct =
        best_unsampled > 0.0
            ? 100.0 * (best_unsampled - best_sampled) / best_unsampled
            : 0.0;
    std::printf("  %.0f IPS unsampled vs %.0f IPS at %.0f%% sampling "
                "(best of %d interleaved rounds): %.2f%% overhead "
                "(target < 2%%).\n",
                best_unsampled, best_sampled, 100.0 * sample_rate,
                trace_rounds, overhead_pct);
    report.field("trace_enabled",
                 static_cast<std::uint64_t>(trace_enabled ? 1 : 0));
    report.field("trace_sample_rate", sample_rate);
    report.field("trace_rounds", trace_rounds);
    report.field("trace_ips_unsampled", best_unsampled);
    report.field("trace_ips_sampled", best_sampled);
    report.field("trace_overhead_pct", overhead_pct);
    if (trace_enabled && overhead_pct > 2.0)
        std::printf("WARNING: tracing overhead %.2f%% exceeds the 2%% "
                    "target at %.0f%% sampling.\n",
                    overhead_pct, 100.0 * sample_rate);

    // --- 5. multi-replica fleet -------------------------------------
    g_benchPhase.store(6);
    const int fleet_replicas = static_cast<int>(
        bench::envKnob("FA3C_SERVE_REPLICAS", 2));
    serve::FleetConfig fleet;
    fleet.replicas = fleet_replicas;
    fleet.replica = serveConfig(max_batch, 1);
    // A queue the deadline budget can actually drain: with ~50 ms
    // budgets, shedding at a couple hundred queued requests keeps
    // admitted work feasible instead of letting the backlog turn
    // into timeouts (the post-saturation collapse the single-server
    // sweep above shows).
    fleet.replica.queue.maxDepth = 256;
    fleet.shed.depthFraction = 0.25;
    std::printf("\nReplica fleet (%d replicas, shed at %.0f%% "
                "aggregate depth):\n",
                fleet_replicas, 100.0 * fleet.shed.depthFraction);

    serve::FleetConfig one = fleet;
    one.replicas = 1;
    const FleetResult fleet_single =
        runFleetClosedLoop(net, params, one, clients, phase_ms);
    const FleetResult fleet_multi =
        runFleetClosedLoop(net, params, fleet, clients, phase_ms);
    const double fleet_scaling =
        fleet_single.load.ips > 0.0
            ? fleet_multi.load.ips / fleet_single.load.ips
            : 0.0;
    // The replicas split the clients, so none fills a max batch; each
    // worker runs what its share queues and the replicas add up, up
    // to the host's core count.
    std::printf("  closed loop: %.0f IPS x1 -> %.0f IPS x%d "
                "(scaling %.2fx).\n",
                fleet_single.load.ips, fleet_multi.load.ips,
                fleet_replicas, fleet_scaling);
    report.field("fleet_replicas", fleet_replicas);
    report.field("fleet_single_ips", fleet_single.load.ips);
    report.field("fleet_aggregate_ips", fleet_multi.load.ips);
    report.field("fleet_scaling", fleet_scaling);

    // Post-saturation flatness: offered load past the fleet's peak
    // must shed at the router, not collapse served throughput.
    std::printf("  open-loop sweep through the router (50 ms "
                "deadline, rates relative to the fleet peak):\n");
    sim::TextTable fleet_sweep({"Offered/peak", "Offered IPS",
                                "Served IPS", "p99 us", "Shed %",
                                "Reject %"});
    double fleet_peak_served = 0.0;
    double fleet_served_over = 0.0;
    for (const double frac : {0.8, 1.0, 1.2}) {
        const double rate = frac * fleet_multi.load.ips;
        if (rate < 1.0)
            continue;
        const FleetResult r =
            runFleetOpenLoop(net, params, fleet, rate, phase_ms);
        fleet_peak_served = std::max(fleet_peak_served, r.load.ips);
        if (frac == 1.2)
            fleet_served_over = r.load.ips;
        fleet_sweep.addRow(
            {sim::TextTable::num(frac, 1),
             sim::TextTable::num(r.load.offeredIps, 0),
             sim::TextTable::num(r.load.ips, 0),
             sim::TextTable::num(r.load.p99, 0),
             sim::TextTable::num(100.0 * r.shedRate, 1),
             sim::TextTable::num(100.0 * r.load.rejectRate(), 1)});
        report.addRow()
            .set("fleet_offered_over_peak", frac)
            .set("fleet_offered_ips", r.load.offeredIps)
            .set("fleet_served_ips", r.load.ips)
            .set("fleet_p99_us", r.load.p99)
            .set("fleet_shed_rate", r.shedRate)
            .set("fleet_reject_rate", r.load.rejectRate());
    }
    std::printf("%s", fleet_sweep.render().c_str());
    const double fleet_flatness =
        fleet_peak_served > 0.0 ? fleet_served_over / fleet_peak_served
                                : 0.0;
    std::printf("  served at 1.2x offered = %.2fx of peak served "
                "(flatness target >= 0.9).\n",
                fleet_flatness);
    report.field("fleet_peak_served_ips", fleet_peak_served);
    report.field("fleet_served_at_over_ips", fleet_served_over);
    report.field("fleet_flatness", fleet_flatness);
    if (fleet_flatness < 0.9)
        std::printf("WARNING: fleet served-IPS flatness %.2f is "
                    "below the 0.9 bar — shedding is not holding "
                    "throughput past saturation.\n",
                    fleet_flatness);

    // Coordinated hot-swap across the fleet under load: barrier
    // publishes every 5 ms, zero failed requests, every replica on
    // the published version afterwards.
    std::printf("  coordinated hot-swap under closed-loop load "
                "(barrier publish every 5 ms):\n");
    const FleetResult fleet_swap = runFleetClosedLoop(
        net, params, fleet, clients, phase_ms, 5ms);
    std::printf("  %.0f IPS while swapping (%.1f%% of fleet peak), "
                "%llu failed requests.\n",
                fleet_swap.load.ips,
                fleet_multi.load.ips > 0.0
                    ? 100.0 * fleet_swap.load.ips /
                          fleet_multi.load.ips
                    : 0.0,
                static_cast<unsigned long long>(
                    fleet_swap.load.rejected));
    report.field("fleet_hotswap_ips", fleet_swap.load.ips);
    report.field("fleet_hotswap_failed", fleet_swap.load.rejected);
    report.field("fleet_version_lockstep", fleet_swap.versionLockstep);
    if (fleet_swap.load.rejected != 0 || !fleet_swap.versionLockstep)
        std::printf("WARNING: coordinated hot-swap was not clean "
                    "(%llu failures, lockstep %llu).\n",
                    static_cast<unsigned long long>(
                        fleet_swap.load.rejected),
                    static_cast<unsigned long long>(
                        fleet_swap.versionLockstep));

    // Fleet trace overhead: the same interleaved best-of-N A/B as
    // the single-server arm above, but through the router, where a
    // sampled request now carries its context across the wire and
    // spans fire at the client, router, replica, and backend. The
    // propagation machinery must stay under the same 2% bar at 1%
    // sampling — it runs on every request (17 header bytes + a
    // branch), not just on sampled ones.
    std::printf("  fleet trace overhead (%d replicas, closed loop, "
                "%.0f%% sampling):\n",
                fleet_replicas, 100.0 * sample_rate);
    double fleet_best_unsampled = 0.0;
    double fleet_best_sampled = 0.0;
    for (int round = 0; round < trace_rounds; ++round) {
        obs::setSpanSampleRate(0.0);
        const FleetResult off = runFleetClosedLoop(
            net, params, fleet, clients, trace_slice);
        obs::setSpanSampleRate(sample_rate);
        const FleetResult on = runFleetClosedLoop(
            net, params, fleet, clients, trace_slice);
        fleet_best_unsampled =
            std::max(fleet_best_unsampled, off.load.ips);
        fleet_best_sampled =
            std::max(fleet_best_sampled, on.load.ips);
    }
    obs::setSpanSampleRate(restore_rate);
    const double fleet_trace_overhead_pct =
        fleet_best_unsampled > 0.0
            ? 100.0 * (fleet_best_unsampled - fleet_best_sampled) /
                  fleet_best_unsampled
            : 0.0;
    std::printf("  %.0f IPS unsampled vs %.0f IPS sampled (best of "
                "%d interleaved rounds): %.2f%% overhead (target "
                "< 2%%).\n",
                fleet_best_unsampled, fleet_best_sampled,
                trace_rounds, fleet_trace_overhead_pct);
    report.field("fleet_trace_ips_unsampled", fleet_best_unsampled);
    report.field("fleet_trace_ips_sampled", fleet_best_sampled);
    report.field("fleet_trace_overhead_pct",
                 fleet_trace_overhead_pct);
    if (trace_enabled && fleet_trace_overhead_pct > 2.0)
        std::printf("WARNING: fleet tracing overhead %.2f%% exceeds "
                    "the 2%% target at %.0f%% sampling.\n",
                    fleet_trace_overhead_pct, 100.0 * sample_rate);

    if (speedup < 2.0)
        std::printf("\nWARNING: batching speedup %.2fx is below the "
                    "2x acceptance bar.\n",
                    speedup);

    // --- perf-counter snapshot artifact ---------------------------
    // The serve layer counts admissions, formed/underfilled batches,
    // empty batch slots and the admission-queue high-water mark into
    // the global perf file; dump it next to the bench JSON so a
    // regression in batch formation is diagnosable from CI artifacts.
    {
        const auto snap = sim::perf().snapshot();
        const auto serve_it = snap.find("serve");
        if (serve_it != snap.end()) {
            auto get = [&](const char *key) -> std::uint64_t {
                const auto it = serve_it->second.find(key);
                return it == serve_it->second.end() ? 0 : it->second;
            };
            std::printf("\nServe perf counters: %llu admitted, %llu "
                        "batches (%llu underfilled, %llu empty "
                        "slots), queue depth HWM %llu.\n",
                        static_cast<unsigned long long>(
                            get("admitted")),
                        static_cast<unsigned long long>(
                            get("batches")),
                        static_cast<unsigned long long>(
                            get("underfilled_batches")),
                        static_cast<unsigned long long>(
                            get("empty_batch_slots")),
                        static_cast<unsigned long long>(
                            get("queue_depth_hwm")));
            report.field("perf_admitted", get("admitted"));
            report.field("perf_batches", get("batches"));
            report.field("perf_underfilled_batches",
                         get("underfilled_batches"));
            report.field("perf_empty_batch_slots",
                         get("empty_batch_slots"));
            report.field("perf_queue_depth_hwm",
                         get("queue_depth_hwm"));
        }
        if (const char *dir = std::getenv("FA3C_JSON_DIR")) {
            const std::string path =
                std::string(dir) + "/PERF_serve.json";
            if (sim::perf().writeJson(path))
                std::printf("(writing %s)\n", path.c_str());
        }
    }
    return 0;
}
