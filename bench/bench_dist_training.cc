/**
 * @file
 * Distributed parameter-server training: throughput scaling and
 * learning-curve parity.
 *
 * Leg 1 — scaling: one in-process PsServer plus 1/2/4/8 WorkerRunner
 * instances (each a real dist-protocol client over loopback TCP, one
 * A3C agent each) train Pong for a fixed step budget; steps/sec is
 * budget / wall time. On a multi-core host two workers should land
 * well above one (the CI gate wants >= 1.6x); a 1-core host records
 * the number without gating it. dist_scaling_x2 is the median of
 * three ratios, each from a 1-worker run and the 2-worker run right
 * after it: at the CI step budget a run lasts under a second, and a
 * single pair swung 1.2-2.5x between runs of one build.
 *
 * Leg 2 — parity: the same step budget trained (a) by the classic
 * in-process A3cTrainer and (b) through the PS with one 2-agent
 * worker, then both final policies are evaluated on Pong with the
 * same seeds. The two runs consume identical step counts through the
 * same RMSProp semantics, so the final scores must sit within the
 * run-to-run noise band.
 *
 * Leg 3 — telemetry: the bench enables the metrics registry, serves
 * its own /metrics on an ephemeral TelemetryServer, and runs a
 * TelemetryAggregator against it — the same scrape + re-aggregate
 * path the fleet launcher uses — then records the fleet-level
 * staleness and push-RTT rollups into the report. This keeps the
 * aggregator's HTTP + histogram-summation path exercised on every
 * bench run, not just in CI smoke.
 *
 * Knobs: FA3C_DIST_BENCH_STEPS (default 4000 env steps per config),
 * FA3C_DIST_BENCH_MAX_WORKERS (default 8).
 *
 * Writes $FA3C_JSON_DIR/BENCH_dist.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/environment.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "obs/aggregator.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "rl/a3c.hh"
#include "rl/evaluate.hh"

using namespace fa3c;

namespace {

using Clock = std::chrono::steady_clock;

constexpr env::GameId kGame = env::GameId::Pong;

std::unique_ptr<env::AtariSession>
makeSession(const nn::NetConfig &nc, std::uint64_t seed)
{
    env::SessionConfig scfg;
    scfg.frameStack = nc.inChannels;
    scfg.obsHeight = nc.inHeight;
    scfg.obsWidth = nc.inWidth;
    return std::make_unique<env::AtariSession>(
        env::makeEnvironment(kGame, seed), scfg, seed + 2);
}

struct DistRun
{
    double elapsedSec = 0.0;
    double stepsPerSec = 0.0;
    std::uint64_t version = 0;
    nn::ParamSet theta;
};

/** Train @p steps env steps through a PS with @p workers workers. */
DistRun
runDist(const nn::A3cNetwork &net, int workers, int agents_per_worker,
        std::uint64_t steps, std::uint64_t seed)
{
    dist::PsServerConfig ps_cfg;
    ps_cfg.totalSteps = steps;
    ps_cfg.initialLr = 1e-3f;
    ps_cfg.seed = seed;
    dist::PsServer ps(net, ps_cfg);
    if (!ps.start()) {
        std::fprintf(stderr, "dist bench: ps failed to start\n");
        std::exit(1);
    }

    std::vector<std::unique_ptr<dist::WorkerRunner>> runners;
    for (int w = 0; w < workers; ++w) {
        dist::WorkerConfig cfg;
        cfg.port = ps.port();
        cfg.name = "bench-w" + std::to_string(w);
        cfg.game = "pong";
        cfg.a3c.numAgents = agents_per_worker;
        cfg.a3c.backend = rl::BackendKind::FastCpu;
        cfg.a3c.seed = seed + 100u * static_cast<unsigned>(w + 1);
        runners.push_back(
            std::make_unique<dist::WorkerRunner>(net, cfg));
    }

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(runners.size());
    for (auto &r : runners)
        threads.emplace_back([&r] { (void)r->run(); });
    ps.waitDone(-1);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (auto &t : threads)
        t.join();

    DistRun out;
    out.elapsedSec = elapsed;
    out.stepsPerSec =
        elapsed > 0.0 ? static_cast<double>(ps.params().globalSteps()) /
                            elapsed
                      : 0.0;
    out.version = ps.params().version();
    out.theta = net.makeParams();
    std::vector<float> flat;
    ps.params().snapshot(flat);
    std::copy(flat.begin(), flat.end(), out.theta.flat().begin());
    ps.stop();
    return out;
}

double
evalScore(const nn::A3cNetwork &net, const nn::ParamSet &theta)
{
    auto backend = rl::makeDnnBackend(rl::BackendKind::FastCpu, net);
    auto session = makeSession(net.config(), 991);
    rl::EvalConfig cfg;
    cfg.episodes = 5;
    cfg.seed = 1234;
    const rl::EvalResult r =
        rl::evaluatePolicy(*backend, theta, *session, cfg);
    return r.scores.mean();
}

} // namespace

int
main(int, char **)
{
    bench::banner("distributed training",
                  "Parameter-server A3C: worker scaling and parity "
                  "with the in-process trainer");

    // Leg 3 plumbing comes first so the scaling runs below feed the
    // dist_* instruments the aggregator will scrape back out.
    obs::metrics().setEnabled(true);
    obs::TelemetryServer telemetry_server(0);

    const std::uint64_t steps =
        bench::envKnob("FA3C_DIST_BENCH_STEPS", 4000);
    const std::uint64_t max_workers =
        bench::envKnob("FA3C_DIST_BENCH_MAX_WORKERS", 8);
    const std::uint64_t seed = 7;

    const int actions =
        env::makeEnvironment(kGame, 0)->numActions();
    const nn::A3cNetwork net(nn::NetConfig::tiny(actions));

    bench::JsonReport report("dist");
    report.field("steps",
                 static_cast<std::uint64_t>(steps));
    report.field("agents_per_worker", 1);

    std::printf("Scaling (%llu steps per config, 1 agent/worker, "
                "fast backend):\n",
                static_cast<unsigned long long>(steps));
    std::printf("%-10s %-12s %-12s %s\n", "workers", "steps/sec",
                "elapsed s", "scaling vs 1");
    const auto addRow = [&report](int workers, const DistRun &run,
                                  double scaling) {
        std::printf("%-10d %-12.0f %-12.2f %.2fx\n", workers,
                    run.stepsPerSec, run.elapsedSec, scaling);
        report.addRow()
            .set("workers", workers)
            .set("steps_per_sec", run.stepsPerSec)
            .set("elapsed_sec", run.elapsedSec)
            .set("scaling_vs_1", scaling)
            .set("final_version",
                 static_cast<std::uint64_t>(run.version));
    };
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
    };
    constexpr int kScalingPairs = 3;
    std::vector<double> base_runs;
    std::vector<double> ratios;
    for (int pair = 0; pair < kScalingPairs; ++pair) {
        const DistRun one = runDist(net, 1, 1, steps, seed);
        base_runs.push_back(one.stepsPerSec);
        addRow(1, one, 1.0);
        if (max_workers < 2)
            break;
        const DistRun two = runDist(net, 2, 1, steps, seed);
        const double ratio =
            one.stepsPerSec > 0.0 ? two.stepsPerSec / one.stepsPerSec
                                  : 0.0;
        ratios.push_back(ratio);
        addRow(2, two, ratio);
    }
    const double base_sps = median(base_runs);
    for (int workers = 4; workers <= static_cast<int>(max_workers);
         workers *= 2) {
        const DistRun run = runDist(net, workers, 1, steps, seed);
        addRow(workers, run,
               base_sps > 0.0 ? run.stepsPerSec / base_sps : 0.0);
    }
    report.field("dist_scaling_x2", median(ratios));

    // --- parity with the single-process trainer ------------------
    std::printf("\nLearning-curve parity at %llu total steps:\n",
                static_cast<unsigned long long>(steps));
    rl::A3cConfig single_cfg;
    single_cfg.numAgents = 2;
    single_cfg.totalSteps = steps;
    single_cfg.initialLr = 1e-3f;
    single_cfg.lrAnnealSteps = 0;
    single_cfg.seed = seed;
    single_cfg.backend = rl::BackendKind::FastCpu;
    const nn::NetConfig nc = net.config();
    rl::A3cTrainer trainer(
        net, single_cfg, {}, [&nc](int agent_id) {
            return makeSession(
                nc, 11 + static_cast<std::uint64_t>(agent_id));
        });
    trainer.run();
    nn::ParamSet single_theta = net.makeParams();
    trainer.globalParams().snapshot(single_theta);

    const DistRun dist_run = runDist(net, 1, 2, steps, seed);

    const double single_score = evalScore(net, single_theta);
    const double dist_score = evalScore(net, dist_run.theta);
    const double gap =
        single_score > dist_score ? single_score - dist_score
                                  : dist_score - single_score;
    std::printf("  single-process eval : %.2f\n", single_score);
    std::printf("  dist (1 worker)     : %.2f\n", dist_score);
    std::printf("  gap                 : %.2f (noise band: 5.0)\n",
                gap);
    report.field("parity_single_score", single_score);
    report.field("parity_dist_score", dist_score);
    report.field("parity_gap", gap);

    // --- fleet telemetry aggregation -----------------------------
    // Scrape this process's own /metrics over real HTTP and roll it
    // up exactly as the launcher does for a worker fleet; a second
    // in-process "target" at the same port proves the per-process
    // labelling + fleet summation path with >= 2 parts.
    std::printf("\nTelemetry aggregation:\n");
    double fleet_staleness_count = 0.0;
    double fleet_staleness_mean = 0.0;
    double fleet_push_rtt_mean = 0.0;
    int scraped = 0;
    if (telemetry_server.ok()) {
        obs::AggregatorConfig acfg;
        acfg.targets.push_back(obs::ScrapeTarget{
            "bench-a", "127.0.0.1", telemetry_server.port()});
        acfg.targets.push_back(obs::ScrapeTarget{
            "bench-b", "127.0.0.1", telemetry_server.port()});
        obs::TelemetryAggregator agg(acfg);
        scraped = agg.scrapeOnce();
        const auto families =
            obs::parseExposition(agg.renderText());
        for (const auto &family : families) {
            if (family.name != "fa3c_dist_staleness" &&
                family.name != "fa3c_dist_push_rtt_us")
                continue;
            const bool is_staleness =
                family.name == "fa3c_dist_staleness";
            double sum = 0.0;
            double count = 0.0;
            for (const auto &sample : family.samples) {
                if (sample.label("process") != "fleet")
                    continue;
                if (sample.name == family.name + "_sum")
                    sum = sample.value;
                else if (sample.name == family.name + "_count")
                    count = sample.value;
            }
            const double mean = count > 0.0 ? sum / count : 0.0;
            if (is_staleness) {
                fleet_staleness_count = count;
                fleet_staleness_mean = mean;
            } else {
                fleet_push_rtt_mean = mean;
            }
        }
        std::printf("  endpoints scraped   : %d/2\n", scraped);
        std::printf("  fleet staleness     : n=%.0f mean=%.2f\n",
                    fleet_staleness_count, fleet_staleness_mean);
        std::printf("  fleet push RTT      : mean=%.0f us\n",
                    fleet_push_rtt_mean);
    } else {
        std::printf("  telemetry server unavailable; skipped\n");
    }
    report.field("aggregator_endpoints_scraped", scraped);
    report.field("fleet_staleness_count", fleet_staleness_count);
    report.field("fleet_staleness_mean", fleet_staleness_mean);
    report.field("fleet_push_rtt_us_mean", fleet_push_rtt_mean);

    return 0;
}
