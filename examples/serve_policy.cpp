/**
 * @file
 * Serve a policy for one game over TCP: a fleet of PolicyServer
 * replicas with dynamic batching behind the replica router
 * (serve/router.hh), fronted by the epoll event loop
 * (serve/event_loop.hh). A free worker runs whatever is queued at
 * once, up to the max batch size, so batches form only from requests
 * that arrive while the workers are busy.
 *
 *     ./serve_policy [game] [options]
 *
 * Games: beam_rider breakout pong qbert seaquest space_invaders.
 *
 * Options:
 *     --port <n>        TCP port (default 0 = ephemeral, printed)
 *     --workers <n>     inference worker threads per replica
 *                       (default 1)
 *     --max-batch <n>   dynamic batch size cap (default 16)
 *     --backend <name>  reference, fast, or int8 (default fast)
 *     --replicas <n>    PolicyServer replicas behind the router
 *                       (default 1)
 *     --policy <name>   least-loaded or hash (consistent hash by
 *                       connection; default least-loaded)
 *     --shed <f>        shed when fleet queue depth exceeds this
 *                       fraction of total capacity (default 0.75;
 *                       >= 1 disables router-level shedding)
 *     --checkpoint <p>  serve the trained theta from a training
 *                       checkpoint instead of random initialization
 *     --demo            drive the server with an in-process TCP client
 *                       playing one short episode, print the actions,
 *                       and exit (smoke test / CI mode)
 *
 * Without --demo the server runs until SIGINT/SIGTERM. Set
 * FA3C_METRICS_JSON to export serve.* latency histograms, and
 * FA3C_TELEMETRY_PORT to scrape /metrics, /healthz, and /readyz live
 * (with FA3C_TRACE + FA3C_TRACE_SAMPLE for per-request spans; the
 * router_* gauges report fleet depth, shed rate, and per-replica
 * versions).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "env/environment.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "obs/telemetry.hh"
#include "rl/checkpoint.hh"
#include "serve/event_loop.hh"
#include "serve/router.hh"
#include "serve/tcp.hh"

using namespace fa3c;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Play one short episode through the wire protocol. */
int
runDemo(std::uint16_t port, env::GameId game,
        const nn::NetConfig &net_cfg)
{
    serve::TcpClient client;
    if (!client.connect("127.0.0.1", port)) {
        std::fprintf(stderr, "demo: cannot connect to 127.0.0.1:%u\n",
                     port);
        return 1;
    }
    env::SessionConfig session_cfg;
    session_cfg.frameStack = net_cfg.inChannels;
    session_cfg.obsHeight = net_cfg.inHeight;
    session_cfg.obsWidth = net_cfg.inWidth;
    session_cfg.maxEpisodeFrames = 600;
    env::AtariSession session(env::makeEnvironment(game, 42),
                              session_cfg, 43);

    std::printf("\n%-6s %-7s %-10s %s\n", "step", "action", "value",
                "latency");
    double total_us = 0.0;
    int steps = 0;
    for (; steps < 80 && !g_stop; ++steps) {
        serve::Response r;
        if (!client.request(session.observation(), 0, r)) {
            std::fprintf(stderr, "demo: transport error at step %d\n",
                         steps);
            return 1;
        }
        if (r.status != serve::Status::Ok) {
            std::fprintf(stderr, "demo: request failed: %s\n",
                         serve::statusName(r.status));
            return 1;
        }
        total_us += r.totalUs;
        if (steps % 10 == 0)
            std::printf("%-6d %-7d %-10.4f %7.0f us\n", steps,
                        r.action, r.value, r.totalUs);
        const auto step = session.act(r.action);
        if (step.episodeEnd)
            break;
    }
    std::printf("\nDemo: %d steps over TCP, mean latency %.0f us, "
                "episode score %.1f.\n",
                steps, steps ? total_us / steps : 0.0,
                session.lastEpisodeScore() != 0.0
                    ? session.lastEpisodeScore()
                    : session.episodeScore());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string game_name = "breakout";
    std::string backend_name = "fast";
    std::string policy_name = "least-loaded";
    std::string checkpoint_path;
    long port = 0;
    int workers = 1;
    int max_batch = 16;
    int replicas = 1;
    double shed_fraction = 0.75;
    bool demo = false;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            port = std::strtol(argv[++i], nullptr, 10);
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = static_cast<int>(
                std::strtol(argv[++i], nullptr, 10));
        } else if (arg == "--max-batch" && i + 1 < argc) {
            max_batch = static_cast<int>(
                std::strtol(argv[++i], nullptr, 10));
        } else if (arg == "--backend" && i + 1 < argc) {
            backend_name = argv[++i];
        } else if (arg == "--replicas" && i + 1 < argc) {
            replicas = static_cast<int>(
                std::strtol(argv[++i], nullptr, 10));
        } else if (arg == "--policy" && i + 1 < argc) {
            policy_name = argv[++i];
        } else if (arg == "--shed" && i + 1 < argc) {
            shed_fraction = std::strtod(argv[++i], nullptr);
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            checkpoint_path = argv[++i];
        } else if (arg == "--demo") {
            demo = true;
        } else if (positional == 0) {
            game_name = arg;
            ++positional;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return 2;
        }
    }

    const auto maybe_game = env::tryGameFromName(game_name);
    if (!maybe_game) {
        std::fprintf(stderr, "unknown game: %s (valid: %s)\n",
                     game_name.c_str(),
                     env::gameNameList().c_str());
        return 2;
    }
    const env::GameId game = *maybe_game;
    const auto maybe_backend = rl::tryBackendKindFromName(backend_name);
    if (!maybe_backend) {
        std::fprintf(stderr,
                     "unknown backend: %s (want "
                     "reference|fast|int8)\n",
                     backend_name.c_str());
        return 2;
    }
    const auto maybe_policy =
        serve::tryRoutePolicyFromName(policy_name);
    if (!maybe_policy) {
        std::fprintf(stderr,
                     "unknown policy: %s (want least-loaded|hash)\n",
                     policy_name.c_str());
        return 2;
    }
    if (port < 0 || port > 65535) {
        std::fprintf(stderr, "invalid port %ld\n", port);
        return 2;
    }
    if (workers < 1 || max_batch < 1 || replicas < 1 ||
        shed_fraction <= 0.0) {
        std::fprintf(stderr, "invalid worker/batch/fleet settings\n");
        return 2;
    }

    const int actions = env::makeEnvironment(game, 0)->numActions();
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
    const nn::A3cNetwork net(net_cfg);

    nn::ParamSet params = net.makeParams();
    if (!checkpoint_path.empty()) {
        rl::TrainingCheckpoint ckpt;
        ckpt.theta = net.makeParams();
        ckpt.rmspropG = net.makeParams();
        if (!rl::loadCheckpointFromFile(ckpt, checkpoint_path)) {
            std::fprintf(stderr,
                         "cannot load checkpoint %s (corrupt, missing, "
                         "or wrong network)\n",
                         checkpoint_path.c_str());
            return 1;
        }
        params.copyFrom(ckpt.theta);
        std::printf("Serving theta from %s (step %llu).\n",
                    checkpoint_path.c_str(),
                    static_cast<unsigned long long>(ckpt.globalSteps));
    } else {
        sim::Rng rng(7);
        net.initParams(params, rng);
        std::printf("Serving randomly initialized parameters "
                    "(pass --checkpoint for a trained policy).\n");
    }

    serve::FleetConfig fleet;
    fleet.replicas = replicas;
    fleet.policy = *maybe_policy;
    fleet.shed.depthFraction = shed_fraction;
    fleet.replica.batch.maxBatch = max_batch;
    fleet.replica.workers = workers;
    fleet.replica.backend = *maybe_backend;
    serve::ReplicaRouter router(net, fleet);
    router.publish(params);
    router.start();

    serve::EventLoopConfig loop_cfg;
    loop_cfg.port = static_cast<std::uint16_t>(port);
    serve::EventLoopServer loop(router, loop_cfg);
    if (!loop.start()) {
        std::fprintf(stderr, "cannot listen on port %ld\n", port);
        return 1;
    }
    const std::uint16_t bound_port = loop.port();
    std::printf("Serving %s on 127.0.0.1:%u (%s backend, %d replica%s"
                " x %d worker%s, %s routing, max batch %d, no "
                "batch wait).\n",
                game_name.c_str(), bound_port, backend_name.c_str(),
                replicas, replicas == 1 ? "" : "s", workers,
                workers == 1 ? "" : "s",
                serve::routePolicyName(*maybe_policy), max_batch);
    if (const obs::TelemetryServer *telemetry = obs::telemetry())
        std::printf("Telemetry on http://127.0.0.1:%d (/metrics "
                    "/healthz /readyz).\n",
                    telemetry->port());

    int rc = 0;
    if (demo) {
        rc = runDemo(bound_port, game, net_cfg);
    } else {
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        while (!g_stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::printf("\nShutting down.\n");
    }

    loop.stop();
    router.stop();
    if (router.sheds() > 0)
        std::printf("Router shed %llu of %llu requests (%.1f%%).\n",
                    static_cast<unsigned long long>(router.sheds()),
                    static_cast<unsigned long long>(router.routed() +
                                                    router.sheds()),
                    100.0 * router.shedRate());
    for (int r = 0; r < router.replicas(); ++r) {
        if (router.replicas() > 1)
            std::printf("--- replica %d ---\n", r);
        const sim::StatGroup stats =
            router.replica(r).statsSnapshot();
        std::printf("%s", stats.report("serve").c_str());
    }
    return rc;
}
