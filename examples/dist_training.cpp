/**
 * @file
 * Elastic multi-process parameter-server training.
 *
 *     ./dist_training --role ps     [options]   # parameter server
 *     ./dist_training --role worker [options]   # one worker process
 *     ./dist_training --role launch [options]   # ps + forked workers
 *     ./dist_training --role stats  [options]   # query a running ps
 *
 * Options (role-relevant subset):
 *     --game <name>          beam_rider|breakout|pong|qbert|seaquest|
 *                            space_invaders (default pong)
 *     --host <addr>          PS address (worker/stats; default
 *                            127.0.0.1)
 *     --port <n>             PS port (ps: bind, 0 = ephemeral;
 *                            worker/stats: target)
 *     --port-file <path>     ps/launch: write the bound port here
 *     --steps <n>            total env steps (ps/launch; default 20000)
 *     --workers <n>          forked worker processes (launch; default 2)
 *     --agents <n>           A3C agents per worker (default 2)
 *     --backend <name>       worker DNN backend: reference|fast|int8|
 *                            datapath (default fast)
 *     --name <s>             worker name (default worker)
 *     --sync                 staleness bound 0 (serialized updates)
 *     --staleness <n>        explicit staleness bound (default
 *                            unbounded — classic async A3C)
 *     --lease-ttl-ms <n>     worker lease TTL (default 2000)
 *     --checkpoint <path>    durable PS state (ps/launch)
 *     --checkpoint-every <n> PS checkpoint period in env steps
 *     --seed <n>             init / rollout seed (default 7)
 *     --lr <f>               learning rate on the PS (default 1e-3)
 *     --max-routines <n>     worker: stop after n routines (default 0
 *                            = until the PS says stop)
 *     --timeout-sec <n>      ps/launch: give up waiting after n sec
 *     --kill-first <hit>     launch: arm FA3C_FAULT_KILL_AGENT=<hit>
 *                            in the first worker; when it dies with
 *                            exit 42 a replacement is forked — the
 *                            elastic-rejoin demo the CI smoke greps
 *     --telemetry-base <p>   launch: serve /metrics on port p and
 *                            give worker i port p+1+i; the launcher
 *                            runs a TelemetryAggregator over the
 *                            workers, so its /metrics carries the
 *                            fleet-level fa3c_dist_* series
 *     --scrape <p1,p2,...>   stats: scrape those /metrics ports once
 *                            and print the fleet exposition
 *
 * Forked workers inherit FA3C_TRACE / FA3C_METRICS_JSON; the
 * launcher rewrites both to carry a %p pid token when they lack one,
 * so every process writes its own file instead of all children
 * clobbering the parent's (trace_merge then joins the trace files).
 *
 * The PS and every worker derive the network from --game, so the
 * layout CRC in the Hello only matches when both sides agree.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dist/ps_client.hh"
#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/environment.hh"
#include "fa3c/datapath_backend.hh"
#include "nn/a3c_network.hh"
#include "obs/aggregator.hh"
#include "obs/telemetry.hh"
#include "rl/a3c.hh"
#include "sim/fault.hh"

using namespace fa3c;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --role ps|worker|launch|stats [options]\n"
                 "       (see the file comment for the option list)\n",
                 argv0);
    return 2;
}

struct Options
{
    std::string role;
    std::string game = "pong";
    std::string host = "127.0.0.1";
    int port = 0;
    std::string portFile;
    std::uint64_t steps = 20000;
    int workers = 2;
    int agents = 2;
    std::string backend = "fast";
    std::string name = "worker";
    std::uint64_t staleness =
        std::numeric_limits<std::uint64_t>::max();
    std::uint32_t leaseTtlMs = 2000;
    std::string checkpoint;
    std::uint64_t checkpointEvery = 0;
    std::uint64_t seed = 7;
    float lr = 1e-3f;
    std::uint64_t maxRoutines = 0;
    long timeoutSec = 0;
    std::uint64_t killFirst = 0;
    int telemetryBase = 0;
    std::string scrapePorts;
};

/**
 * Ensure an inherited per-process export path carries a %p pid
 * token, so every forked worker writes its own file instead of the
 * whole fleet clobbering one path. Inserted before the extension:
 * "run/trace.json" becomes "run/trace.%p.json".
 */
void
ensurePidToken(const char *env_name)
{
    const char *raw = std::getenv(env_name);
    if (!raw || !*raw)
        return;
    std::string path = raw;
    if (path.find("%p") != std::string::npos)
        return;
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash))
        path.insert(dot, ".%p");
    else
        path += ".%p";
    ::setenv(env_name, path.c_str(), 1);
}

/** Shared network derivation: both sides must agree on the layout. */
nn::A3cNetwork
makeNetwork(env::GameId game)
{
    const int actions = env::makeEnvironment(game, 0)->numActions();
    return nn::A3cNetwork(nn::NetConfig::tiny(actions));
}

rl::A3cConfig
workerA3cConfig(const Options &opt)
{
    rl::A3cConfig cfg;
    cfg.numAgents = opt.agents;
    cfg.seed = opt.seed;
    cfg.initialLr = opt.lr; // informational; the PS applies updates
    cfg.lrAnnealSteps = 0;
    if (opt.backend != "datapath")
        cfg.backend = rl::backendKindFromName(opt.backend);
    return cfg;
}

int
runPs(const Options &opt, env::GameId game)
{
    const nn::A3cNetwork net = makeNetwork(game);
    dist::PsServerConfig cfg;
    cfg.port = opt.port;
    cfg.leaseTtlMs = opt.leaseTtlMs;
    cfg.maxStaleness = opt.staleness;
    cfg.totalSteps = opt.steps;
    cfg.checkpointPath = opt.checkpoint;
    cfg.checkpointEverySteps = opt.checkpointEvery;
    cfg.initialLr = opt.lr;
    cfg.seed = opt.seed;
    dist::PsServer ps(net, cfg);
    if (!ps.start())
        return 1;
    std::printf("dist: ps ready on port %d\n", ps.port());
    std::fflush(stdout);
    if (!opt.portFile.empty()) {
        if (std::FILE *f = std::fopen(opt.portFile.c_str(), "w")) {
            std::fprintf(f, "%d\n", ps.port());
            std::fclose(f);
        }
    }
    const bool done = ps.waitDone(
        opt.timeoutSec > 0 ? opt.timeoutSec * 1000 : -1);
    ps.stop();
    const auto stats = ps.stats();
    std::printf("dist: ps finished — version %llu, steps %llu, "
                "joined %llu, reaped %llu, pushes %llu (%llu "
                "rejected)\n",
                static_cast<unsigned long long>(stats.version),
                static_cast<unsigned long long>(stats.steps),
                static_cast<unsigned long long>(stats.joined),
                static_cast<unsigned long long>(stats.reaped),
                static_cast<unsigned long long>(stats.pushes),
                static_cast<unsigned long long>(stats.pushRejects));
    if (!done) {
        std::fprintf(stderr, "dist: ps timed out before totalSteps\n");
        return 3;
    }
    return 0;
}

int
runWorker(const Options &opt, env::GameId game)
{
    if (opt.port <= 0) {
        std::fprintf(stderr, "worker needs --port\n");
        return 2;
    }
    const nn::A3cNetwork net = makeNetwork(game);
    dist::WorkerConfig cfg;
    cfg.host = opt.host;
    cfg.port = opt.port;
    cfg.name = opt.name;
    cfg.game = opt.game;
    cfg.a3c = workerA3cConfig(opt);
    cfg.maxRoutines = opt.maxRoutines;
    rl::A3cTrainer::BackendFactory backend_factory;
    if (opt.backend == "datapath")
        backend_factory = [&net](int) -> std::unique_ptr<rl::DnnBackend> {
            return std::make_unique<core::DatapathBackend>(net);
        };
    dist::WorkerRunner worker(net, cfg, backend_factory);
    if (!worker.run())
        return 1;
    std::printf("dist: worker '%s' done after %llu routines, %zu "
                "episodes\n",
                opt.name.c_str(),
                static_cast<unsigned long long>(worker.routines()),
                worker.scores().records().size());
    return 0;
}

int
runStats(const Options &opt)
{
    if (!opt.scrapePorts.empty()) {
        // One-shot fleet scrape: hit each /metrics port, print the
        // aggregated exposition (what a Prometheus scrape of the
        // launcher would see, but usable ad hoc from the CLI).
        obs::AggregatorConfig acfg;
        std::istringstream ports(opt.scrapePorts);
        std::string token;
        int index = 0;
        while (std::getline(ports, token, ',')) {
            if (token.empty())
                continue;
            acfg.targets.push_back(obs::ScrapeTarget{
                "p" + std::to_string(index++), opt.host,
                std::atoi(token.c_str())});
        }
        if (acfg.targets.empty()) {
            std::fprintf(stderr, "stats: --scrape needs ports\n");
            return 2;
        }
        obs::TelemetryAggregator agg(acfg);
        const int reached = agg.scrapeOnce();
        std::fputs(agg.renderText().c_str(), stdout);
        std::fprintf(stderr, "stats: scraped %d/%zu endpoints\n",
                     reached, acfg.targets.size());
        return reached > 0 ? 0 : 1;
    }
    if (opt.port <= 0) {
        std::fprintf(stderr, "stats needs --port\n");
        return 2;
    }
    dist::PsClient client;
    dist::wire::StatsReply s;
    if (!client.connect(opt.host, opt.port) || !client.stats(s)) {
        std::fprintf(stderr, "stats: cannot reach %s:%d\n",
                     opt.host.c_str(), opt.port);
        return 1;
    }
    std::printf("version=%llu steps=%llu/%llu active=%u joined=%llu "
                "reaped=%llu pushes=%llu rejects=%llu\n",
                static_cast<unsigned long long>(s.version),
                static_cast<unsigned long long>(s.steps),
                static_cast<unsigned long long>(s.totalSteps),
                s.activeLeases,
                static_cast<unsigned long long>(s.joined),
                static_cast<unsigned long long>(s.reaped),
                static_cast<unsigned long long>(s.pushes),
                static_cast<unsigned long long>(s.pushRejects));
    return 0;
}

/** Fork + exec one worker child against the in-process PS. */
pid_t
spawnWorker(const char *argv0, const Options &opt, int ps_port,
            int index, std::uint64_t kill_at, int telemetry_port)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    if (kill_at > 0) {
        const std::string v = std::to_string(kill_at);
        ::setenv("FA3C_FAULT_KILL_AGENT", v.c_str(), 1);
    }
    // Per-process export paths: without a pid token every child
    // would truncate the same trace/metrics file.
    ensurePidToken("FA3C_TRACE");
    ensurePidToken("FA3C_METRICS_JSON");
    if (telemetry_port > 0) {
        const std::string v = std::to_string(telemetry_port);
        ::setenv("FA3C_TELEMETRY_PORT", v.c_str(), 1);
    } else {
        // An inherited fixed port would make every child race for
        // the same bind; drop it rather than fight.
        ::unsetenv("FA3C_TELEMETRY_PORT");
    }
    std::string wname = "w";
    wname += std::to_string(index);
    std::vector<std::string> args = {
        argv0,           "--role",        "worker",
        "--host",        "127.0.0.1",     "--port",
        std::to_string(ps_port),          "--game",
        opt.game,        "--agents",      std::to_string(opt.agents),
        "--backend",     opt.backend,     "--name",
        wname,           "--seed",
        std::to_string(opt.seed + 100u * static_cast<unsigned>(index)),
    };
    std::vector<char *> argvc;
    argvc.reserve(args.size() + 1);
    for (auto &a : args)
        argvc.push_back(a.data());
    argvc.push_back(nullptr);
    ::execv(argv0, argvc.data());
    std::perror("execv");
    ::_Exit(127);
}

int
runLaunch(const char *argv0, const Options &opt, env::GameId game)
{
    // The PS latches the process-global telemetry endpoint when it
    // starts, so the launcher's port must be in the environment
    // before then — not when the aggregator is built below.
    if (opt.telemetryBase > 0) {
        const std::string v = std::to_string(opt.telemetryBase);
        ::setenv("FA3C_TELEMETRY_PORT", v.c_str(), 1);
    }
    const nn::A3cNetwork net = makeNetwork(game);
    dist::PsServerConfig cfg;
    cfg.port = opt.port;
    cfg.leaseTtlMs = opt.leaseTtlMs;
    cfg.maxStaleness = opt.staleness;
    cfg.totalSteps = opt.steps;
    cfg.checkpointPath = opt.checkpoint;
    cfg.checkpointEverySteps = opt.checkpointEvery;
    cfg.initialLr = opt.lr;
    cfg.seed = opt.seed;
    dist::PsServer ps(net, cfg);
    if (!ps.start())
        return 1;
    std::printf("dist: ps ready on port %d\n", ps.port());
    std::fflush(stdout);
    if (!opt.portFile.empty()) {
        if (std::FILE *f = std::fopen(opt.portFile.c_str(), "w")) {
            std::fprintf(f, "%d\n", ps.port());
            std::fclose(f);
        }
    }

    // With --telemetry-base the launcher serves its own /metrics
    // (PS-side dist_* families) and aggregates the workers' — one
    // curl against the base port sees the whole fleet.
    const auto workerTelemetryPort = [&opt](int index) {
        return opt.telemetryBase > 0 ? opt.telemetryBase + 1 + index
                                     : 0;
    };
    // Worker index's scrape target, labelled "w<index>" (built by
    // appending: GCC 12 flags "w" + std::string&& with a false-positive
    // -Wrestrict in Release builds).
    const auto workerTarget = [&](int index) {
        std::string label = "w";
        label += std::to_string(index);
        return obs::ScrapeTarget{std::move(label), "127.0.0.1",
                                 workerTelemetryPort(index)};
    };
    std::unique_ptr<obs::TelemetryAggregator> aggregator;
    if (opt.telemetryBase > 0) {
        obs::AggregatorConfig acfg;
        // Short smoke runs finish in a couple of seconds; scrape
        // fast enough that even those get a live fleet view.
        acfg.scrapeIntervalMs = 250;
        for (int i = 0; i < opt.workers; ++i)
            acfg.targets.push_back(workerTarget(i));
        aggregator =
            std::make_unique<obs::TelemetryAggregator>(acfg);
        aggregator->attach(obs::telemetry());
        aggregator->start();
    }

    std::vector<pid_t> children;
    int next_index = 0;
    for (int i = 0; i < opt.workers; ++i, ++next_index)
        children.push_back(spawnWorker(
            argv0, opt, ps.port(), next_index,
            i == 0 ? opt.killFirst : 0,
            workerTelemetryPort(next_index)));

    // Supervise: while training runs, reap crashed workers (simulated
    // by FA3C_FAULT_KILL_AGENT — exit 42) and fork replacements; the
    // PS reaps their leases and the replacements resume from the
    // current version. This is the elastic path end to end.
    long waited_ms = 0;
    const long timeout_ms =
        opt.timeoutSec > 0 ? opt.timeoutSec * 1000 : -1;
    bool timed_out = false;
    while (!ps.done()) {
        if (ps.waitDone(100))
            break;
        waited_ms += 100;
        if (timeout_ms > 0 && waited_ms >= timeout_ms) {
            timed_out = true;
            break;
        }
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid > 0) {
            for (auto &c : children)
                if (c == pid)
                    c = -1;
            if (WIFEXITED(status) &&
                WEXITSTATUS(status) == fault::kKillExitCode) {
                std::printf("dist: worker %d crashed (exit %d); "
                            "forking replacement\n",
                            static_cast<int>(pid),
                            fault::kKillExitCode);
                std::fflush(stdout);
                if (aggregator)
                    aggregator->addTarget(workerTarget(next_index));
                children.push_back(spawnWorker(
                    argv0, opt, ps.port(), next_index, 0,
                    workerTelemetryPort(next_index)));
                ++next_index;
            }
        }
    }

    // Workers see stop=1 on their next ack and exit on their own.
    // Grab one last scrape while they are still up so even a run
    // shorter than the scrape interval ends with a fleet snapshot.
    if (aggregator)
        (void)aggregator->scrapeOnce();
    for (pid_t pid : children) {
        if (pid < 0)
            continue;
        int status = 0;
        (void)::waitpid(pid, &status, 0);
    }
    if (aggregator) {
        aggregator->stop();
        std::printf("dist: aggregator reached %d/%zu worker "
                    "endpoints over %llu scrapes\n",
                    aggregator->reachableTargets(),
                    static_cast<std::size_t>(opt.workers),
                    static_cast<unsigned long long>(
                        aggregator->scrapes()));
    }
    ps.stop();
    const auto stats = ps.stats();
    std::printf("dist: launch finished — version %llu, steps %llu, "
                "joined %llu, reaped %llu, pushes %llu (%llu "
                "rejected)\n",
                static_cast<unsigned long long>(stats.version),
                static_cast<unsigned long long>(stats.steps),
                static_cast<unsigned long long>(stats.joined),
                static_cast<unsigned long long>(stats.reaped),
                static_cast<unsigned long long>(stats.pushes),
                static_cast<unsigned long long>(stats.pushRejects));
    if (timed_out) {
        std::fprintf(stderr,
                     "dist: launch timed out before totalSteps\n");
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--role" && has_value) {
            opt.role = argv[++i];
        } else if (arg == "--game" && has_value) {
            opt.game = argv[++i];
        } else if (arg == "--host" && has_value) {
            opt.host = argv[++i];
        } else if (arg == "--port" && has_value) {
            opt.port = std::atoi(argv[++i]);
        } else if (arg == "--port-file" && has_value) {
            opt.portFile = argv[++i];
        } else if (arg == "--steps" && has_value) {
            opt.steps = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--workers" && has_value) {
            opt.workers = std::atoi(argv[++i]);
        } else if (arg == "--agents" && has_value) {
            opt.agents = std::atoi(argv[++i]);
        } else if (arg == "--backend" && has_value) {
            opt.backend = argv[++i];
            if (opt.backend != "datapath" &&
                !rl::tryBackendKindFromName(opt.backend)) {
                std::fprintf(stderr,
                             "unknown backend: %s (want datapath|"
                             "reference|fast|int8)\n",
                             opt.backend.c_str());
                return 2;
            }
        } else if (arg == "--name" && has_value) {
            opt.name = argv[++i];
        } else if (arg == "--sync") {
            opt.staleness = 0;
        } else if (arg == "--staleness" && has_value) {
            opt.staleness = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--lease-ttl-ms" && has_value) {
            opt.leaseTtlMs = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--checkpoint" && has_value) {
            opt.checkpoint = argv[++i];
        } else if (arg == "--checkpoint-every" && has_value) {
            opt.checkpointEvery =
                std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--lr" && has_value) {
            opt.lr = std::strtof(argv[++i], nullptr);
        } else if (arg == "--max-routines" && has_value) {
            opt.maxRoutines = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--timeout-sec" && has_value) {
            opt.timeoutSec = std::atol(argv[++i]);
        } else if (arg == "--kill-first" && has_value) {
            opt.killFirst = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--telemetry-base" && has_value) {
            opt.telemetryBase = std::atoi(argv[++i]);
        } else if (arg == "--scrape" && has_value) {
            opt.scrapePorts = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    if (opt.role != "ps" && opt.role != "worker" &&
        opt.role != "launch" && opt.role != "stats") {
        std::fprintf(stderr, "unknown role: '%s'\n",
                     opt.role.c_str());
        return usage(argv[0]);
    }
    const auto maybe_game = env::tryGameFromName(opt.game);
    if (!maybe_game) {
        std::fprintf(stderr, "unknown game: %s (valid: %s)\n",
                     opt.game.c_str(), env::gameNameList().c_str());
        return 2;
    }
    const env::GameId game = *maybe_game;

    if (opt.role == "ps")
        return runPs(opt, game);
    if (opt.role == "worker")
        return runWorker(opt, game);
    if (opt.role == "stats")
        return runStats(opt);
    return runLaunch(argv[0], opt, game);
}
