/**
 * @file
 * Train any of the six games through the FA3C functional datapath
 * model — the same layouts, TLU transposition, and PE dataflow as the
 * hardware — and report both the learning curve and the accumulated
 * datapath cycle counters.
 *
 *     ./atari_training [game] [steps] [options]
 *
 * Games: beam_rider breakout pong qbert seaquest space_invaders.
 *
 * Options:
 *     --backend <name>       datapath (default), reference, fast,
 *                            or int8; the non-datapath names run on
 *                            the CPU layer libraries (no cycle
 *                            counters); int8 uses quantized inference
 *                            with fp32 training
 *     --checkpoint <path>    write crash-safe checkpoints to <path>
 *     --checkpoint-every <n> checkpoint every n env steps
 *     --resume               restore <path> before training (missing
 *                            file starts fresh; corrupt file aborts)
 *     --workers <n>          A3C agent threads, 1..256 (default 4)
 *     --dist <mode>          off (default) trains in-process; async /
 *                            sync print the equivalent multi-process
 *                            dist_training invocation and exit
 *
 * With --checkpoint set, the run writes a checkpoint when it ends,
 * SIGUSR1 writes one at the next routine boundary and training goes
 * on, and SIGINT/SIGTERM end the run at the next routine boundary
 * (with its end-of-run checkpoint). A malformed count (a sign,
 * trailing text, or --workers outside 1..256) exits 2.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "env/ascii.hh"
#include "env/environment.hh"
#include "env/session.hh"
#include "fa3c/datapath_backend.hh"
#include "nn/a3c_network.hh"
#include "rl/a3c.hh"
#include "rl/checkpoint.hh"

#include "cli.hh"

using namespace fa3c;

namespace {

int
badValue(const char *what, const char *text, const char *want)
{
    std::fprintf(stderr,
                 "bad %s value: %s (want %s)\n"
                 "usage: atari_training [game] [steps] [options]\n",
                 what, text, want);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string game_name = "breakout";
    std::uint64_t steps = 10000;
    std::string checkpoint_path;
    std::string backend_name = "datapath";
    std::uint64_t checkpoint_every = 0;
    bool resume = false;
    int workers = 4;
    std::string dist_mode = "off";

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--backend" && i + 1 < argc) {
            backend_name = argv[++i];
            if (backend_name != "datapath" &&
                !rl::tryBackendKindFromName(backend_name)) {
                std::fprintf(stderr,
                             "unknown backend: %s (want "
                             "datapath|reference|fast|int8)\n",
                             backend_name.c_str());
                return 2;
            }
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            checkpoint_path = argv[++i];
        } else if (arg == "--checkpoint-every" && i + 1 < argc) {
            const auto n = cli::parseCount(argv[++i]);
            if (!n)
                return badValue("--checkpoint-every", argv[i],
                                "a step count");
            checkpoint_every = *n;
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--workers" && i + 1 < argc) {
            const auto n = cli::parseCount(argv[++i], 1, 256);
            if (!n)
                return badValue("--workers", argv[i],
                                "an integer in 1..256");
            workers = static_cast<int>(*n);
        } else if (arg == "--dist" && i + 1 < argc) {
            dist_mode = argv[++i];
            if (dist_mode != "off" && dist_mode != "async" &&
                dist_mode != "sync") {
                std::fprintf(stderr,
                             "unknown --dist mode: %s (want "
                             "off|async|sync)\n",
                             dist_mode.c_str());
                return 2;
            }
        } else if (positional == 0) {
            game_name = arg;
            ++positional;
        } else if (positional == 1) {
            const auto n = cli::parseCount(argv[i]);
            if (!n)
                return badValue("steps", argv[i], "a step count");
            steps = *n;
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

    if (dist_mode != "off") {
        // Multi-process training lives in the dist_training example;
        // hand the user the equivalent invocation instead of silently
        // training in-process.
        std::printf("distributed training runs as separate "
                    "processes; use:\n"
                    "  dist_training --role launch --game %s --steps "
                    "%llu --workers 2 --agents %d%s\n",
                    game_name.c_str(),
                    static_cast<unsigned long long>(steps), workers,
                    dist_mode == "sync" ? " --sync" : "");
        return 0;
    }

    const int actions =
        env::makeEnvironment(game, 0)->numActions();
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
    const nn::A3cNetwork net(net_cfg);

    rl::A3cConfig cfg;
    cfg.numAgents = workers;
    cfg.totalSteps = steps;
    cfg.initialLr = 1e-3f;
    cfg.lrAnnealSteps = 0;
    cfg.seed = 7;
    cfg.checkpointPath = checkpoint_path;
    cfg.checkpointEverySteps = checkpoint_every;
    if (!checkpoint_path.empty())
        rl::installCheckpointSignalHandler();

    // Keep pointers to the datapath backends so we can read their
    // cycle counters after training; the CPU backends ("reference",
    // "fast") have no cycle model and go through the trainer's
    // built-in factory instead.
    std::vector<core::DatapathBackend *> backends;
    rl::A3cTrainer::BackendFactory backend_factory;
    if (backend_name == "datapath") {
        backend_factory =
            [&](int) -> std::unique_ptr<rl::DnnBackend> {
            auto backend = std::make_unique<core::DatapathBackend>(net);
            backends.push_back(backend.get());
            return backend;
        };
    } else {
        cfg.backend = rl::backendKindFromName(backend_name);
    }
    auto session_factory = [&](int agent_id) {
        env::SessionConfig session_cfg;
        session_cfg.frameStack = net_cfg.inChannels;
        session_cfg.obsHeight = net_cfg.inHeight;
        session_cfg.obsWidth = net_cfg.inWidth;
        return std::make_unique<env::AtariSession>(
            env::makeEnvironment(game,
                                 11 + static_cast<std::uint64_t>(
                                          agent_id)),
            session_cfg, 13 + static_cast<std::uint64_t>(agent_id));
    };

    std::printf("Training %s for %llu steps on the %s backend "
                "(%d agents, %d actions)...\n",
                game_name.c_str(),
                static_cast<unsigned long long>(steps),
                backend_name.c_str(), cfg.numAgents, actions);
    rl::A3cTrainer trainer(net, cfg, backend_factory, session_factory);
    if (resume && !checkpoint_path.empty() &&
        std::ifstream(checkpoint_path).good()) {
        if (!trainer.resumeFromFile()) {
            std::fprintf(stderr,
                         "cannot resume: %s is corrupt or mismatched\n",
                         checkpoint_path.c_str());
            return 1;
        }
        std::printf("Resumed from %s at step %llu.\n",
                    checkpoint_path.c_str(),
                    static_cast<unsigned long long>(
                        trainer.globalParams().globalSteps()));
    }
    trainer.run();

    const auto curve = trainer.scores().movingAverage(25, 15);
    std::printf("\n%-12s %s\n", "step", "avg score (last 25 episodes)");
    for (const auto &[step, score] : curve)
        std::printf("%-12llu %.2f\n",
                    static_cast<unsigned long long>(step), score);

    if (!backends.empty()) {
        std::uint64_t fw = 0, bw = 0, gc = 0;
        for (const auto *backend : backends) {
            fw += backend->cycleStats().counterValue("cycles.fw");
            bw += backend->cycleStats().counterValue("cycles.bw");
            gc += backend->cycleStats().counterValue("cycles.gc");
        }
        std::printf("\nDatapath cycle counters (all agents, 64-PE CU "
                    "model):\n");
        std::printf("  forward propagation : %llu cycles\n",
                    static_cast<unsigned long long>(fw));
        std::printf("  backward propagation: %llu cycles\n",
                    static_cast<unsigned long long>(bw));
        std::printf("  gradient computation: %llu cycles\n",
                    static_cast<unsigned long long>(gc));
        std::printf("  at 180 MHz that is %.2f s of CU time\n",
                    static_cast<double>(fw + bw + gc) / 180e6);
    }

    // A peek at what the network was looking at.
    auto viewer = env::makeEnvironment(game, 99);
    env::Frame frame;
    for (int i = 0; i < 120; ++i)
        (void)viewer->step(0);
    viewer->render(frame);
    std::printf("\nThe %s screen (ASCII view):\n%s", game_name.c_str(),
                env::toAscii(frame, 2).c_str());
    return 0;
}
