/** @file
 * End-to-end distributed training: a real PsServer plus WorkerRunner
 * workers speaking the dist protocol over loopback TCP, including the
 * elastic-rejoin path (a reaped lease is detected through the push
 * sentinel and the worker re-Hellos without losing its agents), and
 * a pin that one agent trains the same trajectory in process and
 * over the wire.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/games.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "rl/a3c.hh"

using namespace fa3c;
using namespace fa3c::dist;
using namespace std::chrono_literals;

namespace {

nn::NetConfig
pongNet()
{
    return nn::NetConfig::tiny(env::makePong(0)->numActions());
}

WorkerConfig
workerConfig(int port, const std::string &name, int agents)
{
    WorkerConfig cfg;
    cfg.port = port;
    cfg.name = name;
    cfg.game = "pong";
    cfg.a3c.numAgents = agents;
    cfg.a3c.backend = rl::BackendKind::FastCpu;
    cfg.a3c.seed = 5;
    return cfg;
}

/** FNV-1a over the IEEE bit patterns of every word of @p p. */
std::uint64_t
hashWords(const nn::ParamSet &p)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const float v : p.flat()) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

template <typename Pred>
bool
eventually(Pred pred, std::chrono::milliseconds budget = 10000ms)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return pred();
}

} // namespace

TEST(DistTraining, OneWorkerTrainsToCompletion)
{
    const nn::A3cNetwork net(pongNet());
    PsServerConfig ps_cfg;
    ps_cfg.totalSteps = 400;
    ps_cfg.initialLr = 1e-3f;
    PsServer ps(net, ps_cfg);
    ASSERT_TRUE(ps.start());

    WorkerRunner worker(net, workerConfig(ps.port(), "solo", 1));
    ASSERT_TRUE(worker.run());

    EXPECT_TRUE(ps.done());
    EXPECT_GE(ps.params().globalSteps(), 400u);
    EXPECT_GT(ps.params().version(), 0u);
    EXPECT_GT(worker.routines(), 0u);
    EXPECT_EQ(ps.leases().joined(), 1u);
    // The worker left with a Bye, so nothing was reaped.
    EXPECT_TRUE(eventually([&] { return ps.leases().active() == 0; }));
    EXPECT_EQ(ps.leases().reaped(), 0u);
    ps.stop();

    const wire::StatsReply stats = ps.stats();
    EXPECT_GT(stats.pushes, 0u);
    EXPECT_EQ(stats.version, ps.params().version());
}

TEST(DistTraining, TwoWorkersShareOneRun)
{
    const nn::A3cNetwork net(pongNet());
    PsServerConfig ps_cfg;
    ps_cfg.totalSteps = 600;
    ps_cfg.initialLr = 1e-3f;
    PsServer ps(net, ps_cfg);
    ASSERT_TRUE(ps.start());

    WorkerRunner a(net, workerConfig(ps.port(), "wa", 1));
    WorkerRunner b(net, workerConfig(ps.port(), "wb", 1));
    std::thread ta([&] { EXPECT_TRUE(a.run()); });
    std::thread tb([&] { EXPECT_TRUE(b.run()); });
    ta.join();
    tb.join();

    EXPECT_TRUE(ps.done());
    EXPECT_GE(ps.params().globalSteps(), 600u);
    EXPECT_EQ(ps.leases().joined(), 2u);
    // Both contributed updates; the version is the sum of accepted
    // pushes from the whole fleet.
    EXPECT_GT(a.remote().version(), 0u);
    EXPECT_GT(b.remote().version(), 0u);
    ps.stop();
}

TEST(DistTraining, InProcessAndOverTheWireTrainTheSameTrajectory)
{
    // One synchronous agent, once against the in-process parameters
    // of an A3cTrainer and once through a WorkerRunner to a
    // staleness-0 PsServer. Same seed, sessions, lr, annealing and
    // RMSProp: the parameter plane is the only difference, so theta,
    // the RMSProp g statistics and the step count must end equal.
    for (const int fc_size : {64, 70}) {
        nn::NetConfig net_cfg = pongNet();
        net_cfg.fcSize = fc_size;
        const nn::A3cNetwork net(net_cfg);
        const auto sessions = [net_cfg](int agent_id) {
            env::SessionConfig cfg;
            cfg.frameStack = net_cfg.inChannels;
            cfg.obsHeight = net_cfg.inHeight;
            cfg.obsWidth = net_cfg.inWidth;
            cfg.maxEpisodeFrames = 600;
            const auto id = static_cast<std::uint64_t>(agent_id);
            return std::make_unique<env::AtariSession>(
                env::makePong(71 + id), cfg, 71 * 7 + id);
        };
        rl::A3cConfig a3c;
        a3c.numAgents = 1;
        a3c.seed = 29;
        a3c.backend = rl::BackendKind::FastCpu;
        const std::uint64_t total_steps = 600;

        rl::A3cConfig local_cfg = a3c;
        local_cfg.totalSteps = total_steps;
        local_cfg.async = false;
        rl::A3cTrainer trainer(net, local_cfg, {}, sessions);
        trainer.run();
        const rl::TrainingCheckpoint local = trainer.checkpoint(false);

        PsServerConfig ps_cfg;
        ps_cfg.maxStaleness = 0;
        ps_cfg.totalSteps = total_steps;
        ps_cfg.rmsprop = a3c.rmsprop;
        ps_cfg.initialLr = a3c.initialLr;
        ps_cfg.annealSteps = a3c.lrAnnealSteps;
        ps_cfg.seed = a3c.seed;
        PsServer ps(net, ps_cfg);
        ASSERT_TRUE(ps.start());
        WorkerConfig w_cfg = workerConfig(ps.port(), "pinned", 1);
        w_cfg.a3c = a3c;
        WorkerRunner worker(net, w_cfg, {}, sessions);
        ASSERT_TRUE(worker.run());
        ps.stop();
        nn::ParamSet theta = net.makeParams();
        nn::ParamSet g = net.makeParams();
        std::uint64_t steps = 0, version = 0;
        ps.params().checkpoint(theta, g, steps, version);

        EXPECT_EQ(steps, local.globalSteps) << "fcSize " << fc_size;
        EXPECT_EQ(hashWords(theta), hashWords(local.theta))
            << "fcSize " << fc_size;
        EXPECT_EQ(hashWords(g), hashWords(local.rmspropG))
            << "fcSize " << fc_size;
    }
}

TEST(DistTraining, ReapedWorkerRejoinsAndResumes)
{
    const nn::A3cNetwork net(pongNet());
    PsServerConfig ps_cfg;
    ps_cfg.initialLr = 1e-3f; // no totalSteps: the worker bounds itself
    PsServer ps(net, ps_cfg);
    ASSERT_TRUE(ps.start());

    WorkerConfig cfg = workerConfig(ps.port(), "phoenix", 1);
    cfg.maxRoutines = 400;
    WorkerRunner worker(net, cfg);
    std::thread t([&] { EXPECT_TRUE(worker.run()); });

    // Wait until the worker is joined and actively pushing, then pull
    // its lease out from under it (exactly what the housekeeper does
    // to a silent worker).
    ASSERT_TRUE(eventually([&] {
        return worker.remote().workerId() != 0 &&
               worker.routines() >= 3;
    }));
    const std::uint64_t first_id = worker.remote().workerId();
    ASSERT_TRUE(ps.leases().reap(first_id));

    // The next push comes back with the lease-lost sentinel; the
    // worker must re-Hello and keep training under a fresh lease.
    ASSERT_TRUE(eventually([&] {
        const std::uint64_t id = worker.remote().workerId();
        return id != 0 && id != first_id;
    }));
    EXPECT_EQ(ps.leases().joined(), 2u);
    EXPECT_EQ(ps.leases().reaped(), 1u);

    // And it still makes progress after the rejoin.
    const std::uint64_t version_at_rejoin = ps.params().version();
    EXPECT_TRUE(eventually(
        [&] { return ps.params().version() > version_at_rejoin; }));

    t.join();
    ps.stop();
}

TEST(DistTraining, RequestStopWindsDownPromptly)
{
    const nn::A3cNetwork net(pongNet());
    PsServerConfig ps_cfg;
    ps_cfg.initialLr = 1e-3f; // unbounded run
    PsServer ps(net, ps_cfg);
    ASSERT_TRUE(ps.start());

    WorkerRunner worker(net, workerConfig(ps.port(), "stoppee", 1));
    std::thread t([&] { EXPECT_TRUE(worker.run()); });
    ASSERT_TRUE(
        eventually([&] { return worker.remote().workerId() != 0; }));
    worker.requestStop();
    t.join();
    EXPECT_TRUE(eventually([&] { return ps.leases().active() == 0; }));
    ps.stop();
}
