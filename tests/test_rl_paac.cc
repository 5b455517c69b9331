/** @file Tests of the synchronous PAAC trainer. */

#include <gtest/gtest.h>

#include <vector>

#include "env/games.hh"
#include "rl/paac.hh"

using namespace fa3c;
using namespace fa3c::rl;

namespace {

PaacTrainer::SessionFactory
pongSessions(const nn::NetConfig &net_cfg, std::uint64_t seed)
{
    return [net_cfg, seed](int agent_id) {
        env::SessionConfig cfg;
        cfg.frameStack = net_cfg.inChannels;
        cfg.obsHeight = net_cfg.inHeight;
        cfg.obsWidth = net_cfg.inWidth;
        cfg.maxEpisodeFrames = 600;
        return std::make_unique<env::AtariSession>(
            env::makePong(seed + static_cast<std::uint64_t>(agent_id)),
            cfg, seed * 7 + static_cast<std::uint64_t>(agent_id));
    };
}

PaacConfig
baseConfig()
{
    PaacConfig cfg;
    cfg.numEnvs = 4;
    cfg.totalSteps = 400;
    cfg.seed = 5;
    cfg.lrAnnealSteps = 0;
    return cfg;
}

} // namespace

TEST(PaacTrainer, OneUpdatePerSynchronizedBatch)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg = baseConfig();
    PaacTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 11));
    trainer.run();
    EXPECT_GE(trainer.globalParams().globalSteps(), cfg.totalSteps);
    // Each update consumes at most numEnvs * tMax steps (less when
    // episodes end mid-rollout), so updates >= steps / (envs * tMax).
    const std::uint64_t steps = trainer.globalParams().globalSteps();
    EXPECT_GE(trainer.updatesApplied() *
                  static_cast<std::uint64_t>(cfg.numEnvs * cfg.tMax),
              steps);
    EXPECT_GT(trainer.updatesApplied(), 0u);
}

TEST(PaacTrainer, BuildsOneBackendForEveryEnvironment)
{
    // One thread runs every pass under the one theta, so one backend
    // serves all numEnvs environments, through a run and a restore.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    std::vector<int> built;
    PaacTrainer trainer(
        net, baseConfig(),
        [&](int id) {
            built.push_back(id);
            return std::make_unique<ReferenceBackend>(net);
        },
        pongSessions(net_cfg, 13));
    EXPECT_EQ(built, std::vector<int>{0});
    trainer.run();
    ASSERT_TRUE(trainer.restore(trainer.checkpoint()));
    EXPECT_EQ(built, std::vector<int>{0});
}

TEST(PaacTrainer, DeterministicAcrossRuns)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    auto run_once = [&]() {
        PaacTrainer trainer(
            net, baseConfig(),
            [&net](int) {
                return std::make_unique<ReferenceBackend>(net);
            },
            pongSessions(net_cfg, 21));
        trainer.run();
        nn::ParamSet out = net.makeParams();
        out.copyFrom(trainer.globalParams().theta());
        return out;
    };
    nn::ParamSet a = run_once();
    nn::ParamSet b = run_once();
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(a, b), 0.0f);
}

TEST(PaacTrainer, ParametersMoveAndScoresLogged)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg = baseConfig();
    cfg.totalSteps = 3000;
    PaacTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 31));
    nn::ParamSet before = net.makeParams();
    before.copyFrom(trainer.globalParams().theta());
    trainer.run();
    EXPECT_GT(nn::ParamSet::maxAbsDiff(
                  before, trainer.globalParams().theta()),
              0.0f);
    EXPECT_GT(trainer.scores().size(), 0u);
}

TEST(PaacTrainer, StopEarlyCallbackHonored)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg = baseConfig();
    cfg.totalSteps = 100000;
    PaacTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 41));
    int batches = 0;
    trainer.run([&]() { return ++batches > 3; });
    EXPECT_LE(trainer.updatesApplied(), 3u);
}

TEST(PaacTrainer, LearnsPongOverLongerRun)
{
    // Sample-efficiency smoke test: PAAC should also improve on Pong.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg = baseConfig();
    cfg.numEnvs = 4;
    cfg.totalSteps = 40000;
    cfg.initialLr = 1e-3f;
    cfg.seed = 3;
    PaacTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 51));
    trainer.run();
    const auto curve = trainer.scores().movingAverage(30, 1);
    ASSERT_GT(curve.size(), 40u);
    EXPECT_GT(curve.back().second, curve.front().second + 0.5);
}
