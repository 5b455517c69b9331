/** @file Tests of the GA3C trainer (single global model, policy lag). */

#include <gtest/gtest.h>

#include <vector>

#include "env/games.hh"
#include "rl/ga3c.hh"

using namespace fa3c;
using namespace fa3c::rl;

namespace {

Ga3cTrainer::SessionFactory
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

Ga3cConfig
baseConfig()
{
    Ga3cConfig cfg;
    cfg.numEnvs = 4;
    cfg.trainingBatch = 2;
    cfg.totalSteps = 600;
    cfg.seed = 5;
    cfg.lrAnnealSteps = 0;
    return cfg;
}

Ga3cTrainer
makeTrainer(const nn::A3cNetwork &net, const nn::NetConfig &net_cfg,
            const Ga3cConfig &cfg, std::uint64_t env_seed)
{
    return Ga3cTrainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, env_seed));
}

} // namespace

TEST(Ga3cTrainer, ConsumesStepsAndApplies_batchedUpdates)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg = baseConfig();
    Ga3cTrainer trainer = makeTrainer(net, net_cfg, cfg, 11);
    trainer.run();
    EXPECT_GE(trainer.globalParams().globalSteps(), cfg.totalSteps);
    EXPECT_GT(trainer.updatesApplied(), 0u);
    // Each update fuses trainingBatch rollouts of up to tMax steps.
    EXPECT_GE(trainer.updatesApplied() *
                  static_cast<std::uint64_t>(cfg.trainingBatch *
                                             cfg.tMax),
              trainer.globalParams().globalSteps() -
                  static_cast<std::uint64_t>(cfg.numEnvs * cfg.tMax));
}

TEST(Ga3cTrainer, BuildsOnePredictorAndOneTrainerBackend)
{
    // The predictor (id 0) serves every environment under
    // theta_predict and the trainer (id 1) runs under theta_train;
    // a run and a restore build no more.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    std::vector<int> built;
    Ga3cTrainer trainer(
        net, baseConfig(),
        [&](int id) {
            built.push_back(id);
            return std::make_unique<ReferenceBackend>(net);
        },
        pongSessions(net_cfg, 17));
    EXPECT_EQ(built, (std::vector<int>{0, 1}));
    trainer.run();
    ASSERT_TRUE(trainer.restore(trainer.checkpoint()));
    EXPECT_EQ(built, (std::vector<int>{0, 1}));
}

TEST(Ga3cTrainer, PredictorRefreshCadenceHonored)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig lazy = baseConfig();
    lazy.predictorRefreshUpdates = 4;
    Ga3cTrainer lazy_trainer = makeTrainer(net, net_cfg, lazy, 21);
    lazy_trainer.run();

    Ga3cConfig eager = baseConfig();
    eager.predictorRefreshUpdates = 1;
    Ga3cTrainer eager_trainer = makeTrainer(net, net_cfg, eager, 21);
    eager_trainer.run();

    // Eager refreshes once per update; lazy once per four.
    EXPECT_EQ(eager_trainer.predictorRefreshes(),
              eager_trainer.updatesApplied());
    EXPECT_LE(lazy_trainer.predictorRefreshes(),
              lazy_trainer.updatesApplied() / 4 + 1);
}

TEST(Ga3cTrainer, PolicyLagExistsBetweenRefreshes)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg = baseConfig();
    cfg.predictorRefreshUpdates = 1000000; // never refresh
    Ga3cTrainer trainer = makeTrainer(net, net_cfg, cfg, 31);
    trainer.run();
    // The trainer moved the global parameters while the predictor
    // kept its stale copy: the lag the paper's Section 6 describes.
    EXPECT_GT(trainer.currentPolicyLag(), 0.0f);
}

TEST(Ga3cTrainer, DeterministicAcrossRuns)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    auto run_once = [&]() {
        Ga3cTrainer trainer = makeTrainer(net, net_cfg, baseConfig(),
                                          41);
        trainer.run();
        nn::ParamSet out = net.makeParams();
        out.copyFrom(trainer.globalParams().theta());
        return out;
    };
    nn::ParamSet a = run_once();
    nn::ParamSet b = run_once();
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(a, b), 0.0f);
}

TEST(Ga3cTrainer, ScoresLoggedOverLongerRun)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg = baseConfig();
    cfg.totalSteps = 4000;
    Ga3cTrainer trainer = makeTrainer(net, net_cfg, cfg, 51);
    trainer.run();
    EXPECT_GT(trainer.scores().size(), 0u);
}
