/** @file Tests of the policy evaluator. */

#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "env/games.hh"
#include "rl/evaluate.hh"
#include "rl/fast_cpu_backend.hh"

using namespace fa3c;
using namespace fa3c::rl;

namespace {

struct Fixture
{
    nn::NetConfig netCfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net{netCfg};
    nn::ParamSet params = net.makeParams();
    ReferenceBackend backend{net};

    Fixture()
    {
        sim::Rng rng(7);
        net.initParams(params, rng);
    }

    env::AtariSession
    session(std::uint64_t seed)
    {
        env::SessionConfig cfg;
        cfg.frameStack = netCfg.inChannels;
        cfg.obsHeight = netCfg.inHeight;
        cfg.obsWidth = netCfg.inWidth;
        cfg.maxEpisodeFrames = 400;
        return env::AtariSession(env::makePong(seed), cfg, seed);
    }
};

} // namespace

TEST(EvaluatePolicy, PlaysRequestedEpisodes)
{
    Fixture f;
    auto session = f.session(3);
    EvalConfig cfg;
    cfg.episodes = 5;
    const EvalResult r =
        evaluatePolicy(f.backend, f.params, session, cfg);
    EXPECT_EQ(r.scores.count(), 5u);
    EXPECT_GT(r.steps, 0u);
    // Pong scores are bounded.
    EXPECT_GE(r.scores.min(), -5.0);
    EXPECT_LE(r.scores.max(), 5.0);
}

TEST(EvaluatePolicy, GreedyIsDeterministicGivenSameSession)
{
    Fixture f;
    EvalConfig cfg;
    cfg.episodes = 2;
    cfg.greedy = true;
    auto s1 = f.session(11);
    auto s2 = f.session(11);
    const EvalResult a = evaluatePolicy(f.backend, f.params, s1, cfg);
    const EvalResult b = evaluatePolicy(f.backend, f.params, s2, cfg);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.scores.mean(), b.scores.mean());
}

TEST(EvaluatePolicy, StepCapBoundsRuntime)
{
    Fixture f;
    auto session = f.session(5);
    EvalConfig cfg;
    cfg.episodes = 1000000;
    cfg.maxSteps = 500;
    const EvalResult r =
        evaluatePolicy(f.backend, f.params, session, cfg);
    EXPECT_LE(r.steps, 500u);
}

TEST(EvaluatePolicy, BackendsAgreeOnGreedyActions)
{
    // Per-observation parity: drive one trajectory and ask both
    // backends for the greedy action at every step. The fast backend
    // is allowed float reassociation, but policy logit gaps dwarf the
    // kernel-level noise, so the argmax must never flip.
    Fixture f;
    FastCpuBackend fast(f.net);
    fast.onParamSync(f.params);
    auto session = f.session(17);
    auto ref_act = f.net.makeActivations();
    auto fast_act = f.net.makeActivations();
    const auto greedy = [&](std::span<const float> logits) {
        return static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
    };
    for (int step = 0; step < 400; ++step) {
        const tensor::Tensor &obs = session.observation();
        f.backend.forward(f.params, obs, ref_act);
        fast.forward(f.params, obs, fast_act);
        const int a_ref = greedy(f.net.policyLogits(ref_act));
        const int a_fast = greedy(f.net.policyLogits(fast_act));
        ASSERT_EQ(a_ref, a_fast) << "argmax diverged at step " << step;
        EXPECT_NEAR(f.net.value(ref_act), f.net.value(fast_act), 1e-4f);
        session.act(a_ref);
    }
}

TEST(EvaluatePolicy, BackendsProduceIdenticalGreedyEvaluations)
{
    // Whole-evaluation parity on fixed seeds: greedy rollouts are
    // fully determined by the argmax stream, so reference and fast
    // evaluations of the same parameters must tell the same story.
    Fixture f;
    FastCpuBackend fast(f.net);
    fast.onParamSync(f.params);
    EvalConfig cfg;
    cfg.episodes = 3;
    cfg.greedy = true;
    auto s_ref = f.session(29);
    auto s_fast = f.session(29);
    const EvalResult a = evaluatePolicy(f.backend, f.params, s_ref, cfg);
    const EvalResult b = evaluatePolicy(fast, f.params, s_fast, cfg);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.scores.count(), b.scores.count());
    EXPECT_DOUBLE_EQ(a.scores.mean(), b.scores.mean());
    EXPECT_DOUBLE_EQ(a.scores.min(), b.scores.min());
    EXPECT_DOUBLE_EQ(a.scores.max(), b.scores.max());
}

TEST(EvaluatePolicy, SamplingStreamsDiffer)
{
    Fixture f;
    EvalConfig a_cfg;
    a_cfg.episodes = 3;
    a_cfg.seed = 1;
    EvalConfig b_cfg = a_cfg;
    b_cfg.seed = 2;
    auto s1 = f.session(21);
    auto s2 = f.session(21);
    const EvalResult a = evaluatePolicy(f.backend, f.params, s1, a_cfg);
    const EvalResult b = evaluatePolicy(f.backend, f.params, s2, b_cfg);
    // Different sampling seeds make different trajectories (almost
    // surely different step totals).
    EXPECT_NE(a.steps, b.steps);
}

TEST(EvaluatePolicy, SampledRunMatchesRecordedTrajectory)
{
    // Pins the sampled (non-greedy) path: one uniform draw per step
    // picks the action by inverse CDF, so the step count and the
    // score sum of a fixed-seed evaluation change if the draw or the
    // pick does.
    Fixture f;
    auto session = f.session(13);
    EvalConfig cfg;
    cfg.episodes = 4;
    cfg.seed = 5;
    const EvalResult r =
        evaluatePolicy(f.backend, f.params, session, cfg);
    EXPECT_EQ(r.scores.count(), 4u);
    EXPECT_EQ(r.steps, 283u);
    EXPECT_DOUBLE_EQ(r.scores.sum(), -6.0);
}
