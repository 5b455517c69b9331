/** @file
 * Tests of the A3C algorithm pieces: the host-side delta-objective
 * (checked against a finite-difference of the actual loss), gradient
 * clipping, the shared action sampler, the global parameter store,
 * the score log, deterministic round-robin training, and the
 * trainer's telemetry attachment.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "env/games.hh"
#include "nn/layers.hh"
#include "rl/a3c.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::rl;
using fa3c::tensor::Shape;
using fa3c::tensor::Tensor;

namespace {

/** The A3C loss the delta-objective differentiates, as a function of
 * the raw logits and the value output. */
double
a3cLoss(std::span<const float> logits, float value, int action,
        float ret, float beta, float value_scale)
{
    std::vector<float> probs(logits.size());
    nn::softmax(logits, probs);
    const double advantage = ret - value;
    double loss =
        -std::log(static_cast<double>(
            probs[static_cast<std::size_t>(action)])) *
        advantage;
    loss -= beta * static_cast<double>(nn::entropy(probs));
    loss += 0.5 * value_scale * (ret - value) * (ret - value);
    return loss;
}

} // namespace

TEST(DeltaObjective, MatchesFiniteDifferenceOfLoss)
{
    sim::Rng rng(3);
    const int num_actions = 6;
    std::vector<float> logits(num_actions);
    test::randomize(std::span<float>(logits), rng);
    const float value = 0.3f;
    const float ret = 1.2f;
    const int action = 2;
    const float beta = 0.01f;
    const float value_scale = 0.5f;

    std::vector<float> probs(num_actions);
    nn::softmax(logits, probs);
    std::vector<float> g(num_actions + 1);
    deltaObjective(probs, action, ret, value, beta, value_scale, g);

    // Logit gradients: perturb each logit. Note the advantage term
    // (ret - value) is treated as a constant in the policy loss, as
    // in A3C, which the loss above reproduces because perturbing a
    // logit does not change value.
    const float h = 1e-3f;
    for (int j = 0; j < num_actions; ++j) {
        std::vector<float> up = logits, down = logits;
        up[static_cast<std::size_t>(j)] += h;
        down[static_cast<std::size_t>(j)] -= h;
        const double fd = (a3cLoss(up, value, action, ret, beta,
                                   value_scale) -
                           a3cLoss(down, value, action, ret, beta,
                                   value_scale)) /
                          (2.0 * h);
        EXPECT_NEAR(g[static_cast<std::size_t>(j)], fd, 2e-3)
            << "logit " << j;
    }

    // Value gradient: the policy term also depends on value through
    // the advantage, but A3C stops that gradient; only the value loss
    // contributes.
    const double fd_v =
        (0.5 * value_scale * (ret - (value + h)) * (ret - (value + h)) -
         0.5 * value_scale * (ret - (value - h)) * (ret - (value - h))) /
        (2.0 * h);
    EXPECT_NEAR(g[static_cast<std::size_t>(num_actions)], fd_v, 2e-3);
}

TEST(DeltaObjective, PositiveAdvantageReinforcesChosenAction)
{
    std::vector<float> probs = {0.25f, 0.25f, 0.25f, 0.25f};
    std::vector<float> g(5);
    deltaObjective(probs, 1, /*ret=*/2.0f, /*value=*/0.0f, 0.0f, 0.5f,
                   g);
    // Gradient-descent direction increases the chosen logit...
    EXPECT_LT(g[1], 0.0f);
    // ...and decreases the others.
    EXPECT_GT(g[0], 0.0f);
    EXPECT_GT(g[2], 0.0f);
}

TEST(DeltaObjective, EntropyTermFlattensConfidentPolicies)
{
    std::vector<float> probs = {0.97f, 0.01f, 0.01f, 0.01f};
    std::vector<float> g_no_entropy(5), g_entropy(5);
    // Zero advantage isolates the entropy term.
    deltaObjective(probs, 0, 0.0f, 0.0f, 0.0f, 0.5f, g_no_entropy);
    deltaObjective(probs, 0, 0.0f, 0.0f, 0.1f, 0.5f, g_entropy);
    for (int j = 0; j < 4; ++j)
        EXPECT_NEAR(g_no_entropy[static_cast<std::size_t>(j)], 0.0f,
                    1e-6f);
    // Entropy regularization pushes the dominant logit down.
    EXPECT_GT(g_entropy[0], 0.0f);
    EXPECT_LT(g_entropy[1], 0.0f);
}

TEST(ClipGradNorm, ScalesOnlyWhenAboveLimit)
{
    nn::ParamSet grads({{"w", 4}});
    grads.flat()[0] = 3.0f;
    grads.flat()[1] = 4.0f; // norm 5
    const float norm = clipGradNorm(grads, 10.0f);
    EXPECT_NEAR(norm, 5.0f, 1e-5f);
    EXPECT_FLOAT_EQ(grads.flat()[0], 3.0f);

    const float norm2 = clipGradNorm(grads, 1.0f);
    EXPECT_NEAR(norm2, 5.0f, 1e-5f);
    EXPECT_NEAR(grads.flat()[0], 0.6f, 1e-5f);
    EXPECT_NEAR(grads.flat()[1], 0.8f, 1e-5f);
}

namespace {

/** clipGradNorm's former sequential double sum, the reference order. */
float
sequentialClipGradNorm(std::span<float> grads, float max_norm)
{
    double sq = 0.0;
    for (float g : grads)
        sq += static_cast<double>(g) * static_cast<double>(g);
    const float norm = static_cast<float>(std::sqrt(sq));
    if (max_norm > 0.0f && norm > max_norm && norm > 0.0f) {
        const float scale = max_norm / norm;
        for (float &g : grads)
            g *= scale;
    }
    return norm;
}

} // namespace

TEST(ClipGradNorm, InterleavedSumMatchesSequentialSum)
{
    // clipGradNorm adds the squares in 16 interleaved partial sums,
    // which round apart from the sequential sum only when the exact
    // norm lies within about 1e-13 of a float rounding boundary. On
    // these gradient-sized sets (the Table 1 Pong net's 677,943
    // words, magnitudes spread over six decades) the float norm and
    // every scaled word equal the sequential sum's, with clipping
    // off, on and not triggered.
    constexpr std::size_t kWords = 677943;
    sim::Rng rng(2026);
    nn::ParamSet got({{"w", kWords}});
    std::vector<float> want(kWords);
    for (int trial = 0; trial < 48; ++trial) {
        for (std::size_t i = 0; i < kWords; ++i) {
            const float v = (-1.0f + 2.0f * rng.uniformF()) *
                            std::pow(10.0f, -6.0f * rng.uniformF());
            got.flat()[i] = v;
            want[i] = v;
        }
        const float norm = sequentialClipGradNorm(want, 0.0f);
        const float limits[] = {0.0f, 0.5f * norm, 2.0f * norm};
        const float max_norm = limits[trial % 3];
        ASSERT_EQ(sequentialClipGradNorm(want, max_norm), norm);
        ASSERT_EQ(clipGradNorm(got, max_norm), norm) << "trial " << trial;
        ASSERT_EQ(std::memcmp(got.flat().data(), want.data(),
                              kWords * sizeof(float)),
                  0)
            << "trial " << trial << ", max_norm " << max_norm;
    }
}

TEST(SampleAction, PicksByInverseCdfWithOneDrawPerCall)
{
    // sim::Rng(42) draws 0.0839, 0.3790, 0.6800, 0.9247, 0.9918,
    // 0.7697, ... Against the CDF {0.25, 0.75, 1.0} the first four
    // draws pick actions 0, 1, 1 and 2.
    sim::Rng rng(42);
    const std::vector<float> probs = {0.25f, 0.5f, 0.25f};
    EXPECT_EQ(sampleAction(probs, rng), 0);
    EXPECT_EQ(sampleAction(probs, rng), 1);
    EXPECT_EQ(sampleAction(probs, rng), 1);
    EXPECT_EQ(sampleAction(probs, rng), 2);
    // These probabilities sum to 0.75, below the next two draws, so
    // both fall through to the last action although it has no mass.
    const std::vector<float> short_probs = {0.5f, 0.25f, 0.0f};
    EXPECT_EQ(sampleAction(short_probs, rng), 2);
    EXPECT_EQ(sampleAction(short_probs, rng), 2);
    // Six calls took exactly six draws.
    sim::Rng twin(42);
    for (int i = 0; i < 6; ++i)
        (void)twin.uniformF();
    EXPECT_EQ(rng.uniformF(), twin.uniformF());
}

TEST(GlobalParams, SnapshotAndAnnealing)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    GlobalParams global(net, nn::RmspropConfig{}, 0.1f,
                        /*anneal=*/1000);
    sim::Rng rng(3);
    global.initialize(rng);
    EXPECT_FLOAT_EQ(global.currentLearningRate(), 0.1f);

    nn::ParamSet local = net.makeParams();
    global.snapshot(local);
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(local, global.theta()),
                    0.0f);

    nn::ParamSet grads = net.makeParams();
    grads.flat()[0] = 1.0f;
    global.applyGradients(grads, 500);
    EXPECT_EQ(global.globalSteps(), 500u);
    EXPECT_NEAR(global.currentLearningRate(), 0.05f, 1e-6f);
    // Theta moved against the gradient.
    EXPECT_LT(global.theta().flat()[0], local.flat()[0]);

    global.applyGradients(grads, 600);
    EXPECT_FLOAT_EQ(global.currentLearningRate(), 0.0f);
}

TEST(ScoreLog, RecordsAndAverages)
{
    ScoreLog log;
    for (int i = 0; i < 10; ++i)
        log.record(static_cast<std::uint64_t>(i * 100),
                   static_cast<double>(i), i % 2);
    EXPECT_EQ(log.size(), 10u);
    EXPECT_DOUBLE_EQ(log.recentMean(4), (6 + 7 + 8 + 9) / 4.0);
    EXPECT_DOUBLE_EQ(log.recentMean(100), 4.5);

    const auto series = log.movingAverage(4, 2);
    ASSERT_FALSE(series.empty());
    // The last point covers the last window.
    EXPECT_DOUBLE_EQ(series.back().second, (6 + 7 + 8 + 9) / 4.0);
    EXPECT_EQ(series.back().first, 900u);
}

TEST(ScoreLog, EmptyIsSafe)
{
    ScoreLog log;
    EXPECT_DOUBLE_EQ(log.recentMean(5), 0.0);
    EXPECT_TRUE(log.movingAverage(5).empty());
}

namespace {

A3cTrainer::SessionFactory
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

} // namespace

TEST(A3cTrainer, SynchronousRunConsumesConfiguredSteps)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 200;
    cfg.async = false;
    cfg.seed = 5;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 11));
    trainer.run();
    EXPECT_GE(trainer.globalParams().globalSteps(), cfg.totalSteps);
    // Rollouts are at most t_max beyond the limit.
    EXPECT_LT(trainer.globalParams().globalSteps(),
              cfg.totalSteps + static_cast<std::uint64_t>(cfg.tMax) *
                                   static_cast<std::uint64_t>(
                                       cfg.numAgents));
}

TEST(A3cTrainer, SynchronousRunIsDeterministic)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 150;
    cfg.async = false;
    cfg.seed = 9;

    auto run_once = [&]() {
        A3cTrainer trainer(
            net, cfg,
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

TEST(A3cTrainer, SyncRunChecksStopEarlyOncePerRoutine)
{
    // Round-robin mode asks stop_early once before each routine, so a
    // callback that stops on its sixth call ends the run after five
    // routines (one update each), including the round boundary after
    // the second and fourth.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 1'000'000;
    cfg.async = false;
    cfg.seed = 4;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 13));
    int calls = 0;
    trainer.run([&calls] { return ++calls > 5; });
    EXPECT_EQ(trainer.globalParams().version(), 5u);
    EXPECT_EQ(calls, 6);
}

TEST(A3cTrainer, AsyncRunMakesProgressAndLogsEpisodes)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 4;
    cfg.totalSteps = 3000;
    cfg.async = true;
    cfg.seed = 13;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 31));
    trainer.run();
    EXPECT_GE(trainer.globalParams().globalSteps(), cfg.totalSteps);
    EXPECT_GT(trainer.scores().size(), 0u);
}

TEST(A3cTrainer, DiagnosticsTrackEntropyAndGradNorms)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 300;
    cfg.async = false;
    cfg.seed = 23;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 61));
    trainer.run();

    const auto entropy = trainer.diagnostics().entropy();
    const auto grad_norm = trainer.diagnostics().gradNorm();
    EXPECT_GT(entropy.count(), 0u);
    EXPECT_EQ(entropy.count(), grad_norm.count());
    // Policy entropy is bounded by ln(numActions).
    EXPECT_GE(entropy.min(), 0.0);
    EXPECT_LE(entropy.max(), std::log(3.0) + 1e-5);
    // A freshly initialized policy is near uniform.
    EXPECT_GT(entropy.mean(), 0.5 * std::log(3.0));
    EXPECT_GT(grad_norm.mean(), 0.0);
}

TEST(A3cTrainer, ParametersChangeDuringTraining)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 1;
    cfg.totalSteps = 100;
    cfg.async = false;
    cfg.seed = 17;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 41));
    nn::ParamSet before = net.makeParams();
    before.copyFrom(trainer.globalParams().theta());
    trainer.run();
    EXPECT_GT(nn::ParamSet::maxAbsDiff(
                  before, trainer.globalParams().theta()),
              0.0f);
}

TEST(A3cTrainer, FastCpuSyncRunMatchesRecordedTrajectory)
{
    // Pins the whole FastCpu routine (FW, BW, GC, grad clipping,
    // shared RMSProp) word for word. The constants were recorded
    // while FC forward still ran over a transposed wT copy and RMSProp
    // was a scalar loop; the staged panel image that replaced the
    // copy, the transposing load that replaced the image and the
    // vectorized update are bit-identical rewrites, and every kernel
    // ISA tier (FA3C_KERNELS_ISA=generic|avx2|avx512) must match too.
    // fcSize 70 adds a 6-column tail strip to fc3 and an odd k to fc4.
    struct Pin
    {
        int fcSize;
        std::uint64_t steps;
        std::uint64_t theta;
        std::uint64_t g;
    };
    const Pin pins[] = {
        {64, 601, 0x97d41ff4f9268664ull, 0x7359b16364d9c825ull},
        {70, 603, 0x567890022d5f7092ull, 0x1b03648614d3e1a9ull},
    };
    for (const Pin &pin : pins) {
        nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
        net_cfg.fcSize = pin.fcSize;
        nn::A3cNetwork net(net_cfg);
        A3cConfig cfg;
        cfg.numAgents = 2;
        cfg.totalSteps = 600;
        cfg.async = false;
        cfg.seed = 29;
        cfg.backend = BackendKind::FastCpu;
        A3cTrainer trainer(net, cfg, /*backend_factory=*/{},
                           pongSessions(net_cfg, 71));
        trainer.run();

        nn::ParamSet theta = net.makeParams();
        nn::ParamSet g = net.makeParams();
        std::uint64_t steps = 0, version = 0;
        trainer.globalParams().checkpoint(theta, g, steps, version);
        EXPECT_EQ(steps, pin.steps) << "fcSize " << pin.fcSize;
        EXPECT_EQ(hashWords(theta), pin.theta) << "fcSize " << pin.fcSize;
        EXPECT_EQ(hashWords(g), pin.g) << "fcSize " << pin.fcSize;
    }
}

namespace {

/** Whether /metrics holds the A3C progress gauge and /readyz lists
 * the A3C trainer's probe. */
std::pair<bool, bool>
a3cTelemetryAttached(obs::TelemetryServer &server)
{
    std::string ready;
    server.renderReady(ready);
    return {server.renderMetrics().find("rl_a3c_global_steps") !=
                std::string::npos,
            ready.find("trainer.a3c") != std::string::npos};
}

/** Death-test child: 0 when the trainer's gauge and probe are
 * attached mid-run and gone once run() returns. */
int
telemetryChild()
{
    sim::setLogLevel(sim::LogLevel::Warn);
    ::setenv("FA3C_TELEMETRY_PORT", "0", 1);
    obs::TelemetryServer *server = obs::telemetry();
    if (server == nullptr)
        return 2;

    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 100;
    cfg.async = false;
    A3cTrainer trainer(
        net, cfg,
        [&net](int) { return std::make_unique<ReferenceBackend>(net); },
        pongSessions(net_cfg, 3));
    std::pair<bool, bool> during{false, false};
    trainer.run([&] {
        if (trainer.globalParams().globalSteps() > 0)
            during = a3cTelemetryAttached(*server);
        return false;
    });
    const std::pair<bool, bool> after = a3cTelemetryAttached(*server);
    return during.first && during.second && !after.first &&
                   !after.second
               ? 0
               : 1;
}

} // namespace

TEST(A3cTrainerDeathTest, TelemetryAttachedOnlyDuringRun)
{
    // The telemetry server is process-wide and created from the
    // environment on first use, so the check runs in a fresh child.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(std::exit(telemetryChild()),
                ::testing::ExitedWithCode(0), "");
}
