/**
 * @file
 * Tests of the quantized inference backends: action/argmax parity and
 * greedy-return parity with the fp32 fast backend across the six
 * synthetic games, bit-exact batched inference, a hash pin of the
 * int8 forward passes, backend-name mapping, checkpoint round trips
 * through a quantized trainer backend, and a PolicyServer smoke run
 * on the int8 path.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "env/games.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "rl/evaluate.hh"
#include "rl/fast_cpu_backend.hh"
#include "rl/paac.hh"
#include "rl/quant_backend.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::rl;
using namespace fa3c::test;

namespace {

using GameFactory =
    std::function<std::unique_ptr<env::Environment>(std::uint64_t)>;

struct Game
{
    const char *name;
    GameFactory make;
};

const Game kGames[] = {
    {"pong", env::makePong},
    {"breakout", env::makeBreakout},
    {"space_invaders", env::makeSpaceInvaders},
    {"beam_rider", env::makeBeamRider},
    {"qbert", env::makeQbert},
    {"seaquest", env::makeSeaquest},
};

env::AtariSession
makeSession(const Game &game, const nn::NetConfig &net_cfg,
            std::uint64_t seed)
{
    env::SessionConfig cfg;
    cfg.frameStack = net_cfg.inChannels;
    cfg.obsHeight = net_cfg.inHeight;
    cfg.obsWidth = net_cfg.inWidth;
    cfg.maxEpisodeFrames = 300;
    return env::AtariSession(game.make(seed), cfg, seed);
}

int
argmaxAction(const nn::A3cNetwork &net,
             const nn::A3cNetwork::Activations &act)
{
    const std::span<const float> logits = net.policyLogits(act);
    return static_cast<int>(
        std::max_element(logits.begin(), logits.end()) -
        logits.begin());
}

/** FNV-1a over the IEEE bit patterns of @p words, continuing @p h. */
std::uint64_t
hashWords(std::uint64_t h, std::span<const float> words)
{
    for (const float v : words) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

} // namespace

TEST(QuantBackend, ArgmaxParityAcrossSixGames)
{
    // The quantization error bound translates into action agreement:
    // across the six games the int8 policy must pick the fp32 argmax
    // action on >= 99% of on-trajectory observations.
    constexpr int kStepsPerGame = 120;
    int total = 0;
    int agree8 = 0;
    for (const auto &game : kGames) {
        const int actions = game.make(1)->numActions();
        const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
        const nn::A3cNetwork net(net_cfg);
        sim::Rng rng(71);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);

        FastCpuBackend fp32(net);
        QuantCpuBackend int8(net);
        fp32.onParamSync(params);
        int8.onParamSync(params);

        auto session = makeSession(game, net_cfg, 5);
        nn::A3cNetwork::Activations a32 = net.makeActivations();
        nn::A3cNetwork::Activations a8 = net.makeActivations();
        for (int step = 0; step < kStepsPerGame; ++step) {
            const tensor::Tensor obs = session.observation();
            fp32.forward(params, obs, a32);
            int8.forward(params, obs, a8);
            const int want = argmaxAction(net, a32);
            ++total;
            agree8 += argmaxAction(net, a8) == want ? 1 : 0;
            session.act(want); // follow the fp32 policy
        }
    }
    EXPECT_GE(agree8, (total * 99 + 99) / 100)
        << "int8 argmax agreement " << agree8 << "/" << total;
}

TEST(QuantBackend, GreedyReturnParityAcrossSixGames)
{
    // Greedy evaluation from identical session seeds: the quantized
    // policy must land within a small band of the fp32 returns.
    for (const auto &game : kGames) {
        const int actions = game.make(1)->numActions();
        const nn::NetConfig net_cfg = nn::NetConfig::tiny(actions);
        const nn::A3cNetwork net(net_cfg);
        sim::Rng rng(83);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);

        FastCpuBackend fp32(net);
        QuantCpuBackend int8(net);
        fp32.onParamSync(params);
        int8.onParamSync(params);

        EvalConfig cfg;
        cfg.episodes = 2;
        cfg.greedy = true;
        auto s32 = makeSession(game, net_cfg, 13);
        auto s8 = makeSession(game, net_cfg, 13);
        const EvalResult r32 = evaluatePolicy(fp32, params, s32, cfg);
        const EvalResult r8 = evaluatePolicy(int8, params, s8, cfg);
        EXPECT_NEAR(r8.scores.mean(), r32.scores.mean(), 3.0)
            << game.name;
    }
}

TEST(QuantBackend, ForwardBatchBitExactWithSingleForward)
{
    // The quantized forward computes per-sample scales and shares the
    // batched FC path with the single forward, so batching must be
    // bit-exact.
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(7);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);

    QuantCpuBackend batched(net);
    QuantCpuBackend single(net);
    batched.onParamSync(params);
    single.onParamSync(params);

    const int batch = 6;
    std::vector<tensor::Tensor> obs;
    std::vector<nn::A3cNetwork::Activations> acts;
    for (int s = 0; s < batch; ++s) {
        tensor::Tensor o(tensor::Shape({net.config().inChannels,
                                        net.config().inHeight,
                                        net.config().inWidth}));
        randomize(o, rng);
        // Observations are non-negative in the activation domain the
        // quantized path is specified for.
        for (std::size_t i = 0; i < o.numel(); ++i)
            o.data()[i] = std::fabs(o.data()[i]);
        obs.push_back(std::move(o));
        acts.push_back(net.makeActivations());
    }
    std::vector<const tensor::Tensor *> obs_ptrs;
    std::vector<nn::A3cNetwork::Activations *> act_ptrs;
    for (int s = 0; s < batch; ++s) {
        obs_ptrs.push_back(&obs[static_cast<std::size_t>(s)]);
        act_ptrs.push_back(&acts[static_cast<std::size_t>(s)]);
    }
    batched.forwardBatch(params, obs_ptrs, act_ptrs);

    for (int s = 0; s < batch; ++s) {
        nn::A3cNetwork::Activations ref = net.makeActivations();
        single.forward(params, obs[static_cast<std::size_t>(s)], ref);
        const auto &got = acts[static_cast<std::size_t>(s)];
        for (std::size_t i = 0; i < ref.out.numel(); ++i)
            EXPECT_EQ(got.out.data()[i], ref.out.data()[i])
                << "sample " << s << " out " << i;
    }
}

TEST(QuantBackend, BackwardMatchesFastCpuBitForBit)
{
    // The int8 backend trains through FastCpu's fp32 backward, so
    // given the same activations and g_out its gradients must be
    // FastCpu's bit for bit, on every layer and after every parameter
    // sync (the second sync catches fp32 images staged only once).
    const nn::NetConfig nets[] = {
        nn::NetConfig::tiny(4),
        nn::NetConfig::atari(env::makePong(0)->numActions())};
    for (const nn::NetConfig &cfg : nets) {
        const nn::A3cNetwork net(cfg);
        sim::Rng rng(53);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);
        FastCpuBackend fast(net);
        auto int8 = makeDnnBackend(BackendKind::Int8, net);
        for (int sync = 0; sync < 2; ++sync) {
            if (sync > 0)
                for (float &w : params.flat())
                    w += 0.01f * (rng.uniformF() - 0.5f);
            fast.onParamSync(params);
            int8->onParamSync(params);

            tensor::Tensor obs(tensor::Shape(
                {cfg.inChannels, cfg.inHeight, cfg.inWidth}));
            obs.fillUniform(rng, 0.0f, 1.0f);
            nn::A3cNetwork::Activations act = net.makeActivations();
            int8->forward(params, obs, act);
            tensor::Tensor g_out(tensor::Shape({net.outSize()}));
            randomize(g_out, rng);

            nn::ParamSet g_fast = net.makeParams();
            nn::ParamSet g_int8 = net.makeParams();
            fast.backward(params, act, g_out, g_fast);
            int8->backward(params, act, g_out, g_int8);
            for (const auto &seg : g_fast.segments()) {
                const auto want = g_fast.view(seg.name);
                const auto got = g_int8.view(seg.name);
                ASSERT_EQ(got.size(), want.size());
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << "fcSize " << cfg.fcSize << " sync " << sync
                    << " " << seg.name;
            }
        }
    }
}

TEST(QuantBackend, MakeDnnBackendAndNamesCoverQuantKinds)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    auto int8 = makeDnnBackend(BackendKind::Int8, net);
    EXPECT_NE(dynamic_cast<QuantCpuBackend *>(int8.get()), nullptr);
    EXPECT_TRUE(int8->wantsQuantized());
    EXPECT_EQ(backendKindFromName("int8"), BackendKind::Int8);
    EXPECT_STREQ(backendKindName(BackendKind::Int8), "int8");
    // "fp16" names no backend: int8 is the one quantized kind.
    EXPECT_FALSE(tryBackendKindFromName("fp16").has_value());
}

TEST(QuantBackend, CheckpointRoundTripsThroughQuantizedTrainer)
{
    // A checkpoint written under the fp32 fast backend restores into
    // an int8-backend trainer (parameters are backend-agnostic) and
    // training continues: quantized forward, inherited fp32 backward.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    auto sessions = [net_cfg](int agent_id) {
        env::SessionConfig cfg;
        cfg.frameStack = net_cfg.inChannels;
        cfg.obsHeight = net_cfg.inHeight;
        cfg.obsWidth = net_cfg.inWidth;
        cfg.maxEpisodeFrames = 600;
        return std::make_unique<env::AtariSession>(
            env::makePong(61 + static_cast<std::uint64_t>(agent_id)),
            cfg, 61 + static_cast<std::uint64_t>(agent_id));
    };

    PaacConfig cfg;
    cfg.numEnvs = 3;
    cfg.totalSteps = 200;
    cfg.seed = 15;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    PaacTrainer fast_trainer(net, cfg, {}, sessions);
    fast_trainer.run();
    const TrainingCheckpoint ckpt = fast_trainer.checkpoint();

    cfg.backend = BackendKind::Int8;
    cfg.totalSteps = 400;
    PaacTrainer int8_trainer(net, cfg, {}, sessions);
    ASSERT_TRUE(int8_trainer.restore(ckpt));
    const std::uint64_t resumed_at =
        int8_trainer.globalParams().globalSteps();
    EXPECT_GE(resumed_at, 200u);
    int8_trainer.run();
    EXPECT_GT(int8_trainer.globalParams().globalSteps(), resumed_at);

    // And back: a quantized-trainer checkpoint restores under fp32.
    const TrainingCheckpoint ckpt2 = int8_trainer.checkpoint();
    cfg.backend = BackendKind::FastCpu;
    cfg.totalSteps = 500;
    PaacTrainer fast_trainer2(net, cfg, {}, sessions);
    ASSERT_TRUE(fast_trainer2.restore(ckpt2));
    fast_trainer2.run();
    EXPECT_GE(fast_trainer2.globalParams().globalSteps(), 500u);
}

TEST(QuantBackend, PolicyServerServesOnInt8Backend)
{
    using namespace fa3c::serve;
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);

    ServeConfig cfg;
    cfg.queue.maxDepth = 256;
    cfg.batch.maxBatch = 4;
    cfg.workers = 1;
    cfg.backend = BackendKind::Int8;
    PolicyServer server(net, cfg);

    sim::Rng rng(29);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    server.publish(std::move(params));
    server.start();

    tensor::Tensor obs(tensor::Shape(
        {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));
    for (std::size_t i = 0; i < obs.numel(); ++i)
        obs.data()[i] = static_cast<float>(i % 17) / 17.0f;

    for (int i = 0; i < 20; ++i) {
        auto future = server.submit(obs);
        const Response resp = future.get();
        ASSERT_EQ(resp.status, Status::Ok);
        EXPECT_GE(resp.action, 0);
        EXPECT_LT(resp.action, net_cfg.numActions);
        EXPECT_TRUE(std::isfinite(resp.value));
        EXPECT_EQ(resp.modelVersion, 1u);
    }
    sim::StatGroup stats = server.statsSnapshot();
    EXPECT_GE(stats.counter("served").value(), 20u);
    server.stop();
}

TEST(QuantBackend, Int8PassesMatchRecordedHashes)
{
    // Pins int8 forwardBatch word for word on the Table 1 Pong net and
    // the fcSize 1024 serving net, at batch 1 and batch 5. Each hash
    // runs over the batch's samples in order. Every kernel ISA tier
    // (FA3C_KERNELS_ISA=generic|avx2|avx512) must match.
    const int actions = env::makePong(0)->numActions();
    nn::NetConfig wide = nn::NetConfig::atari(actions);
    wide.fcSize = 1024;
    const nn::NetConfig nets[] = {nn::NetConfig::atari(actions), wide};
    struct Want
    {
        std::uint64_t conv1Pre, conv2Pre, fc3Pre, out;
    };
    const Want want[2][2] = {
        {{0x5e1ea6c12daf7420ull, 0xa7299b193f7fa811ull,
          0xc38a4c5ea9e68bebull, 0x35757e9fdfcdc92full},
         {0x71733a569c820964ull, 0xa9e5b5b8196c8383ull,
          0x3e5aff27eb0fca12ull, 0xfa5722ae4118c65bull}},
        {{0x7f3b72a866a37e68ull, 0x5f79a4a59a7bf9a5ull,
          0x4fd67e150b6386bfull, 0x547f4fa04394ab26ull},
         {0xfefb94ba49f4d905ull, 0xcc0e0375d1478d8bull,
          0xbb1526553aed51d3ull, 0xa31b2db21254a652ull}},
    };
    const int batches[] = {1, 5};
    for (int n = 0; n < 2; ++n) {
        const nn::A3cNetwork net(nets[n]);
        sim::Rng rng(47);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);
        auto int8 = makeDnnBackend(BackendKind::Int8, net);
        int8->onParamSync(params);
        for (int b = 0; b < 2; ++b) {
            const int batch = batches[b];
            std::vector<tensor::Tensor> obs;
            std::vector<nn::A3cNetwork::Activations> acts;
            std::vector<const tensor::Tensor *> obs_ptrs;
            std::vector<nn::A3cNetwork::Activations *> act_ptrs;
            for (int s = 0; s < batch; ++s) {
                obs.emplace_back(tensor::Shape({net.config().inChannels,
                                                net.config().inHeight,
                                                net.config().inWidth}));
                obs.back().fillUniform(rng, 0.0f, 1.0f);
                acts.push_back(net.makeActivations());
            }
            for (int s = 0; s < batch; ++s) {
                obs_ptrs.push_back(&obs[static_cast<std::size_t>(s)]);
                act_ptrs.push_back(&acts[static_cast<std::size_t>(s)]);
            }
            int8->forwardBatch(params, obs_ptrs, act_ptrs);
            Want got{kFnvBasis, kFnvBasis, kFnvBasis, kFnvBasis};
            for (const auto &a : acts) {
                got.conv1Pre = hashWords(got.conv1Pre, a.conv1Pre.data());
                got.conv2Pre = hashWords(got.conv2Pre, a.conv2Pre.data());
                got.fc3Pre = hashWords(got.fc3Pre, a.fc3Pre.data());
                got.out = hashWords(got.out, a.out.data());
            }
            const Want &w = want[n][b];
            EXPECT_EQ(got.conv1Pre, w.conv1Pre)
                << "net " << n << " batch " << batch << " conv1Pre";
            EXPECT_EQ(got.conv2Pre, w.conv2Pre)
                << "net " << n << " batch " << batch << " conv2Pre";
            EXPECT_EQ(got.fc3Pre, w.fc3Pre)
                << "net " << n << " batch " << batch << " fc3Pre";
            EXPECT_EQ(got.out, w.out)
                << "net " << n << " batch " << batch << " out";
        }
    }
}
