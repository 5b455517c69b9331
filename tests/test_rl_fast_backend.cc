/**
 * @file
 * Tests of the FastCpuBackend: activation/gradient parity with the
 * reference backend, bit-exact batched inference, the nn.kernel.*
 * timing samples of the CPU backends, trainer selection through the
 * config backend field, and checkpoint compatibility.
 */

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/games.hh"
#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "obs/metrics.hh"
#include "rl/a3c.hh"
#include "rl/fast_cpu_backend.hh"
#include "rl/ga3c.hh"
#include "rl/paac.hh"
#include "rl/quant_backend.hh"
#include "test_util.hh"

using namespace fa3c;
using namespace fa3c::rl;
using namespace fa3c::test;

namespace {

constexpr std::uint64_t kActUlp = 16;
constexpr float kActAbs = 1e-6f;
constexpr std::uint64_t kGradUlp = 512;
constexpr float kGradAbs = 2e-5f;

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

tensor::Tensor
randomObs(const nn::A3cNetwork &net, sim::Rng &rng)
{
    tensor::Tensor obs(tensor::Shape({net.config().inChannels,
                                      net.config().inHeight,
                                      net.config().inWidth}));
    randomize(obs, rng);
    return obs;
}

/** FNV-1a over the IEEE bit patterns of @p words. */
std::uint64_t
hashWords(std::span<const float> words)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const float v : words) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** True when @p got and @p want hold the same words bit for bit. */
bool
sameBits(std::span<const float> got, std::span<const float> want)
{
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
}

/**
 * Hashes of one FastCpu backward on the Table 1 Pong net (params and
 * observation from sim::Rng(43), then g_out; see
 * Table1PassesMatchRecordedHashes), per gradient segment.
 */
const std::map<std::string, std::uint64_t> &
table1GradHashes()
{
    static const std::map<std::string, std::uint64_t> hashes = {
        {"conv1.w", 0x74d5ac15a7059948ull},
        {"conv1.b", 0x6d09e4312e025b66ull},
        {"conv2.w", 0x3de13233f8a3ebcbull},
        {"conv2.b", 0x191b939d0fb070c6ull},
        {"fc3.w", 0x508847f280a1634bull},
        {"fc3.b", 0xc6840a72115ea941ull},
        {"fc4.w", 0xd9d96f2b2c8a6adfull},
        {"fc4.b", 0x4216f7a3524df9c4ull},
    };
    return hashes;
}

/** Sample count of every nn.kernel.* histogram in the registry. */
std::map<std::string, std::uint64_t>
kernelSamples()
{
    std::map<std::string, std::uint64_t> out;
    obs::metrics().forEachGroup(
        [&](const std::string &name, const sim::StatGroup &group) {
            if (name != "nn.kernel")
                return;
            for (const auto &[kernel, dist] : group.distributions())
                out[kernel] = dist.count();
        });
    return out;
}

/** Per-kernel samples added since @p before (zero deltas dropped). */
std::map<std::string, std::uint64_t>
samplesSince(const std::map<std::string, std::uint64_t> &before)
{
    std::map<std::string, std::uint64_t> added;
    for (const auto &[kernel, count] : kernelSamples()) {
        const auto it = before.find(kernel);
        const std::uint64_t was = it == before.end() ? 0 : it->second;
        if (count != was)
            added[kernel] = count - was;
    }
    return added;
}

} // namespace

TEST(FastCpuBackend, ForwardMatchesReference)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(3);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);

    ReferenceBackend ref(net);
    FastCpuBackend fast(net);
    fast.onParamSync(params);

    for (int trial = 0; trial < 3; ++trial) {
        const tensor::Tensor obs = randomObs(net, rng);
        nn::A3cNetwork::Activations a_ref = net.makeActivations();
        nn::A3cNetwork::Activations a_fast = net.makeActivations();
        ref.forward(params, obs, a_ref);
        fast.forward(params, obs, a_fast);

        expectAllClose(a_fast.conv1Pre.data(), a_ref.conv1Pre.data(),
                       kActUlp, kActAbs, "conv1Pre");
        expectAllClose(a_fast.conv2Pre.data(), a_ref.conv2Pre.data(),
                       kActUlp, kActAbs, "conv2Pre");
        expectAllClose(a_fast.fc3Pre.data(), a_ref.fc3Pre.data(),
                       kActUlp, kActAbs, "fc3Pre");
        expectAllClose(a_fast.out.data(), a_ref.out.data(), kActUlp,
                       kActAbs, "out");
    }
}

TEST(FastCpuBackend, BackwardMatchesReference)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(5);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);

    ReferenceBackend ref(net);
    FastCpuBackend fast(net);
    fast.onParamSync(params);

    const tensor::Tensor obs = randomObs(net, rng);
    nn::A3cNetwork::Activations act = net.makeActivations();
    ref.forward(params, obs, act);

    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    randomize(g_out, rng);

    nn::ParamSet g_ref = net.makeParams();
    nn::ParamSet g_fast = net.makeParams();
    ref.backward(params, act, g_out, g_ref);
    fast.backward(params, act, g_out, g_fast);

    for (const auto &seg : g_ref.segments())
        expectAllClose(g_fast.view(seg.name), g_ref.view(seg.name),
                       kGradUlp, kGradAbs, seg.name.c_str());
}

TEST(FastCpuBackend, ForwardAndBackwardReadCurrentParams)
{
    // FastCpu keeps no copy of the weights: after the parameters
    // change in place, with no onParamSync, the next forward and
    // backward must equal a fresh backend's on the new parameters word
    // for word. Both nets run fc3's forward through the GEMM and
    // conv2's backward through the transposed-A form; the Table 1 net
    // adds its 8-strip fc3.
    for (const nn::NetConfig &cfg :
         {nn::NetConfig::tiny(4), nn::NetConfig::atari(4)}) {
        SCOPED_TRACE(::testing::Message() << "fcSize " << cfg.fcSize);
        const nn::A3cNetwork net(cfg);
        sim::Rng rng(29);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);
        const tensor::Tensor obs = randomObs(net, rng);
        tensor::Tensor g_out(tensor::Shape({net.outSize()}));
        randomize(g_out, rng);

        FastCpuBackend used(net);
        used.onParamSync(params);
        nn::A3cNetwork::Activations act = net.makeActivations();
        nn::ParamSet grads = net.makeParams();
        used.forward(params, obs, act);
        used.backward(params, act, g_out, grads);

        net.initParams(params, rng);
        grads.zero();
        used.forward(params, obs, act);
        used.backward(params, act, g_out, grads);

        FastCpuBackend fresh(net);
        fresh.onParamSync(params);
        nn::A3cNetwork::Activations want_act = net.makeActivations();
        nn::ParamSet want_grads = net.makeParams();
        fresh.forward(params, obs, want_act);
        fresh.backward(params, want_act, g_out, want_grads);

        EXPECT_TRUE(sameBits(act.conv2Pre.data(), want_act.conv2Pre.data()))
            << "conv2Pre";
        EXPECT_TRUE(sameBits(act.fc3Pre.data(), want_act.fc3Pre.data()))
            << "fc3Pre";
        EXPECT_TRUE(sameBits(act.out.data(), want_act.out.data()))
            << "out";
        for (const auto &seg : grads.segments())
            EXPECT_TRUE(sameBits(grads.view(seg.name),
                                 want_grads.view(seg.name)))
                << seg.name;
    }
}

TEST(FastCpuBackend, Table1PassesMatchRecordedHashes)
{
    // Pins one FastCpu forward and one backward on the Table 1 Pong
    // net word for word. The trajectory pins run only the tiny net,
    // which never takes the 8x8/stride-4 conv1 path. The constants
    // were recorded while im2col still ran the shuffle gather and
    // im2row a memcpy per tap row; the plain-loop transforms only move
    // data, and every kernel ISA tier
    // (FA3C_KERNELS_ISA=generic|avx2|avx512) must match too.
    const nn::A3cNetwork net(
        nn::NetConfig::atari(env::makePong(0)->numActions()));
    sim::Rng rng(43);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    FastCpuBackend fast(net);
    fast.onParamSync(params);

    const tensor::Tensor obs = randomObs(net, rng);
    nn::A3cNetwork::Activations act = net.makeActivations();
    fast.forward(params, obs, act);
    EXPECT_EQ(hashWords(act.conv1Pre.data()), 0x12613bb5053f5b9dull)
        << "conv1Pre";
    EXPECT_EQ(hashWords(act.conv2Pre.data()), 0x662dca37528bed23ull)
        << "conv2Pre";
    EXPECT_EQ(hashWords(act.fc3Pre.data()), 0x681ff34f55211fffull)
        << "fc3Pre";
    EXPECT_EQ(hashWords(act.out.data()), 0xa6d79f009248d498ull)
        << "out";

    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    randomize(g_out, rng);
    nn::ParamSet grads = net.makeParams();
    fast.backward(params, act, g_out, grads);
    const std::map<std::string, std::uint64_t> &want = table1GradHashes();
    ASSERT_EQ(grads.segments().size(), want.size());
    for (const auto &seg : grads.segments())
        EXPECT_EQ(hashWords(grads.view(seg.name)), want.at(seg.name))
            << seg.name;
}

TEST(FastCpuBackend, ForwardBatchBitExactWithSingleForward)
{
    // Nets that reach every FC forward path: the tiny net (fc3 of two
    // full strips, small fc4 head), the Table 1 net, fcSize 70 (a
    // 6-column fc3 tail strip), and a 41-wide head that takes the fc4
    // GEMM path with a 9-column tail. Batch sizes 1..17 cover the
    // lone-request route and every register-tile height and remainder.
    auto wide_head = nn::NetConfig::tiny(40);
    wide_head.fcSize = 70;
    auto fc70 = nn::NetConfig::tiny(4);
    fc70.fcSize = 70;
    const nn::NetConfig nets[] = {nn::NetConfig::tiny(4),
                                  nn::NetConfig::atari(4), fc70,
                                  wide_head};
    constexpr int kMaxBatch = 17;
    for (const nn::NetConfig &cfg : nets) {
        const nn::A3cNetwork net(cfg);
        sim::Rng rng(7);
        nn::ParamSet params = net.makeParams();
        net.initParams(params, rng);

        FastCpuBackend batched(net);
        FastCpuBackend single(net);
        batched.onParamSync(params);
        single.onParamSync(params);

        std::vector<tensor::Tensor> obs;
        std::vector<nn::A3cNetwork::Activations> want;
        for (int s = 0; s < kMaxBatch; ++s) {
            obs.push_back(randomObs(net, rng));
            want.push_back(net.makeActivations());
            single.forward(params, obs.back(), want.back());
        }

        for (int batch = 1; batch <= kMaxBatch; ++batch) {
            std::vector<nn::A3cNetwork::Activations> acts;
            for (int s = 0; s < batch; ++s)
                acts.push_back(net.makeActivations());
            std::vector<const tensor::Tensor *> obs_ptrs;
            std::vector<nn::A3cNetwork::Activations *> act_ptrs;
            for (int s = 0; s < batch; ++s) {
                obs_ptrs.push_back(&obs[static_cast<std::size_t>(s)]);
                act_ptrs.push_back(&acts[static_cast<std::size_t>(s)]);
            }
            batched.forwardBatch(params, obs_ptrs, act_ptrs);

            // The batched FC GEMM accumulates per element in the
            // single-sample order over the same weights, so every
            // activation must be bit-identical.
            for (int s = 0; s < batch; ++s) {
                const auto &ref = want[static_cast<std::size_t>(s)];
                const auto &got = acts[static_cast<std::size_t>(s)];
                const auto where = [&] {
                    return ::testing::Message()
                           << "fcSize " << cfg.fcSize << ", out "
                           << net.outSize() << ", batch " << batch
                           << ", sample " << s;
                };
                for (std::size_t i = 0; i < ref.out.numel(); ++i)
                    ASSERT_EQ(got.out.data()[i], ref.out.data()[i])
                        << where() << ", out " << i;
                for (std::size_t i = 0; i < ref.fc3Pre.numel(); ++i)
                    ASSERT_EQ(got.fc3Pre.data()[i], ref.fc3Pre.data()[i])
                        << where() << ", fc3Pre " << i;
                for (std::size_t i = 0; i < ref.fc3Act.numel(); ++i)
                    ASSERT_EQ(got.fc3Act.data()[i], ref.fc3Act.data()[i])
                        << where() << ", fc3Act " << i;
                for (std::size_t i = 0; i < ref.conv2Act.numel(); ++i)
                    ASSERT_EQ(got.conv2Act.data()[i],
                              ref.conv2Act.data()[i])
                        << where() << ", conv2Act " << i;
            }
        }
    }
}

TEST(FastCpuBackend, ConcurrentCallersMatchSingleThreadResults)
{
    // Two backends run the pool-split passes at once, as two training
    // agents or two serve workers do: whichever call takes the kernel
    // pool splits across it, and the other runs its tasks inline.
    // Every backward must still give the recorded Table 1 hashes and
    // every batch of 3 the single-sample forward()'s activations, for
    // FastCpu and for the int8 backend (its own forward, FastCpu's
    // backward).
    const nn::A3cNetwork net(
        nn::NetConfig::atari(env::makePong(0)->numActions()));
    sim::Rng rng(43);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    const tensor::Tensor obs = randomObs(net, rng);
    nn::A3cNetwork::Activations act = net.makeActivations();
    FastCpuBackend(net).forward(params, obs, act);
    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    randomize(g_out, rng);
    constexpr int kBatch = 3;
    std::vector<tensor::Tensor> batch_obs;
    for (int s = 0; s < kBatch; ++s)
        batch_obs.push_back(randomObs(net, rng));
    std::vector<const tensor::Tensor *> obs_ptrs;
    for (const auto &o : batch_obs)
        obs_ptrs.push_back(&o);

    for (const BackendKind kind : {BackendKind::FastCpu, BackendKind::Int8}) {
        std::vector<nn::A3cNetwork::Activations> want;
        {
            const auto single = makeDnnBackend(kind, net);
            single->onParamSync(params);
            for (const auto &o : batch_obs) {
                want.push_back(net.makeActivations());
                single->forward(params, o, want.back());
            }
        }
        constexpr int kThreads = 2;
        constexpr int kRounds = 12;
        std::atomic<int> bad_backward{0};
        std::atomic<int> bad_batch{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&] {
                const auto backend = makeDnnBackend(kind, net);
                backend->onParamSync(params);
                nn::ParamSet grads = net.makeParams();
                std::vector<nn::A3cNetwork::Activations> acts;
                std::vector<nn::A3cNetwork::Activations *> act_ptrs;
                for (int s = 0; s < kBatch; ++s)
                    acts.push_back(net.makeActivations());
                for (auto &a : acts)
                    act_ptrs.push_back(&a);
                for (int round = 0; round < kRounds; ++round) {
                    grads.zero();
                    backend->backward(params, act, g_out, grads);
                    for (const auto &seg : grads.segments())
                        if (hashWords(grads.view(seg.name)) !=
                            table1GradHashes().at(seg.name))
                            bad_backward.fetch_add(1);
                    backend->forwardBatch(params, obs_ptrs, act_ptrs);
                    for (int s = 0; s < kBatch; ++s) {
                        const auto &got = acts[static_cast<std::size_t>(s)];
                        const auto &ref = want[static_cast<std::size_t>(s)];
                        if (!sameBits(got.conv2Act.data(),
                                      ref.conv2Act.data()) ||
                            !sameBits(got.fc3Pre.data(),
                                      ref.fc3Pre.data()) ||
                            !sameBits(got.out.data(), ref.out.data()))
                            bad_batch.fetch_add(1);
                    }
                }
            });
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(bad_backward.load(), 0) << backendKindName(kind);
        EXPECT_EQ(bad_batch.load(), 0) << backendKindName(kind);
    }
}

TEST(FastCpuBackend, DefaultForwardBatchMatchesForward)
{
    // The DnnBackend base-class fallback must serve any backend.
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(9);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);

    ReferenceBackend backend(net);
    const tensor::Tensor o1 = randomObs(net, rng);
    const tensor::Tensor o2 = randomObs(net, rng);
    nn::A3cNetwork::Activations a1 = net.makeActivations();
    nn::A3cNetwork::Activations a2 = net.makeActivations();
    const std::vector<const tensor::Tensor *> obs = {&o1, &o2};
    std::vector<nn::A3cNetwork::Activations *> acts = {&a1, &a2};
    backend.forwardBatch(params, obs, acts);

    nn::A3cNetwork::Activations want = net.makeActivations();
    backend.forward(params, o2, want);
    for (std::size_t i = 0; i < want.out.numel(); ++i)
        EXPECT_EQ(a2.out.data()[i], want.out.data()[i]);
}

TEST(FastCpuBackend, KernelTimerSamplesEachKernelCallWhileEnabled)
{
    // The nn.kernel.* histograms are the one per-kernel timing signal:
    // one sample per timed kernel call while metrics are on, none
    // while they are off.
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    sim::Rng rng(17);
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    FastCpuBackend fast(net);
    QuantCpuBackend q8(net);
    fast.onParamSync(params);
    q8.onParamSync(params);

    constexpr int kBatch = 3;
    std::vector<tensor::Tensor> obs_store;
    std::vector<nn::A3cNetwork::Activations> act_store;
    for (int s = 0; s < kBatch; ++s) {
        obs_store.push_back(randomObs(net, rng));
        act_store.push_back(net.makeActivations());
    }
    std::vector<const tensor::Tensor *> obs;
    std::vector<nn::A3cNetwork::Activations *> acts;
    for (int s = 0; s < kBatch; ++s) {
        obs.push_back(&obs_store[static_cast<std::size_t>(s)]);
        acts.push_back(&act_store[static_cast<std::size_t>(s)]);
    }
    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    randomize(g_out, rng);
    nn::ParamSet grads = net.makeParams();

    auto &m = obs::metrics();
    const bool was_enabled = m.enabled();
    m.setEnabled(true);

    auto before = kernelSamples();
    fast.forward(params, *obs[0], *acts[0]);
    using Counts = std::map<std::string, std::uint64_t>;
    EXPECT_EQ(samplesSince(before), (Counts{{"conv_fw", 2}, {"fc_fw", 2}}))
        << "FastCpu forward";

    before = kernelSamples();
    fast.backward(params, *acts[0], g_out, grads);
    EXPECT_EQ(samplesSince(before),
              (Counts{{"fc_gc", 2},
                      {"fc_bw", 2},
                      {"conv_gc", 2},
                      {"conv_bw", 1}}))
        << "FastCpu backward";

    before = kernelSamples();
    q8.forwardBatch(params, obs, acts);
    EXPECT_EQ(samplesSince(before),
              (Counts{{"conv_fw_q8", 2 * kBatch}, {"fc_fw_q8", 2}}))
        << "int8 forwardBatch at batch " << kBatch;

    m.setEnabled(false);
    before = kernelSamples();
    fast.forward(params, *obs[0], *acts[0]);
    fast.backward(params, *acts[0], g_out, grads);
    q8.forwardBatch(params, obs, acts);
    EXPECT_TRUE(samplesSince(before).empty()) << "metrics disabled";

    m.setEnabled(was_enabled);
}

TEST(FastCpuBackend, MakeDnnBackendAndNames)
{
    const nn::A3cNetwork net(nn::NetConfig::tiny(4));
    auto ref = makeDnnBackend(BackendKind::Reference, net);
    auto fast = makeDnnBackend(BackendKind::FastCpu, net);
    EXPECT_NE(dynamic_cast<ReferenceBackend *>(ref.get()), nullptr);
    EXPECT_NE(dynamic_cast<FastCpuBackend *>(fast.get()), nullptr);
    EXPECT_EQ(backendKindFromName("fast"), BackendKind::FastCpu);
    EXPECT_EQ(backendKindFromName("reference"), BackendKind::Reference);
    EXPECT_STREQ(backendKindName(BackendKind::FastCpu), "fast");
    EXPECT_STREQ(backendKindName(BackendKind::Reference), "reference");
    EXPECT_THROW(backendKindFromName("gpu"), std::logic_error);
}

TEST(FastCpuBackend, A3cTrainsWithConfigSelectedBackend)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 200;
    cfg.async = false;
    cfg.seed = 5;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    A3cTrainer trainer(net, cfg, /*backend_factory=*/{},
                       pongSessions(net_cfg, 11));
    nn::ParamSet before = net.makeParams();
    before.copyFrom(trainer.globalParams().theta());
    trainer.run();
    EXPECT_GE(trainer.globalParams().globalSteps(), cfg.totalSteps);
    EXPECT_GT(nn::ParamSet::maxAbsDiff(
                  before, trainer.globalParams().theta()),
              0.0f);
}

TEST(FastCpuBackend, PaacTrainsWithConfigSelectedBackend)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg;
    cfg.numEnvs = 3;
    cfg.totalSteps = 200;
    cfg.seed = 5;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    PaacTrainer trainer(net, cfg, /*backend_factory=*/{},
                        pongSessions(net_cfg, 21));
    nn::ParamSet before = net.makeParams();
    before.copyFrom(trainer.globalParams().theta());
    trainer.run();
    EXPECT_GT(trainer.updatesApplied(), 0u);
    EXPECT_GT(nn::ParamSet::maxAbsDiff(
                  before, trainer.globalParams().theta()),
              0.0f);
}

TEST(FastCpuBackend, Ga3cTrainsWithConfigSelectedBackend)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg;
    cfg.numEnvs = 3;
    cfg.totalSteps = 200;
    cfg.seed = 5;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    Ga3cTrainer trainer(net, cfg, /*backend_factory=*/{},
                        pongSessions(net_cfg, 31));
    nn::ParamSet before = net.makeParams();
    before.copyFrom(trainer.globalParams().theta());
    trainer.run();
    EXPECT_GT(trainer.updatesApplied(), 0u);
    EXPECT_GT(nn::ParamSet::maxAbsDiff(
                  before, trainer.globalParams().theta()),
              0.0f);
}

namespace {

/** A trainer's step count and FNV-1a hashes of its theta and g. */
struct TrajectoryPin
{
    std::uint64_t steps;
    std::uint64_t theta;
    std::uint64_t g;
};

TrajectoryPin
pinOf(const nn::A3cNetwork &net, GlobalParams &global)
{
    nn::ParamSet theta = net.makeParams();
    nn::ParamSet g = net.makeParams();
    TrajectoryPin pin{};
    std::uint64_t version = 0;
    global.checkpoint(theta, g, pin.steps, version);
    pin.theta = hashWords(theta.flat());
    pin.g = hashWords(g.flat());
    return pin;
}

} // namespace

TEST(FastCpuBackend, PaacRunMatchesRecordedTrajectory)
{
    // Pins a whole FastCpu PAAC run (lock-step batched forward,
    // bootstrap forwards, per-sample backward, averaged update) word
    // for word; every kernel ISA tier must match too.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg;
    cfg.numEnvs = 4;
    cfg.totalSteps = 400;
    cfg.seed = 37;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    PaacTrainer trainer(net, cfg, /*backend_factory=*/{},
                        pongSessions(net_cfg, 61));
    trainer.run();
    const TrajectoryPin got = pinOf(net, trainer.globalParams());
    EXPECT_EQ(got.steps, 416u);
    EXPECT_EQ(got.theta, 0x7599794955f2283dull);
    EXPECT_EQ(got.g, 0x45f29c15a30b1127ull);
}

TEST(FastCpuBackend, Ga3cRunMatchesRecordedTrajectory)
{
    // Pins a whole FastCpu GA3C run (batched predictor forward under a
    // stale snapshot, trainer forwards and backward under the current
    // theta) word for word; every kernel ISA tier must match too.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg;
    cfg.numEnvs = 4;
    cfg.trainingBatch = 2;
    cfg.predictorRefreshUpdates = 2;
    cfg.totalSteps = 400;
    cfg.seed = 41;
    cfg.lrAnnealSteps = 0;
    cfg.backend = BackendKind::FastCpu;
    Ga3cTrainer trainer(net, cfg, /*backend_factory=*/{},
                        pongSessions(net_cfg, 67));
    trainer.run();
    const TrajectoryPin got = pinOf(net, trainer.globalParams());
    EXPECT_EQ(got.steps, 400u);
    EXPECT_EQ(got.theta, 0x2a7ff81b14b1335eull);
    EXPECT_EQ(got.g, 0x618c0b7204333be7ull);
}

TEST(FastCpuBackend, PaacDeterministicAndCheckpointRoundTrip)
{
    // Fast-backend PAAC must stay deterministic, and a checkpoint
    // taken mid-run must resume to the exact same trajectory.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    auto make_cfg = [](std::uint64_t total) {
        PaacConfig cfg;
        cfg.numEnvs = 3;
        cfg.totalSteps = total;
        cfg.seed = 9;
        cfg.lrAnnealSteps = 0;
        cfg.backend = BackendKind::FastCpu;
        return cfg;
    };

    // One straight run to 400 steps.
    PaacTrainer straight(net, make_cfg(400), {},
                         pongSessions(net_cfg, 41));
    straight.run();

    // The same run split by a checkpoint/restore at 200 steps.
    PaacTrainer first(net, make_cfg(200), {},
                      pongSessions(net_cfg, 41));
    first.run();
    const TrainingCheckpoint ckpt = first.checkpoint();

    PaacTrainer second(net, make_cfg(400), {},
                       pongSessions(net_cfg, 41));
    ASSERT_TRUE(second.restore(ckpt));
    second.run();

    EXPECT_FLOAT_EQ(
        nn::ParamSet::maxAbsDiff(straight.globalParams().theta(),
                                 second.globalParams().theta()),
        0.0f);
}

TEST(FastCpuBackend, CheckpointCompatibleAcrossBackends)
{
    // A checkpoint written under the reference backend restores into a
    // fast-backend trainer (parameters are backend-agnostic) and
    // training continues from it.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg;
    cfg.numEnvs = 3;
    cfg.totalSteps = 200;
    cfg.seed = 13;
    cfg.lrAnnealSteps = 0;
    PaacTrainer ref_trainer(net, cfg, {}, pongSessions(net_cfg, 51));
    ref_trainer.run();
    const TrainingCheckpoint ckpt = ref_trainer.checkpoint();

    cfg.backend = BackendKind::FastCpu;
    cfg.totalSteps = 400;
    PaacTrainer fast_trainer(net, cfg, {}, pongSessions(net_cfg, 51));
    ASSERT_TRUE(fast_trainer.restore(ckpt));
    const std::uint64_t resumed_at =
        fast_trainer.globalParams().globalSteps();
    EXPECT_GE(resumed_at, 200u);
    fast_trainer.run();
    EXPECT_GT(fast_trainer.globalParams().globalSteps(), resumed_at);
}
