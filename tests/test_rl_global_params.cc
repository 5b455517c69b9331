/** @file
 * Tests of rl::GlobalParams, the one parameter store: the staleness
 * rule of its parameter-server apply path, and concurrency stress
 * written to run under ThreadSanitizer, where threads hammer the
 * in-process applyGradients or the PS applyPush while others
 * snapshot and checkpoint concurrently.
 *
 * The torn-read invariant: state is seeded with every element of
 * theta equal and every element of g equal, and every pushed gradient
 * is uniform, so each RMSProp update moves all elements by the same
 * amount. Any observation in which theta's elements differ is
 * therefore a torn (half-applied) read. GlobalParams promises none
 * for every snapshot, checkpoint and ack copy, on both apply paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "nn/a3c_network.hh"
#include "rl/global_params.hh"

using namespace fa3c;

namespace {

constexpr int kPushers = 2;
constexpr int kPushesPerThread = 60;
constexpr std::uint64_t kStepsPerPush = 5;
constexpr std::uint64_t kAnyStaleness =
    std::numeric_limits<std::uint64_t>::max();

nn::A3cNetwork &
net()
{
    static nn::A3cNetwork n(nn::NetConfig::tiny(3));
    return n;
}

/** Fill a ParamSet with one value everywhere. */
nn::ParamSet
uniformParams(float value)
{
    nn::ParamSet p = net().makeParams();
    for (float &x : p.flat())
        x = value;
    return p;
}

/** max - min over a float range; 0 iff all elements are equal. */
template <typename Range>
float
spread(const Range &r)
{
    float lo = r[0], hi = r[0];
    for (const float x : r) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    return hi - lo;
}

} // namespace

TEST(GlobalParams, ApplyPushChecksStalenessAndLabelsTheta)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(0.5f), uniformParams(0.0f), 0, 0);
    const nn::ParamSet grads = uniformParams(1.0f);
    std::vector<float> ack;

    // Fresh gradients in synchronous mode (bound 0) are applied.
    auto r = params.applyPush(grads.flat(), 5, 0, 0, &ack);
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.staleness, 0u);
    EXPECT_EQ(r.version, 1u);
    EXPECT_EQ(r.steps, 5u);
    const nn::ParamSet after_one = params.theta();
    EXPECT_TRUE(std::ranges::equal(ack, after_one.flat()));
    EXPECT_LT(ack[0], 0.5f);

    // The same base again is one update behind: refused, counters and
    // theta unchanged, and the ack still carries theta at version 1.
    r = params.applyPush(grads.flat(), 5, 0, 0, &ack);
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(r.staleness, 1u);
    EXPECT_EQ(r.version, 1u);
    EXPECT_EQ(r.steps, 5u);
    EXPECT_TRUE(std::ranges::equal(ack, after_one.flat()));

    // Gradients that do not cover the layout are never applied.
    r = params.applyPush({}, 5, 1, kAnyStaleness, nullptr);
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(r.staleness, 0u);
    EXPECT_EQ(r.version, 1u);

    // Within a looser bound the stale push lands.
    r = params.applyPush(grads.flat(), 5, 0, 1, nullptr);
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.staleness, 1u);
    EXPECT_EQ(r.version, 2u);
    EXPECT_EQ(r.steps, 10u);
    EXPECT_EQ(params.version(), 2u);
    EXPECT_EQ(params.globalSteps(), 10u);

    // The in-process path counts versions the same way.
    params.applyGradients(grads, 5);
    std::vector<float> theta;
    EXPECT_EQ(params.snapshot(theta), 3u);
    EXPECT_LT(theta[0], ack[0]);
}

TEST(GlobalParamsStress, ConcurrentPushSnapshotCheckpointStayTornFree)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(0.5f), uniformParams(0.0f), 0, 0);

    std::atomic<bool> done{false};
    std::atomic<int> torn_snapshots{0};
    std::atomic<int> torn_checkpoints{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kPushers; ++p)
        threads.emplace_back([&params] {
            const nn::ParamSet grads = uniformParams(1.0f);
            for (int i = 0; i < kPushesPerThread; ++i)
                params.applyGradients(grads, kStepsPerPush);
        });

    threads.emplace_back([&] {
        nn::ParamSet local = net().makeParams();
        while (!done.load(std::memory_order_acquire)) {
            params.snapshot(local);
            if (spread(local.flat()) != 0.0f)
                torn_snapshots.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        nn::ParamSet theta = net().makeParams();
        nn::ParamSet g = net().makeParams();
        std::uint64_t steps = 0, version = 0;
        while (!done.load(std::memory_order_acquire)) {
            params.checkpoint(theta, g, steps, version);
            if (spread(theta.flat()) != 0.0f ||
                spread(g.flat()) != 0.0f)
                torn_checkpoints.fetch_add(1);
        }
    });

    threads[0].join();
    threads[1].join();
    done.store(true, std::memory_order_release);
    threads[2].join();
    threads[3].join();

    EXPECT_EQ(torn_snapshots.load(), 0);
    EXPECT_EQ(torn_checkpoints.load(), 0);
    EXPECT_EQ(params.globalSteps(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread *
                  kStepsPerPush);
    // All pushes landed: theta moved strictly below its seed value
    // (each uniform positive gradient subtracts from every word).
    const nn::ParamSet final_theta = params.theta();
    EXPECT_EQ(spread(final_theta.flat()), 0.0f);
    EXPECT_LT(final_theta.flat()[0], 0.5f);
}

TEST(GlobalParamsStress, ConcurrentPushesAndCheckpointStayConsistent)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(0.5f), uniformParams(0.0f), 0, 0);

    std::atomic<bool> done{false};
    std::atomic<int> refused{0};
    std::atomic<int> torn_acks{0};
    std::atomic<int> torn_checkpoints{0};
    std::atomic<int> torn_snapshots{0};

    // The parameter server's path: staleness check, update and the
    // theta copy for the ack in one critical section.
    std::vector<std::thread> threads;
    for (int p = 0; p < kPushers; ++p)
        threads.emplace_back([&] {
            const nn::ParamSet grads = uniformParams(1.0f);
            std::vector<float> ack;
            for (int i = 0; i < kPushesPerThread; ++i) {
                const auto r = params.applyPush(
                    grads.flat(), kStepsPerPush, 0, kAnyStaleness, &ack);
                if (!r.applied)
                    refused.fetch_add(1);
                if (spread(ack) != 0.0f)
                    torn_acks.fetch_add(1);
            }
        });

    threads.emplace_back([&] {
        nn::ParamSet theta = net().makeParams();
        nn::ParamSet g = net().makeParams();
        std::uint64_t steps = 0, version = 0;
        while (!done.load(std::memory_order_acquire)) {
            params.checkpoint(theta, g, steps, version);
            if (spread(theta.flat()) != 0.0f ||
                spread(g.flat()) != 0.0f)
                torn_checkpoints.fetch_add(1);
        }
    });
    threads.emplace_back([&] {
        std::vector<float> flat;
        while (!done.load(std::memory_order_acquire)) {
            params.snapshot(flat);
            if (spread(flat) != 0.0f)
                torn_snapshots.fetch_add(1);
        }
    });

    threads[0].join();
    threads[1].join();
    done.store(true, std::memory_order_release);
    threads[2].join();
    threads[3].join();

    EXPECT_EQ(refused.load(), 0);
    EXPECT_EQ(torn_acks.load(), 0);
    EXPECT_EQ(torn_checkpoints.load(), 0);
    EXPECT_EQ(torn_snapshots.load(), 0);
    EXPECT_EQ(params.version(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread);
    EXPECT_EQ(params.globalSteps(),
              static_cast<std::uint64_t>(kPushers) * kPushesPerThread *
                  kStepsPerPush);

    std::vector<float> final_theta;
    EXPECT_EQ(params.snapshot(final_theta), params.version());
    EXPECT_EQ(spread(final_theta), 0.0f);
    EXPECT_LT(final_theta[0], 0.5f);
}

TEST(GlobalParamsStress, RestoreCheckpointRoundTripKeepsVersion)
{
    rl::GlobalParams params(net(), {}, 1e-2f, 0);
    params.restore(uniformParams(1.0f), uniformParams(0.25f), 123, 45);
    EXPECT_EQ(params.globalSteps(), 123u);
    EXPECT_EQ(params.version(), 45u);

    nn::ParamSet theta = net().makeParams();
    nn::ParamSet g = net().makeParams();
    std::uint64_t steps = 0, version = 0;
    params.checkpoint(theta, g, steps, version);
    EXPECT_EQ(steps, 123u);
    EXPECT_EQ(version, 45u);
    EXPECT_EQ(spread(theta.flat()), 0.0f);
    EXPECT_FLOAT_EQ(theta.flat()[0], 1.0f);
    EXPECT_FLOAT_EQ(g.flat()[0], 0.25f);
}
