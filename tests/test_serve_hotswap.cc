/**
 * @file
 * Hot-swap under load: a publisher thread keeps publishing new
 * parameter versions while client threads hammer the server. Every
 * response must be internally consistent — computed entirely from one
 * model version, never from a half-swapped parameter set.
 *
 * The probe exploits the network head: with all weights zero, the
 * value output is exactly the FC4 value-head bias, so publishing
 * version v with that bias set to float(v) makes any torn read
 * detectable as value != modelVersion. Run under TSan in CI.
 */

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

/** Zero weights; value head reads back exactly float(version). */
nn::ParamSet
versionStampedParams(const nn::A3cNetwork &net, std::uint64_t version)
{
    nn::ParamSet params = net.makeParams();
    params.view("fc4.b")[static_cast<std::size_t>(
        net.config().numActions)] = static_cast<float>(version);
    return params;
}

} // namespace

TEST(ServeHotswap, SwapsNeverTearInFlightRequests)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);

    ServeConfig cfg;
    cfg.queue.maxDepth = 4096; // nothing should be rejected
    cfg.batch.maxBatch = 8;
    cfg.workers = 2;
    cfg.backend = rl::BackendKind::FastCpu;
    PolicyServer server(net, cfg);

    server.publish(versionStampedParams(net, 1));
    server.start();

    tensor::Tensor obs(tensor::Shape(
        {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));
    for (std::size_t i = 0; i < obs.numel(); ++i)
        obs.data()[i] = static_cast<float>(i % 31) / 31.0f;

    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 200;
    constexpr int kPublishes = 40;

    std::atomic<bool> publishing{true};
    std::thread publisher([&] {
        for (std::uint64_t v = 2; v <= 1 + kPublishes; ++v) {
            server.publish(versionStampedParams(net, v));
            std::this_thread::sleep_for(1ms);
        }
        publishing.store(false);
    });

    std::atomic<int> served{0};
    std::atomic<int> torn{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (int i = 0; i < kRequestsPerClient; ++i) {
                const Response r = server.submitAndWait(obs);
                if (r.status != Status::Ok) {
                    failed.fetch_add(1);
                    continue;
                }
                served.fetch_add(1);
                // The value head is exactly the published stamp, so a
                // response mixing two versions cannot satisfy this.
                if (r.value !=
                        static_cast<float>(r.modelVersion) ||
                    r.modelVersion < 1 ||
                    r.modelVersion > 1 + kPublishes)
                    torn.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    publisher.join();

    EXPECT_EQ(torn.load(), 0);
    EXPECT_EQ(failed.load(), 0);
    EXPECT_EQ(served.load(), kClients * kRequestsPerClient);
    EXPECT_EQ(server.modelVersion(), 1u + kPublishes);

    server.stop();
    const sim::StatGroup stats = server.statsSnapshot();
    EXPECT_EQ(stats.counterValue("served"),
              static_cast<std::uint64_t>(kClients * kRequestsPerClient));
    EXPECT_EQ(stats.counterValue("model_publishes"), 1u + kPublishes);
    // Workers re-staged weights at least once per observed version
    // change; they never need more stages than publishes * workers.
    EXPECT_GE(stats.counterValue("param_stages"), 1u);
    EXPECT_LE(stats.counterValue("param_stages"),
              static_cast<std::uint64_t>((1 + kPublishes) * cfg.workers));
}

TEST(ServeHotswap, LateRequestsSeeTheNewestVersion)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    const nn::A3cNetwork net(net_cfg);

    ServeConfig cfg;
    cfg.batch.maxBatch = 4;
    cfg.workers = 1;
    PolicyServer server(net, cfg);
    server.publish(versionStampedParams(net, 1));
    server.start();

    tensor::Tensor obs(tensor::Shape(
        {net_cfg.inChannels, net_cfg.inHeight, net_cfg.inWidth}));

    Response r = server.submitAndWait(obs);
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.modelVersion, 1u);
    EXPECT_EQ(r.value, 1.0f);

    server.publish(versionStampedParams(net, 2));
    r = server.submitAndWait(obs);
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.modelVersion, 2u);
    EXPECT_EQ(r.value, 2.0f);
}
