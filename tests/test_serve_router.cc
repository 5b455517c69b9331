/**
 * @file
 * ReplicaRouter tests: routing policies (least-loaded spread,
 * consistent-hash session affinity), fleet-wide shedding with
 * retry_after_us hints, and the coordinated hot-swap barrier (zero
 * failed requests under publish churn, every replica answering with
 * the published version).
 */

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/router.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

struct Fixture
{
    nn::NetConfig netCfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net{netCfg};
    nn::ParamSet params = net.makeParams();

    Fixture()
    {
        sim::Rng rng(31);
        net.initParams(params, rng);
    }

    tensor::Tensor
    observation(float scale) const
    {
        tensor::Tensor obs(tensor::Shape(
            {netCfg.inChannels, netCfg.inHeight, netCfg.inWidth}));
        for (std::size_t i = 0; i < obs.numel(); ++i)
            obs.data()[i] =
                scale * static_cast<float>(i % 53) / 53.0f;
        return obs;
    }

    FleetConfig
    fleet(int replicas, RoutePolicy policy) const
    {
        FleetConfig cfg;
        cfg.replicas = replicas;
        cfg.policy = policy;
        cfg.replica.batch.maxBatch = 4;
        cfg.replica.workers = 1;
        return cfg;
    }
};

/** FastCpu backend with an artificial floor on batch latency, so a
 * test can congest a queue deterministically. */
class SlowBackend : public rl::DnnBackend
{
  public:
    SlowBackend(const nn::A3cNetwork &net,
                std::chrono::microseconds delay)
        : inner_(rl::makeDnnBackend(rl::BackendKind::FastCpu, net)),
          delay_(delay)
    {
    }

    const nn::A3cNetwork &network() const override
    {
        return inner_->network();
    }
    void onParamSync(const nn::ParamSet &params) override
    {
        inner_->onParamSync(params);
    }
    void forward(const nn::ParamSet &params, const tensor::Tensor &obs,
                 nn::A3cNetwork::Activations &act) override
    {
        std::this_thread::sleep_for(delay_);
        inner_->forward(params, obs, act);
    }
    void backward(const nn::ParamSet &params,
                  const nn::A3cNetwork::Activations &act,
                  const tensor::Tensor &g_out,
                  nn::ParamSet &grads) override
    {
        inner_->backward(params, act, g_out, grads);
    }
    void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
        override
    {
        std::this_thread::sleep_for(delay_);
        inner_->forwardBatch(params, obs, acts);
    }

  private:
    std::unique_ptr<rl::DnnBackend> inner_;
    std::chrono::microseconds delay_;
};

} // namespace

TEST(ServeRouter, PolicyNamesRoundTrip)
{
    EXPECT_STREQ(routePolicyName(RoutePolicy::LeastLoaded),
                 "least-loaded");
    EXPECT_STREQ(routePolicyName(RoutePolicy::ConsistentHash), "hash");
    EXPECT_EQ(tryRoutePolicyFromName("least-loaded"),
              RoutePolicy::LeastLoaded);
    EXPECT_EQ(tryRoutePolicyFromName("hash"),
              RoutePolicy::ConsistentHash);
    EXPECT_EQ(tryRoutePolicyFromName("consistent-hash"),
              RoutePolicy::ConsistentHash);
    EXPECT_FALSE(tryRoutePolicyFromName("round-robin").has_value());
}

TEST(ServeRouter, RoutesAndServesAcrossReplicas)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(2, RoutePolicy::LeastLoaded));
    router.publish(f.params);
    router.start();
    ASSERT_EQ(router.replicas(), 2);

    const tensor::Tensor obs = f.observation(1.0f);
    for (int i = 0; i < 40; ++i) {
        const Response r = router.submitAndWait(obs);
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.modelVersion, router.modelVersion());
    }
    EXPECT_EQ(router.routed(), 40u);
    EXPECT_EQ(router.sheds(), 0u);

    // The rotating tiebreak spreads an idle fleet: both replicas
    // served something.
    std::uint64_t served0 =
        router.replica(0).statsSnapshot().counterValue("served");
    std::uint64_t served1 =
        router.replica(1).statsSnapshot().counterValue("served");
    EXPECT_EQ(served0 + served1, 40u);
    EXPECT_GT(served0, 0u);
    EXPECT_GT(served1, 0u);
    router.stop();
}

TEST(ServeRouter, ConsistentHashPinsSessionToOneReplica)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(3, RoutePolicy::ConsistentHash));
    router.publish(f.params);
    router.start();

    const tensor::Tensor obs = f.observation(0.7f);
    constexpr std::uint64_t kSession = 0xC0FFEE;
    for (int i = 0; i < 30; ++i)
        ASSERT_EQ(router.submitAndWait(obs, 0us, kSession).status,
                  Status::Ok);
    router.stop();

    // Every request with the same session key landed on one replica.
    int replicas_used = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < router.replicas(); ++i) {
        const std::uint64_t served =
            router.replica(i).statsSnapshot().counterValue("served");
        total += served;
        if (served > 0)
            ++replicas_used;
    }
    EXPECT_EQ(total, 30u);
    EXPECT_EQ(replicas_used, 1);
}

TEST(ServeRouter, HashSpreadsDistinctSessions)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(3, RoutePolicy::ConsistentHash));
    router.publish(f.params);
    router.start();

    const tensor::Tensor obs = f.observation(0.4f);
    for (std::uint64_t session = 1; session <= 60; ++session)
        ASSERT_EQ(router.submitAndWait(obs, 0us, session).status,
                  Status::Ok);
    router.stop();

    // 60 distinct sessions over a 3-replica / 64-vnode ring: every
    // replica should own a share.
    for (int i = 0; i < router.replicas(); ++i)
        EXPECT_GT(
            router.replica(i).statsSnapshot().counterValue("served"),
            0u)
            << "replica " << i << " owns no ring share";
}

TEST(ServeRouter, ShedsPastAggregateDepthWithRetryHint)
{
    Fixture f;
    FleetConfig cfg = f.fleet(2, RoutePolicy::LeastLoaded);
    cfg.replica.queue.maxDepth = 16;
    cfg.shed.depthFraction = 0.25; // shed at 8 queued fleet-wide
    cfg.shed.baseRetryUs = 1500;
    ReplicaRouter router(f.net, cfg, [&f](int) {
        return std::make_unique<SlowBackend>(f.net, 2000us);
    });
    router.publish(f.params);
    router.start();

    const tensor::Tensor obs = f.observation(0.9f);
    std::vector<std::future<Response>> futures;
    futures.reserve(200);
    for (int i = 0; i < 200; ++i)
        futures.push_back(router.submit(obs));

    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    for (auto &fut : futures) {
        const Response r = fut.get();
        if (r.status == Status::Ok) {
            ++ok;
        } else {
            ASSERT_EQ(r.status, Status::RejectedShed);
            // Shed responses always carry a usable back-off hint,
            // clamped to [base, max].
            EXPECT_GE(r.retryAfterUs, cfg.shed.baseRetryUs);
            EXPECT_LE(r.retryAfterUs, cfg.shed.maxRetryUs);
            ++shed;
        }
    }
    router.stop();

    // A 2 ms service floor against a burst of 200 must shed most of
    // the burst at the router, and what was admitted must be served.
    EXPECT_GT(shed, 0u);
    EXPECT_GT(ok, 0u);
    EXPECT_EQ(router.sheds(), shed);
    EXPECT_EQ(router.routed(), ok);
    EXPECT_NEAR(router.shedRate(),
                static_cast<double>(shed) /
                    static_cast<double>(shed + ok),
                1e-9);
}

TEST(ServeRouter, DepthFractionOneDisablesRouterShedding)
{
    Fixture f;
    FleetConfig cfg = f.fleet(1, RoutePolicy::LeastLoaded);
    cfg.replica.queue.maxDepth = 4;
    cfg.shed.depthFraction = 1.0;
    ReplicaRouter router(f.net, cfg, [&f](int) {
        return std::make_unique<SlowBackend>(f.net, 1000us);
    });
    router.publish(f.params);
    router.start();

    const tensor::Tensor obs = f.observation(0.9f);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(router.submit(obs));
    bool queue_full_seen = false;
    for (auto &fut : futures) {
        const Response r = fut.get();
        EXPECT_NE(r.status, Status::RejectedShed);
        queue_full_seen = queue_full_seen ||
                          r.status == Status::RejectedQueueFull;
    }
    // The replica's own admission bound still applies.
    EXPECT_TRUE(queue_full_seen);
    EXPECT_EQ(router.sheds(), 0u);
    router.stop();
}

TEST(ServeRouter, CoordinatedHotSwapIsLockstepAndLossless)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(2, RoutePolicy::LeastLoaded));
    const std::uint64_t v1 = router.publish(f.params);
    EXPECT_EQ(v1, 1u);
    router.start();

    // Closed-loop load while the main thread barrier-publishes.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> failed{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < 4; ++c) {
        threads.emplace_back([&, c] {
            const tensor::Tensor obs =
                f.observation(0.5f + 0.1f * static_cast<float>(c));
            while (!stop.load(std::memory_order_relaxed)) {
                const Response r = router.submitAndWait(obs);
                if (r.status == Status::Ok)
                    ok.fetch_add(1, std::memory_order_relaxed);
                else
                    failed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::uint64_t last_version = v1;
    for (int i = 0; i < 20; ++i) {
        last_version = router.publish(f.params);
        std::this_thread::sleep_for(2ms);
        // Barrier semantics: after publish() returns, every replica
        // is already on the new version.
        for (int rep = 0; rep < router.replicas(); ++rep)
            EXPECT_EQ(router.replica(rep).modelVersion(),
                      last_version);
    }
    stop.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(last_version, 21u);
    EXPECT_EQ(router.modelVersion(), last_version);

    // No serve gap: nothing failed across 20 live swaps.
    EXPECT_EQ(failed.load(), 0u);
    EXPECT_GT(ok.load(), 0u);

    // Every replica answers from the published version.
    const tensor::Tensor obs = f.observation(1.0f);
    for (int rep = 0; rep < router.replicas(); ++rep) {
        const Response r = router.replica(rep).submitAndWait(obs);
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.modelVersion, last_version);
    }
    router.stop();
}

TEST(ServeRouter, DirectReplicaPublishResynchronizesFleet)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(2, RoutePolicy::LeastLoaded));
    EXPECT_EQ(router.publish(f.params), 1u);
    router.start();

    // A caller pushes one replica ahead through the direct accessor;
    // the next fleet publish must level the skew, not abort.
    nn::ParamSet extra = f.net.makeParams();
    extra.copyFrom(f.params);
    EXPECT_EQ(router.replica(0).publish(std::move(extra)), 2u);

    const std::uint64_t v = router.publish(f.params);
    EXPECT_EQ(v, 3u);
    EXPECT_EQ(router.modelVersion(), v);
    for (int rep = 0; rep < router.replicas(); ++rep)
        EXPECT_EQ(router.replica(rep).modelVersion(), v);

    const Response r = router.submitAndWait(f.observation(0.6f));
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.modelVersion, v);
    router.stop();
}

TEST(ServeRouter, SubmitAsyncDeliversCompletion)
{
    Fixture f;
    ReplicaRouter router(f.net,
                         f.fleet(2, RoutePolicy::LeastLoaded));
    router.publish(f.params);
    router.start();

    std::promise<Response> delivered;
    router.submitAsync(f.observation(0.8f), 0us, 5, {},
                       [&delivered](Response &&r) {
                           delivered.set_value(std::move(r));
                       });
    const Response r = delivered.get_future().get();
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.modelVersion, 1u);
    router.stop();
}
