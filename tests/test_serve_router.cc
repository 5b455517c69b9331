/**
 * @file
 * ReplicaRouter tests: least-loaded spread, fleet-wide shedding with
 * retry_after_us hints, the coordinated hot-swap barrier (zero
 * failed requests under publish churn, every replica answering with
 * the published version), and the one completion channel: every
 * terminal status reaches a submitAsync handler exactly once.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
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
    fleet(int replicas) const
    {
        FleetConfig cfg;
        cfg.replicas = replicas;
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

/** One submitAsync completion: how often its handler ran, and the
 * response of the first run. */
struct Delivery
{
    std::atomic<int> calls{0};
    std::promise<Response> first;
    std::future<Response> response = first.get_future();

    static std::function<void(Response &&)>
    handler(const std::shared_ptr<Delivery> &d)
    {
        return [d](Response &&r) {
            if (d->calls.fetch_add(1) == 0)
                d->first.set_value(std::move(r));
        };
    }
};

/** @p d's handler already ran (before submitAsync returned) with
 * @p want. */
void
expectCompletedInline(Delivery &d, Status want)
{
    ASSERT_EQ(d.calls.load(), 1) << "handler did not run inline";
    EXPECT_EQ(d.response.get().status, want);
}

/** @p d's handler runs with @p want within 10 s. */
void
expectCompletes(Delivery &d, Status want)
{
    ASSERT_EQ(d.response.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(d.response.get().status, want);
}

/** Block until @p server's worker has taken every queued request. */
void
waitForEmptyQueue(const PolicyServer &server)
{
    for (int i = 0; i < 10000 && server.queueDepth() != 0; ++i)
        std::this_thread::sleep_for(100us);
    ASSERT_EQ(server.queueDepth(), 0u);
}

} // namespace

TEST(ServeRouter, RoutesAndServesAcrossReplicas)
{
    Fixture f;
    ReplicaRouter router(f.net, f.fleet(2));
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

TEST(ServeRouter, ShedsPastAggregateDepthWithRetryHint)
{
    Fixture f;
    FleetConfig cfg = f.fleet(2);
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
    FleetConfig cfg = f.fleet(1);
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
    ReplicaRouter router(f.net, f.fleet(2));
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
    ReplicaRouter router(f.net, f.fleet(2));
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
    ReplicaRouter router(f.net, f.fleet(2));
    router.publish(f.params);
    router.start();

    std::promise<Response> delivered;
    router.submitAsync(f.observation(0.8f), 0us, {},
                       [&delivered](Response &&r) {
                           delivered.set_value(std::move(r));
                       });
    const Response r = delivered.get_future().get();
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.modelVersion, 1u);
    router.stop();
}

TEST(ServeRouter, SubmitAsyncCompletesEveryStatusExactlyOnce)
{
    Fixture f;
    const tensor::Tensor obs = f.observation(0.5f);
    const tensor::Tensor bad(tensor::Shape({7}));
    // Long enough that the queue holds still while the test congests
    // it: one batch keeps the only worker busy for 100 ms.
    const auto slow = [&f](int) {
        return std::make_unique<SlowBackend>(f.net, 100ms);
    };

    // Every status a PolicyServer produces, through the replica's own
    // submitAsync and through the router's, which forwards everything
    // while router shedding is off.
    for (const bool via_router : {false, true}) {
        SCOPED_TRACE(via_router ? "ReplicaRouter::submitAsync"
                                : "PolicyServer::submitAsync");
        FleetConfig cfg = f.fleet(1);
        cfg.replica.queue.maxDepth = 1;
        cfg.shed.depthFraction = 1.0;
        ReplicaRouter router(f.net, cfg, slow);
        PolicyServer &server = router.replica(0);
        std::vector<std::shared_ptr<Delivery>> all;
        const auto submit = [&](const tensor::Tensor &o,
                                std::chrono::microseconds budget) {
            auto d = all.emplace_back(std::make_shared<Delivery>());
            if (via_router)
                router.submitAsync(o, budget, {}, Delivery::handler(d));
            else
                server.submitAsync(o, budget, {}, Delivery::handler(d));
            return d;
        };

        expectCompletedInline(*submit(obs, 0us), Status::RejectedNoModel);
        router.publish(f.params);
        expectCompletedInline(*submit(bad, 0us),
                              Status::RejectedBadRequest);
        router.start();

        // The worker takes the first request and is busy for 100 ms.
        // The second is admitted with no service estimate yet and
        // expires behind it; the third finds the queue full.
        const auto served = submit(obs, 0us);
        waitForEmptyQueue(server);
        const auto expires = submit(obs, 5ms);
        expectCompletedInline(*submit(obs, 0us),
                              Status::RejectedQueueFull);
        expectCompletes(*served, Status::Ok);
        expectCompletes(*expires, Status::TimedOut);

        // The worker has now measured a 100 ms batch, so a 1 us budget
        // is infeasible at admission.
        expectCompletedInline(*submit(obs, 1us),
                              Status::RejectedDeadline);
        router.stop();
        expectCompletedInline(*submit(obs, 0us), Status::RejectedClosed);

        for (const auto &d : all)
            EXPECT_EQ(d->calls.load(), 1);
    }

    // RejectedShed comes only from the router: with a zero depth
    // threshold, one queued request sheds the next.
    FleetConfig cfg = f.fleet(1);
    cfg.replica.queue.maxDepth = 4;
    cfg.shed.depthFraction = 0.1;
    ReplicaRouter router(f.net, cfg, slow);
    router.publish(f.params);
    router.start();
    std::vector<std::shared_ptr<Delivery>> all;
    const auto submit = [&] {
        auto d = all.emplace_back(std::make_shared<Delivery>());
        router.submitAsync(obs, 0us, {}, Delivery::handler(d));
        return d;
    };
    const auto running = submit();
    waitForEmptyQueue(router.replica(0));
    const auto queued = submit();
    expectCompletedInline(*submit(), Status::RejectedShed);
    expectCompletes(*running, Status::Ok);
    expectCompletes(*queued, Status::Ok);
    router.stop();
    for (const auto &d : all)
        EXPECT_EQ(d->calls.load(), 1);
}
