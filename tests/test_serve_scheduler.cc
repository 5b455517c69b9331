/** @file Batch formation, completion, and rejection of PolicyServer. */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.hh"

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
        sim::Rng rng(13);
        net.initParams(params, rng);
    }

    tensor::Tensor
    observation(float scale) const
    {
        tensor::Tensor obs(tensor::Shape(
            {netCfg.inChannels, netCfg.inHeight, netCfg.inWidth}));
        for (std::size_t i = 0; i < obs.numel(); ++i)
            obs.data()[i] =
                scale * static_cast<float>(i % 97) / 97.0f;
        return obs;
    }

    ServeConfig
    config(int max_batch) const
    {
        ServeConfig cfg;
        cfg.queue.maxDepth = 64;
        cfg.batch.maxBatch = max_batch;
        cfg.workers = 1;
        cfg.backend = rl::BackendKind::FastCpu;
        return cfg;
    }
};

} // namespace

TEST(ServeScheduler, PreQueuedRequestsFormOneFullBatch)
{
    Fixture f;
    PolicyServer server(f.net, f.config(16));
    server.publish(f.params);

    // Submissions land in the queue whether or not workers run, so
    // submitting before start() makes batch formation deterministic.
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(server.submit(f.observation(1.0f)));
    EXPECT_EQ(server.queueDepth(), 16u);
    server.start();

    for (auto &fut : futures) {
        const Response r = fut.get();
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.batchSize, 16);
        EXPECT_EQ(r.modelVersion, 1u);
        EXPECT_GE(r.totalUs, r.inferUs);
    }
    server.stop();

    const sim::StatGroup stats = server.statsSnapshot();
    EXPECT_EQ(stats.counterValue("served"), 16u);
    EXPECT_EQ(stats.counterValue("batches"), 1u);
}

TEST(ServeScheduler, MaxBatchSplitsTheBacklog)
{
    Fixture f;
    PolicyServer server(f.net, f.config(8));
    server.publish(f.params);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(server.submit(f.observation(1.0f)));
    server.start();

    for (auto &fut : futures) {
        const Response r = fut.get();
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.batchSize, 8);
    }
    server.stop();
    EXPECT_EQ(server.statsSnapshot().counterValue("batches"), 2u);
}

TEST(ServeScheduler, IdleWorkerServesALoneRequestAtOnce)
{
    Fixture f;
    PolicyServer server(f.net, ServeConfig{});
    server.publish(f.params);
    server.start();

    // Sequential callers never overlap, so every request finds an idle
    // worker and an otherwise empty queue. It must run as a batch of
    // one at once instead of waiting for company that cannot come.
    double min_queue_us = 1e9;
    for (int i = 0; i < 8; ++i) {
        const Response r = server.submitAndWait(f.observation(1.0f));
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.batchSize, 1);
        min_queue_us = std::min(min_queue_us, r.queueUs);
    }
    EXPECT_LT(min_queue_us, 1000.0);
}

TEST(ServeScheduler, ResponseMatchesDirectForward)
{
    Fixture f;
    const tensor::Tensor obs = f.observation(0.7f);

    // Golden single-sample forward on the same parameters.
    auto act = f.net.makeActivations();
    f.net.forward(f.params, obs, act);
    const auto logits = f.net.policyLogits(act);
    std::vector<float> expect_policy(logits.begin(), logits.end());
    float max_logit = expect_policy[0];
    for (float l : expect_policy)
        max_logit = std::max(max_logit, l);
    double denom = 0.0;
    for (float &p : expect_policy) {
        p = std::exp(p - max_logit);
        denom += p;
    }
    int expect_action = 0;
    for (std::size_t a = 0; a < expect_policy.size(); ++a) {
        expect_policy[a] = static_cast<float>(expect_policy[a] / denom);
        if (expect_policy[a] > expect_policy[expect_action])
            expect_action = static_cast<int>(a);
    }

    for (const rl::BackendKind kind :
         {rl::BackendKind::Reference, rl::BackendKind::FastCpu}) {
        ServeConfig cfg = f.config(4);
        cfg.backend = kind;
        PolicyServer server(f.net, cfg);
        server.publish(f.params);
        server.start();
        const Response r = server.submitAndWait(obs);
        ASSERT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.action, expect_action);
        EXPECT_FLOAT_EQ(r.value, f.net.value(act));
        ASSERT_EQ(r.policy.size(), expect_policy.size());
        for (std::size_t a = 0; a < expect_policy.size(); ++a)
            EXPECT_NEAR(r.policy[a], expect_policy[a], 1e-5f)
                << "action " << a;
    }
}

TEST(ServeScheduler, RejectsBeforeFirstPublish)
{
    Fixture f;
    PolicyServer server(f.net, f.config(4));
    server.start();
    const Response r = server.submitAndWait(f.observation(1.0f));
    EXPECT_EQ(r.status, Status::RejectedNoModel);
}

TEST(ServeScheduler, RejectsWrongObservationShape)
{
    Fixture f;
    PolicyServer server(f.net, f.config(4));
    server.publish(f.params);
    server.start();
    tensor::Tensor bad(tensor::Shape({2, 3}));
    const Response r = server.submitAndWait(bad);
    EXPECT_EQ(r.status, Status::RejectedBadRequest);
}

TEST(ServeScheduler, RejectsAfterStop)
{
    Fixture f;
    PolicyServer server(f.net, f.config(4));
    server.publish(f.params);
    server.start();
    server.stop();
    const Response r = server.submitAndWait(f.observation(1.0f));
    EXPECT_EQ(r.status, Status::RejectedClosed);
}

TEST(ServeScheduler, QueuedRequestsTimeOutPastTheirDeadline)
{
    Fixture f;
    PolicyServer server(f.net, f.config(4));
    server.publish(f.params);

    // Admitted while feasible (no service estimate yet), then left to
    // expire before the workers ever start.
    auto fut = server.submit(f.observation(1.0f), 5ms);
    std::this_thread::sleep_for(25ms);
    server.start();
    const Response r = fut.get();
    EXPECT_EQ(r.status, Status::TimedOut);
    server.stop();
    EXPECT_EQ(server.statsSnapshot().counterValue("timed_out"), 1u);
}

TEST(ServeScheduler, BacklogBeyondQueueDepthIsRejected)
{
    Fixture f;
    ServeConfig cfg = f.config(4);
    cfg.queue.maxDepth = 4;
    PolicyServer server(f.net, cfg);
    server.publish(f.params);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(server.submit(f.observation(1.0f)));

    int ok = 0;
    int full = 0;
    server.start();
    for (auto &fut : futures) {
        const Response r = fut.get();
        if (r.status == Status::Ok)
            ++ok;
        else if (r.status == Status::RejectedQueueFull)
            ++full;
    }
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(full, 4);
    server.stop();
    const sim::StatGroup stats = server.statsSnapshot();
    EXPECT_EQ(stats.counterValue("rejected_queue_full"), 4u);
}

TEST(ServeScheduler, StopServesEverythingAlreadyQueued)
{
    Fixture f;
    ServeConfig cfg = f.config(4);
    cfg.workers = 2;
    PolicyServer server(f.net, cfg);
    server.publish(f.params);
    server.start();

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(server.submit(f.observation(1.0f)));
    server.stop();

    for (auto &fut : futures) {
        const Response r = fut.get();
        EXPECT_EQ(r.status, Status::Ok);
    }
}
