/**
 * @file
 * The three workloads, each driven only through its public entry
 * point: rl::A3cTrainer::run(), dist::PsServer + dist::WorkerRunner,
 * and serve::EventLoopServer over serve::ReplicaRouter with TcpClient
 * actors. All use the paper's Table 1 network, Pong, the FastCpu
 * backend and t_max 5.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "bench.hh"
#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "env/session.hh"
#include "nn/layers.hh"
#include "rl/a3c.hh"
#include "rl/fast_cpu_backend.hh"
#include "serve/event_loop.hh"
#include "serve/router.hh"
#include "serve/tcp.hh"

namespace perfbench {
namespace {

using fa3c::env::GameId;
namespace nn = fa3c::nn;
namespace rl = fa3c::rl;

constexpr int kTMax = 5;
constexpr int kLocalAgents = 2;
constexpr int kDistWorkers = 2;
constexpr int kActors = 4;
constexpr int kProbes = 32;

// Work per round. Each round is about two seconds on a 4-core host;
// the run repeats rounds until --seconds have passed.
constexpr std::uint64_t kLocalSteps = 2000;
constexpr std::uint64_t kDistSteps = 600;
constexpr std::int64_t kServeRequests = 2000;

/** A round that has not finished by then is reported as failed. */
constexpr std::int64_t kRoundTimeoutNs = 60'000'000'000;

const double kInf = std::numeric_limits<double>::infinity();

int
pongActions()
{
    static const int n =
        fa3c::env::makeEnvironment(GameId::Pong, 0)->numActions();
    return n;
}

/** A Pong session on the network's input geometry whose emulator
 * calls are timed into @p spans (null: untimed). */
std::unique_ptr<fa3c::env::AtariSession>
makeSession(const nn::NetConfig &nc, std::uint64_t seed, SpanBuffer *spans)
{
    fa3c::env::SessionConfig scfg;
    scfg.frameStack = nc.inChannels;
    scfg.obsHeight = nc.inHeight;
    scfg.obsWidth = nc.inWidth;
    return std::make_unique<fa3c::env::AtariSession>(
        std::make_unique<TimedEnvironment>(
            fa3c::env::makeEnvironment(GameId::Pong, mixSeed(seed, 1)),
            spans),
        scfg, mixSeed(seed, 2));
}

double
nsToMs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/** Routine latencies of every routine that started after set-up. */
void
collectRoutines(const std::vector<std::unique_ptr<AgentTrace>> &agents,
                std::int64_t setup_ns, RoundResult &r)
{
    for (const auto &a : agents) {
        r.attempted += a->syncs.size();
        for (std::size_t i = 0; i + 1 < a->syncs.size(); ++i) {
            if (a->syncs[i] < setup_ns)
                continue;
            r.latMs.push_back(nsToMs(a->syncs[i + 1] - a->syncs[i]));
        }
    }
}

void
checkFinite(std::span<const float> theta, RoundResult &r)
{
    const auto bad = std::find_if(theta.begin(), theta.end(),
                                  [](float v) { return !std::isfinite(v); });
    if (bad != theta.end())
        r.errors.push_back("non-finite global parameter at index " +
                           std::to_string(bad - theta.begin()));
}

void
checkAgents(const std::vector<std::unique_ptr<AgentTrace>> &agents,
            RoundResult &r)
{
    for (const auto &a : agents)
        if (a->syncs.size() < 2)
            r.errors.push_back(a->buffer.track +
                               " completed no routine");
}

void
finishRound(std::int64_t t0, const Gate &gate, const Usage &end,
            std::uint64_t work_end,
            std::vector<std::unique_ptr<AgentTrace>> &agents,
            RoundResult &r)
{
    if (!gate.passed()) {
        r.errors.push_back("set-up never completed");
        return;
    }
    r.setupS = static_cast<double>(gate.timeNs() - t0) * 1e-9;
    r.measureS = static_cast<double>(end.wallNs - gate.timeNs()) * 1e-9;
    r.work = work_end - gate.work();
    r.usageStart = gate.usage();
    r.usageEnd = end;
    r.windowStart = gate.timeNs();
    r.windowEnd = end.wallNs;
    collectRoutines(agents, gate.timeNs(), r);
    checkAgents(agents, r);
    if (r.traced)
        for (auto &a : agents)
            r.buffers.push_back(std::move(a->buffer));
}

// ---------------------------------------------------------------------

/** In-process A3C: A3cTrainer::run() with two async agents. */
class TrainLocal : public Workload
{
  public:
    TrainLocal() : net_(nn::NetConfig::atari(pongActions())) {}

    Layer operation() const override { return Layer::Routine; }

    RoundResult
    runRound(const RoundInputs &in) override
    {
        RoundResult r;
        r.traced = in.traced;
        const std::int64_t t0 = nowNs();

        rl::A3cTrainer *trainer_ptr = nullptr;
        Gate gate(kLocalAgents, [&] {
            return trainer_ptr->globalParams().globalSteps();
        });
        std::vector<std::unique_ptr<AgentTrace>> agents;
        for (int i = 0; i < kLocalAgents; ++i)
            agents.push_back(std::make_unique<AgentTrace>(
                "agent " + std::to_string(i), in.traced,
                Layer::RlParams, &gate));

        rl::A3cConfig cfg;
        cfg.numAgents = kLocalAgents;
        cfg.tMax = kTMax;
        cfg.totalSteps = kLocalSteps;
        cfg.seed = in.seed;
        cfg.backend = rl::BackendKind::FastCpu;
        rl::A3cTrainer trainer(
            net_, cfg,
            [&](int id) -> std::unique_ptr<rl::DnnBackend> {
                return std::make_unique<TimedBackend>(
                    rl::makeDnnBackend(rl::BackendKind::FastCpu, net_),
                    *agents[static_cast<std::size_t>(id)]);
            },
            [&](int id) {
                auto &a = *agents[static_cast<std::size_t>(id)];
                return makeSession(net_.config(),
                                   mixSeed(in.seed, 100 + id),
                                   in.traced ? &a.buffer : nullptr);
            });
        trainer_ptr = &trainer;
        trainer.run();
        const Usage end = Usage::now();
        const std::uint64_t steps = trainer.globalParams().globalSteps();

        finishRound(t0, gate, end, steps, agents, r);
        checkFinite(trainer.globalParams().theta().flat(), r);
        if (steps < kLocalSteps)
            r.errors.push_back("consumed " + std::to_string(steps) +
                               " steps of a " +
                               std::to_string(kLocalSteps) + " budget");
        return r;
    }

  private:
    nn::A3cNetwork net_;
};

// ---------------------------------------------------------------------

/** One PsServer and two single-agent WorkerRunners over loopback. */
class TrainDist : public Workload
{
  public:
    TrainDist() : net_(nn::NetConfig::atari(pongActions())) {}

    Layer operation() const override { return Layer::Routine; }

    RoundResult
    runRound(const RoundInputs &in) override
    {
        RoundResult r;
        r.traced = in.traced;
        const std::int64_t t0 = nowNs();

        // The PS runs unbounded; the round stops the workers once the
        // PS has counted the step budget, so no push races the stop.
        fa3c::dist::PsServerConfig pcfg;
        pcfg.seed = in.seed;
        fa3c::dist::PsServer ps(net_, pcfg);
        if (!ps.start()) {
            r.errors.push_back("parameter server failed to start");
            return r;
        }
        Gate gate(kDistWorkers, [&] { return ps.stats().steps; });
        std::vector<std::unique_ptr<AgentTrace>> agents;
        std::vector<std::unique_ptr<fa3c::dist::WorkerRunner>> workers;
        for (int w = 0; w < kDistWorkers; ++w) {
            agents.push_back(std::make_unique<AgentTrace>(
                "worker " + std::to_string(w), in.traced,
                Layer::DistParams, &gate));
            AgentTrace &a = *agents.back();
            fa3c::dist::WorkerConfig wcfg;
            wcfg.port = ps.port();
            wcfg.name = "worker-" + std::to_string(w);
            wcfg.a3c.numAgents = 1;
            wcfg.a3c.tMax = kTMax;
            wcfg.a3c.seed = mixSeed(in.seed, 200 + w);
            wcfg.a3c.backend = rl::BackendKind::FastCpu;
            workers.push_back(std::make_unique<fa3c::dist::WorkerRunner>(
                net_, wcfg,
                [this, &a](int) -> std::unique_ptr<rl::DnnBackend> {
                    return std::make_unique<TimedBackend>(
                        rl::makeDnnBackend(rl::BackendKind::FastCpu,
                                           net_),
                        a);
                },
                [this, &a, &in, w](int) {
                    return makeSession(net_.config(),
                                       mixSeed(in.seed, 300 + w),
                                       in.traced ? &a.buffer : nullptr);
                }));
        }

        std::vector<int> joined(kDistWorkers, 0);
        std::atomic<int> running{kDistWorkers};
        std::vector<std::thread> threads;
        for (int w = 0; w < kDistWorkers; ++w)
            threads.emplace_back([&, w] {
                joined[static_cast<std::size_t>(w)] =
                    workers[static_cast<std::size_t>(w)]->run() ? 1 : 0;
                running.fetch_sub(1);
            });

        std::uint64_t steps = 0;
        for (;;) {
            steps = ps.stats().steps;
            if (steps >= kDistSteps || running.load() == 0 ||
                nowNs() - t0 > kRoundTimeoutNs)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const Usage end = Usage::now();
        for (auto &w : workers)
            w->requestStop();
        for (auto &t : threads)
            t.join();

        // Each worker sends Bye on its way out; wait for the PS to
        // process both before reading the lease counters.
        for (int i = 0; i < 2000 && ps.stats().activeLeases != 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const fa3c::dist::wire::StatsReply stats = ps.stats();
        std::vector<float> theta;
        ps.params().snapshot(theta);
        ps.stop();

        finishRound(t0, gate, end, steps, agents, r);
        checkFinite(theta, r);
        for (int w = 0; w < kDistWorkers; ++w) {
            if (!joined[static_cast<std::size_t>(w)])
                r.errors.push_back("worker " + std::to_string(w) +
                                   " never joined");
            else if (workers[static_cast<std::size_t>(w)]->routines() == 0)
                r.errors.push_back("worker " + std::to_string(w) +
                                   " ran no routine");
        }
        if (steps < kDistSteps)
            r.errors.push_back("PS counted " + std::to_string(steps) +
                               " steps of a " +
                               std::to_string(kDistSteps) + " budget");
        if (stats.pushRejects != 0 || stats.reaped != 0)
            r.errors.push_back(
                "PS rejected " + std::to_string(stats.pushRejects) +
                " pushes and reaped " + std::to_string(stats.reaped) +
                " leases");
        if (stats.activeLeases != 0 || stats.joined != kDistWorkers)
            r.errors.push_back(
                "workers did not leave cleanly: " +
                std::to_string(stats.activeLeases) + " leases active, " +
                std::to_string(stats.joined) + " joins");
        // A rejoin means a push connection failed: its gradients were
        // dropped or resent.
        const std::uint64_t rejoins =
            stats.joined > kDistWorkers ? stats.joined - kDistWorkers : 0;
        r.failed += stats.pushRejects + stats.reaped + rejoins;
        for (std::uint64_t i = 0; i < r.failed; ++i)
            r.latMs.push_back(kInf);
        r.psPushes = stats.pushes;
        r.psRejects = stats.pushRejects;
        r.psReaped = stats.reaped;
        r.psSteps = stats.steps;
        r.paramCount = theta.size();
        return r;
    }

  private:
    nn::A3cNetwork net_;
};

// ---------------------------------------------------------------------

/** One observation whose served answer is known in advance. */
struct Probe
{
    fa3c::tensor::Tensor obs;
    int action = -1;
    float value = 0.0f;
};

/** A timed request as the actor saw it. */
struct Sample
{
    std::int64_t start = 0;
    double ms = 0.0;
};

/** Per-actor results, written only by that actor's thread. */
struct Actor
{
    SpanBuffer buffer;
    std::vector<Sample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    error(std::string msg)
    {
        if (errors.size() < 4)
            errors.push_back(buffer.track + ": " + std::move(msg));
    }
};

/**
 * EventLoopServer over a ReplicaRouter with serve_policy's defaults,
 * driven by four closed-loop TcpClient actors playing Pong.
 */
class ServeActors : public Workload
{
  public:
    explicit ServeActors(std::uint64_t seed)
        : net_(nn::NetConfig::atari(pongActions())),
          params_(net_.makeParams())
    {
        fa3c::sim::Rng rng(mixSeed(seed, 7));
        net_.initParams(params_, rng);

        // Probe observations: Pong screens after a seeded number of
        // random moves, answered locally by the single-sample path.
        rl::FastCpuBackend local(net_);
        local.onParamSync(params_);
        auto act = net_.makeActivations();
        std::vector<float> probs(static_cast<std::size_t>(pongActions()));
        for (int p = 0; p < kProbes; ++p) {
            auto session =
                makeSession(net_.config(), mixSeed(seed, 500 + p), nullptr);
            fa3c::sim::Rng moves(mixSeed(seed, 600 + p));
            const int n = static_cast<int>(moves.uniformInt(60));
            for (int i = 0; i < n; ++i)
                session->act(static_cast<int>(
                    moves.uniformInt(static_cast<std::uint32_t>(
                        session->numActions()))));
            Probe probe;
            probe.obs = session->observation();
            local.forward(params_, probe.obs, act);
            fa3c::nn::softmax(net_.policyLogits(act), probs);
            probe.action = static_cast<int>(
                std::max_element(probs.begin(), probs.end()) -
                probs.begin());
            probe.value = net_.value(act);
            probes_.push_back(std::move(probe));
        }
    }

    Layer operation() const override { return Layer::Request; }

    RoundResult
    runRound(const RoundInputs &in) override
    {
        RoundResult r;
        r.traced = in.traced;
        const std::int64_t t0 = nowNs();

        std::atomic<std::uint64_t> ok{0};
        Gate setup(kActors, [&] { return ok.load(); });
        Gate done(kActors, [&] { return ok.load(); });

        // serve_policy's defaults: one replica with one worker, so the
        // worker trace below has a single writer.
        fa3c::serve::FleetConfig fleet;
        fleet.replica.backend = rl::BackendKind::FastCpu;
        AgentTrace worker_trace("serve worker", in.traced,
                                Layer::Routine, nullptr);
        fa3c::serve::ReplicaRouter router(
            net_, fleet,
            [&](int) -> std::unique_ptr<rl::DnnBackend> {
                return std::make_unique<TimedBackend>(
                    rl::makeDnnBackend(fleet.replica.backend, net_),
                    worker_trace);
            });
        const std::uint64_t version = router.publish(params_);
        router.start();
        fa3c::serve::EventLoopServer loop(router,
                                          fa3c::serve::EventLoopConfig{});
        const bool listening = loop.start();

        std::atomic<std::int64_t> tickets{kServeRequests};
        std::vector<Actor> actors(kActors);
        std::vector<std::thread> threads;
        for (int a = 0; a < kActors; ++a) {
            actors[static_cast<std::size_t>(a)].buffer.track =
                "actor " + std::to_string(a);
            threads.emplace_back([&, a] {
                actorMain(a, in, listening ? loop.port() : 0, version,
                          tickets, ok, setup, done,
                          actors[static_cast<std::size_t>(a)]);
            });
        }
        for (auto &t : threads)
            t.join();
        loop.stop();
        router.stop();

        if (!listening)
            r.errors.push_back("event loop failed to listen");
        if (setup.passed() && done.passed()) {
            r.setupS = static_cast<double>(setup.timeNs() - t0) * 1e-9;
            r.measureS =
                static_cast<double>(done.timeNs() - setup.timeNs()) * 1e-9;
            r.work = done.work() - setup.work();
            r.usageStart = setup.usage();
            r.usageEnd = done.usage();
            r.windowStart = setup.timeNs();
            r.windowEnd = done.timeNs();
        }
        for (auto &a : actors) {
            r.attempted += a.attempted;
            r.failed += a.failed;
            for (auto &e : a.errors)
                r.errors.push_back(std::move(e));
            for (const Sample &s : a.samples) {
                if (s.start < r.windowStart)
                    continue;
                r.latMs.push_back(s.ms);
                }
            if (r.traced)
                r.buffers.push_back(std::move(a.buffer));
        }
        if (r.traced)
            r.buffers.push_back(std::move(worker_trace.buffer));
        return r;
    }

  private:
    void
    actorMain(int index, const RoundInputs &in, std::uint16_t port,
              std::uint64_t version, std::atomic<std::int64_t> &tickets,
              std::atomic<std::uint64_t> &ok, Gate &setup,
              Gate &done, Actor &me)
    {
        namespace serve = fa3c::serve;
        serve::TcpClient client;
        bool alive = port != 0 && client.connect("127.0.0.1", port);
        if (!alive)
            me.error("cannot connect");
        auto session = makeSession(net_.config(),
                                   mixSeed(in.seed, 400 + index),
                                   in.traced ? &me.buffer : nullptr);
        const int num_actions = session->numActions();
        me.samples.reserve(static_cast<std::size_t>(kServeRequests));

        bool first = true;
        while (alive && tickets.fetch_sub(1) > 0) {
            serve::Response resp;
            const std::int64_t t0 = nowNs();
            const bool sent =
                client.request(session->observation(), 0, resp);
            const std::int64_t t1 = nowNs();
            ++me.attempted;
            if (!sent) {
                ++me.failed;
                me.samples.push_back({t0, kInf});
                me.error("transport error");
                alive = false;
                break;
            }
            if (first) {
                setup.arrive();
                first = false;
            }
            if (resp.status != serve::Status::Ok) {
                ++me.failed;
                me.samples.push_back({t0, kInf});
                me.error(std::string("status ") +
                         serve::statusName(resp.status));
                continue;
            }
            ok.fetch_add(1);
            me.samples.push_back({t0, nsToMs(t1 - t0)});
            if (resp.action < 0 || resp.action >= num_actions)
                me.error("action " + std::to_string(resp.action) +
                         " out of range");
            if (resp.modelVersion != version)
                me.error("served version " +
                         std::to_string(resp.modelVersion) +
                         ", published " + std::to_string(version));
            if (in.traced)
                recordRequest(me.buffer, t0, t1, resp);
            if (resp.action < 0 || resp.action >= num_actions)
                continue;
            const std::int64_t e0 = in.traced ? nowNs() : 0;
            session->act(resp.action);
            if (in.traced)
                me.buffer.add(Layer::Env, e0, nowNs());
        }
        if (first)
            setup.arrive();
        done.arrive();

        // Probes go out once every actor has finished its timed
        // requests, so they never share a batch with timed traffic.
        while (!done.passed())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        for (int p = index; alive && p < kProbes; p += kActors) {
            const Probe &probe = probes_[static_cast<std::size_t>(p)];
            serve::Response resp;
            ++me.attempted;
            if (!client.request(probe.obs, 0, resp) ||
                resp.status != serve::Status::Ok) {
                ++me.failed;
                me.error("probe " + std::to_string(p) + " failed");
                continue;
            }
            if (resp.action != probe.action ||
                std::memcmp(&resp.value, &probe.value, sizeof(float)) != 0) {
                char msg[128];
                std::snprintf(msg, sizeof msg,
                              "probe %d: served (%d, %.9g), local (%d, %.9g)",
                              p, resp.action, resp.value, probe.action,
                              probe.value);
                me.error(msg);
            }
        }
        client.close();
    }

    /**
     * A request span with its server-side split taken from the
     * Response: the front-end time (outside Response.totalUs) is
     * placed half before and half after the server's part.
     */
    static void
    recordRequest(SpanBuffer &buf, std::int64_t t0, std::int64_t t1,
                  const fa3c::serve::Response &resp)
    {
        const auto us = [](double v) {
            return static_cast<std::int64_t>(v * 1e3);
        };
        const std::int64_t total = std::min(us(resp.totalUs), t1 - t0);
        const std::int64_t half_front = (t1 - t0 - total) / 2;
        const std::int64_t enq = t0 + half_front;
        const std::int64_t queued = std::min(us(resp.queueUs), total);
        const std::int64_t infer =
            std::min(us(resp.inferUs), total - queued);
        buf.add(Layer::Front, t0, enq);
        buf.add(Layer::Queue, enq, enq + queued);
        buf.add(Layer::Infer, enq + queued, enq + queued + infer);
        buf.add(Layer::Front, enq + total, t1);
        buf.add(Layer::Request, t0, t1);
    }

    nn::A3cNetwork net_;
    nn::ParamSet params_;
    std::vector<Probe> probes_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "train_local")
        return std::make_unique<TrainLocal>();
    if (name == "train_dist")
        return std::make_unique<TrainDist>();
    if (name == "serve_actors")
        return std::make_unique<ServeActors>(seed);
    return nullptr;
}

} // namespace perfbench
