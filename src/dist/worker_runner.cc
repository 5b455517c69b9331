#include "dist/worker_runner.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "env/environment.hh"
#include "env/session.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace fa3c::dist {

namespace {

using Clock = std::chrono::steady_clock;

void
sleepMs(std::uint32_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::uint64_t
nowUnixUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

wire::TraceCtx
toWire(const obs::SpanContext &ctx)
{
    wire::TraceCtx t;
    t.traceId = ctx.trace;
    t.spanId = ctx.span;
    t.sampled = ctx.sampled ? 1 : 0;
    return t;
}

} // namespace

// ---------------------------------------------------------------------
// RemoteParams

RemoteParams::RemoteParams(const nn::A3cNetwork &net, std::string host,
                           int port, std::string worker_name)
    : net_(net), host_(std::move(host)), port_(port),
      name_(std::move(worker_name)), cache_(net.makeParams())
{
}

bool
RemoteParams::joinLocked()
{
    wire::Hello hello;
    hello.workerName = name_;
    hello.paramCount = cache_.size();
    hello.layoutCrc = wire::layoutCrc(cache_.segments());
    hello.clientUnixUs = nowUnixUs();
    wire::Welcome welcome;
    const std::uint64_t t_send = hello.clientUnixUs;
    if (!client_.hello(hello, welcome))
        return false;
    const std::uint64_t t_recv = nowUnixUs();
    // Cristian-style offset estimate: the PS stamped its Welcome
    // somewhere inside [t_send, t_recv]; assume the midpoint.
    // Positive offset = this host's clock runs ahead of the PS.
    const double mid =
        (static_cast<double>(t_send) + static_cast<double>(t_recv)) /
        2.0;
    const double offset =
        mid - static_cast<double>(welcome.serverUnixUs);
    obs::metrics().sample("dist", "clock_offset_us", offset);
    if (auto *tw = obs::trace()) {
        tw->setClockOffsetUs(offset);
        tw->setProcessLabel(name_);
    }
    const auto pull_span = obs::rootSpan();
    const auto pull_t0 = Clock::now();
    wire::Params params;
    if (!client_.pull(params, cache_.flat(), toWire(pull_span)) ||
        params.theta.size() != cache_.size())
        return false;
    if (pull_span.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"version", static_cast<double>(params.version)}}};
        obs::emitSpan(pull_span, "dist.worker", "worker.pull",
                      pull_t0, Clock::now(), args);
    }
    cacheVersion_ = params.version;
    leaseTtlMs_ = welcome.leaseTtlMs;
    workerId_.store(welcome.workerId, std::memory_order_release);
    lastSteps_.store(params.steps, std::memory_order_relaxed);
    if (params.stop)
        stop_.store(true, std::memory_order_release);
    joined_ = true;
    return true;
}

bool
RemoteParams::join()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_)
        return true;
    if (!client_.connected() && !client_.connect(host_, port_))
        return false;
    return joinLocked();
}

bool
RemoteParams::rejoinLocked()
{
    joined_ = false;
    std::uint32_t backoff_ms = 50;
    while (!stop_.load(std::memory_order_acquire)) {
        client_.close();
        if (client_.connect(host_, port_) && joinLocked()) {
            FA3C_INFORM("dist: worker '", name_, "' rejoined as #",
                        workerId_.load(std::memory_order_relaxed),
                        " at version ", cacheVersion_);
            return true;
        }
        sleepMs(backoff_ms);
        backoff_ms = std::min<std::uint32_t>(backoff_ms * 2, 1000);
    }
    return false;
}

void
RemoteParams::snapshot(nn::ParamSet &local)
{
    std::lock_guard<std::mutex> lock(mutex_);
    local.copyFrom(cache_);
}

void
RemoteParams::applyGradients(const nn::ParamSet &grads,
                             std::uint64_t steps_consumed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_.load(std::memory_order_acquire))
        return;

    wire::Push push;
    // The gradients were computed against the cached theta; the base
    // version is pinned here and survives rejoins, so the PS always
    // sees honest staleness accounting.
    push.baseVersion = cacheVersion_;
    push.steps = steps_consumed;
    push.wantParams = 1;
    push.grads = grads.flat();

    auto &m = obs::metrics();
    // One root span per logical push: the PS parents its ps.apply
    // under it, so the trace crosses the process boundary. Retries
    // reuse the context — they are the same logical operation.
    const auto push_span = obs::rootSpan();
    push.trace = toWire(push_span);
    for (;;) {
        if (stop_.load(std::memory_order_acquire))
            return;
        if (!joined_ && !rejoinLocked())
            return;
        push.workerId = workerId_.load(std::memory_order_relaxed);
        // The ack's theta is decoded straight into cache_, so keep
        // the outgoing image for dist.update_norm only when sampled.
        const bool sample_norm = m.enabled();
        if (sample_norm) {
            const std::span<const float> cached = cache_.flat();
            prevTheta_.assign(cached.begin(), cached.end());
        }
        wire::PushAck ack;
        const auto t0 = Clock::now();
        if (!client_.push(push, ack, cache_.flat())) {
            joined_ = false; // transport died; rejoin and retry
            continue;
        }
        const auto t1 = Clock::now();
        if (!ack.theta.empty())
            cacheVersion_ = ack.version; // cache_ holds the ack's image
        if (push_span.sampled) {
            const std::array<obs::TraceArg, 2> args{
                {{"accepted", static_cast<double>(ack.accepted)},
                 {"steps",
                  static_cast<double>(steps_consumed)}}};
            obs::emitSpan(push_span, "dist.worker", "worker.push",
                          t0, t1, args);
        }
        if (m.enabled()) {
            m.count("dist", "worker_pushes");
            m.count("dist", "worker_steps", steps_consumed);
            m.sample("dist", "push_rtt_us",
                     std::chrono::duration<double, std::micro>(t1 -
                                                               t0)
                         .count());
            if (ack.staleness !=
                std::numeric_limits<std::uint64_t>::max())
                m.sample("dist", "staleness",
                         static_cast<double>(ack.staleness));
        }
        if (ack.accepted == 0 &&
            ack.staleness ==
                std::numeric_limits<std::uint64_t>::max()) {
            // Lease reaped (we were presumed dead). Re-Hello on the
            // same connection and push the same gradients again.
            FA3C_WARN("dist: worker '", name_,
                      "' lease lost; re-joining");
            if (!joinLocked())
                joined_ = false;
            continue;
        }
        if (ack.accepted == 0)
            staleRejects_.fetch_add(1, std::memory_order_relaxed);
        if (sample_norm && !ack.theta.empty()) {
            // Parameter-delta norm per round trip: how far the fleet
            // moved theta since this worker's last sync (its own
            // update plus any interleaved peers') — a cheap
            // divergence signal for the aggregator's health view.
            double sumsq = 0.0;
            for (std::size_t i = 0; i < prevTheta_.size(); ++i) {
                const double d = static_cast<double>(ack.theta[i]) -
                                 static_cast<double>(prevTheta_[i]);
                sumsq += d * d;
            }
            m.sample("dist", "update_norm", std::sqrt(sumsq));
        }
        lastSteps_.store(ack.steps, std::memory_order_relaxed);
        if (ack.stop)
            stop_.store(true, std::memory_order_release);
        return;
    }
}

std::uint64_t
RemoteParams::globalSteps() const
{
    return lastSteps_.load(std::memory_order_relaxed);
}

void
RemoteParams::abort()
{
    stop_.store(true, std::memory_order_release);
}

std::uint64_t
RemoteParams::version() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheVersion_;
}

std::uint32_t
RemoteParams::leaseTtlMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return leaseTtlMs_;
}

void
RemoteParams::leave()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) {
        client_.bye(workerId_.load(std::memory_order_relaxed));
        joined_ = false;
    }
}

// ---------------------------------------------------------------------
// WorkerRunner

WorkerRunner::WorkerRunner(
    const nn::A3cNetwork &net, const WorkerConfig &cfg,
    rl::A3cTrainer::BackendFactory backend_factory,
    rl::A3cTrainer::SessionFactory session_factory)
    : net_(net), cfg_(cfg),
      remote_(net, cfg.host, cfg.port, cfg.name),
      backendFactory_(std::move(backend_factory)),
      sessionFactory_(std::move(session_factory))
{
    if (!backendFactory_)
        backendFactory_ = [this](int) {
            return rl::makeDnnBackend(cfg_.a3c.backend, net_);
        };
}

WorkerRunner::~WorkerRunner()
{
    requestStop();
}

void
WorkerRunner::requestStop()
{
    stopRequested_.store(true, std::memory_order_release);
    remote_.abort();
}

void
WorkerRunner::heartbeatMain()
{
    PsClient hb;
    const std::uint32_t ttl = remote_.leaseTtlMs();
    const std::uint32_t period =
        cfg_.heartbeatMs > 0
            ? cfg_.heartbeatMs
            : std::max<std::uint32_t>(ttl > 0 ? ttl / 3 : 200, 20);
    while (!stopRequested_.load(std::memory_order_acquire) &&
           !remote_.stopped()) {
        const std::uint64_t id = remote_.workerId();
        if (id != 0) {
            if (!hb.connected())
                (void)hb.connect(cfg_.host, cfg_.port);
            wire::HeartbeatAck ack;
            if (hb.connected() && hb.heartbeat(id, ack) && ack.stop)
                remote_.abort();
        }
        sleepMs(period);
    }
}

bool
WorkerRunner::run()
{
    // The PS may still be starting; keep knocking.
    int attempts = 0;
    while (!remote_.join()) {
        if (stopRequested_.load(std::memory_order_acquire) ||
            ++attempts >= cfg_.joinAttempts) {
            FA3C_WARN("dist: worker '", cfg_.name,
                      "' failed to join ", cfg_.host, ":", cfg_.port,
                      " after ", attempts, " attempts");
            return false;
        }
        sleepMs(250);
    }
    FA3C_INFORM("dist: worker '", cfg_.name, "' joined as #",
                remote_.workerId(), " (", cfg_.a3c.numAgents,
                " agents)");

    // Per-worker identity gauges for the fleet aggregator (the dist
    // histogram/counter families ride along via writeRegistry).
    telemetry_ = obs::TelemetryRegistration(
        obs::telemetry(),
        [this](obs::PromWriter &w) {
            w.gauge("fa3c_dist_worker_id",
                    static_cast<double>(remote_.workerId()),
                    "lease id granted by the parameter server");
            w.counter("fa3c_dist_worker_routines_total", routines(),
                      "training routines completed by this worker");
            w.counter("fa3c_dist_worker_stale_rejects_total",
                      remote_.staleRejects(),
                      "pushes the PS rejected for staleness");
        },
        "dist-worker",
        [this](std::string &detail) {
            detail = "worker=" + cfg_.name +
                     " id=" + std::to_string(remote_.workerId());
            return remote_.workerId() != 0;
        });

    rl::A3cTrainer::SessionFactory session_factory = sessionFactory_;
    if (!session_factory) {
        const auto maybe_game = env::tryGameFromName(cfg_.game);
        if (!maybe_game) {
            FA3C_WARN("dist: unknown game '", cfg_.game, "'");
            return false;
        }
        const env::GameId game = *maybe_game;
        session_factory = [this,
                           game](int agent_id)
            -> std::unique_ptr<env::AtariSession> {
            const nn::NetConfig &nc = net_.config();
            env::SessionConfig scfg;
            scfg.frameStack = nc.inChannels;
            scfg.obsHeight = nc.inHeight;
            scfg.obsWidth = nc.inWidth;
            const std::uint64_t base =
                cfg_.a3c.seed * 1000003ull +
                static_cast<std::uint64_t>(agent_id);
            return std::make_unique<env::AtariSession>(
                env::makeEnvironment(game, base + 11), scfg,
                base + 13);
        };
    }

    std::vector<std::unique_ptr<rl::A3cAgent>> agents;
    agents.reserve(static_cast<std::size_t>(cfg_.a3c.numAgents));
    for (int i = 0; i < cfg_.a3c.numAgents; ++i)
        agents.push_back(std::make_unique<rl::A3cAgent>(
            i, cfg_.a3c, backendFactory_(i), session_factory(i),
            remote_, scores_, diagnostics_));

    std::thread heartbeat([this] { heartbeatMain(); });

    auto should_stop = [this] {
        if (stopRequested_.load(std::memory_order_acquire) ||
            remote_.stopped())
            return true;
        return cfg_.maxRoutines > 0 &&
               routines_.load(std::memory_order_relaxed) >=
                   cfg_.maxRoutines;
    };

    std::vector<std::thread> threads;
    threads.reserve(agents.size());
    for (auto &agent : agents)
        threads.emplace_back([this, &agent, &should_stop] {
            while (!should_stop()) {
                agent->runRoutine();
                routines_.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (auto &t : threads)
        t.join();

    remote_.abort(); // wake the heartbeat loop promptly
    heartbeat.join();
    telemetry_.reset();
    remote_.leave();
    return true;
}

} // namespace fa3c::dist
