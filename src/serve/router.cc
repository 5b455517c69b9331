#include "serve/router.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <string_view>

#include "obs/prometheus.hh"
#include "sim/logging.hh"

namespace fa3c::serve {

ReplicaRouter::ReplicaRouter(const nn::A3cNetwork &net,
                             const FleetConfig &cfg,
                             BatchScheduler::BackendFactory factory)
    : net_(net), cfg_(cfg),
      telemetryReg_(
          obs::telemetry(),
          [this](obs::PromWriter &w) {
              w.gauge("router_replicas",
                      static_cast<double>(replicas_.size()),
                      "policy-server replicas behind the router");
              w.gauge("router_queue_depth",
                      static_cast<double>(aggregateDepth()),
                      "aggregate queued requests across the fleet");
              w.gauge("router_shed_threshold",
                      static_cast<double>(shedThreshold_),
                      "aggregate depth beyond which the router sheds");
              w.gauge("router_model_version",
                      static_cast<double>(modelVersion()),
                      "fleet-wide published parameter version");
              w.counter("router_routed_total", routed(),
                        "requests routed into a replica");
              w.counter("router_shed_total", sheds(),
                        "requests shed at the router");
              w.gauge("router_shed_rate", shedRate(),
                      "lifetime shed / (shed + routed) fraction");
              std::array<char, 16> label;
              for (std::size_t i = 0; i < replicas_.size(); ++i) {
                  const int n = std::snprintf(
                      label.data(), label.size(), "%zu", i);
                  const std::string_view id(label.data(),
                                            static_cast<std::size_t>(n));
                  w.gauge("router_replica_queue_depth",
                          {{"replica", id}},
                          static_cast<double>(
                              replicas_[i]->queueDepth()),
                          "per-replica queued requests");
                  w.gauge("router_replica_model_version",
                          {{"replica", id}},
                          static_cast<double>(
                              replicas_[i]->modelVersion()),
                          "per-replica published parameter version");
              }
          },
          "router",
          [this](std::string &detail) {
              const std::uint64_t fleet = modelVersion();
              detail = "replicas=" +
                       std::to_string(replicas_.size()) +
                       " model_version=" + std::to_string(fleet);
              if (fleet == 0)
                  return false;
              for (const auto &r : replicas_)
                  if (r->modelVersion() != fleet)
                      return false;
              return true;
          })
{
    FA3C_ASSERT(cfg_.replicas >= 1, "fleet needs >= 1 replica");
    replicas_.reserve(static_cast<std::size_t>(cfg_.replicas));
    for (int i = 0; i < cfg_.replicas; ++i)
        replicas_.push_back(std::make_unique<PolicyServer>(
            net_, cfg_.replica, factory));

    const std::size_t capacity =
        static_cast<std::size_t>(cfg_.replicas) *
        cfg_.replica.queue.maxDepth;
    if (cfg_.shed.depthFraction < 1.0)
        shedThreshold_ = static_cast<std::size_t>(
            static_cast<double>(capacity) * cfg_.shed.depthFraction);
    else
        shedThreshold_ = std::numeric_limits<std::size_t>::max();
}

ReplicaRouter::~ReplicaRouter()
{
    stop();
}

void
ReplicaRouter::start()
{
    for (auto &r : replicas_)
        r->start();
}

void
ReplicaRouter::stop()
{
    for (auto &r : replicas_)
        r->stop();
}

std::uint64_t
ReplicaRouter::publish(const nn::ParamSet &params)
{
    // Serialized: concurrent publishes would interleave per-replica
    // version counters and break the lockstep the readyz probe (and
    // the hot-swap test) asserts.
    std::lock_guard<std::mutex> lock(publishMutex_);
    std::uint64_t version = 0;
    for (auto &r : replicas_) {
        nn::ParamSet copy = net_.makeParams();
        copy.copyFrom(params);
        version = std::max(version, r->publish(std::move(copy)));
    }
    // Replicas normally move in lockstep, but a caller may have
    // published to one directly via replica(); level any laggard with
    // catch-up copies (each publish bumps its registry by exactly
    // one) instead of aborting the fleet over the skew.
    bool diverged = false;
    for (auto &r : replicas_) {
        while (r->modelVersion() < version) {
            diverged = true;
            nn::ParamSet copy = net_.makeParams();
            copy.copyFrom(params);
            r->publish(std::move(copy));
        }
    }
    if (diverged)
        FA3C_WARN("serve: replica publish versions diverged; "
                  "resynchronized fleet at version ",
                  version);
    publishedVersion_.store(version, std::memory_order_release);
    return version;
}

std::uint64_t
ReplicaRouter::publishFrom(rl::GlobalParams &global)
{
    nn::ParamSet params = net_.makeParams();
    global.snapshot(params);
    return publish(params);
}

std::size_t
ReplicaRouter::aggregateDepth() const
{
    std::size_t depth = 0;
    for (const auto &r : replicas_)
        depth += r->queueDepth();
    return depth;
}

double
ReplicaRouter::shedRate() const
{
    const double shed = static_cast<double>(sheds());
    const double total = shed + static_cast<double>(routed());
    return total > 0.0 ? shed / total : 0.0;
}

int
ReplicaRouter::pickReplica() const
{
    // Least-loaded with a rotating tiebreak: under uniform load every
    // depth reads equal, and always picking replica 0 would serialize
    // the fleet behind one queue.
    const std::size_t n = replicas_.size();
    const std::size_t start = static_cast<std::size_t>(
        rr_.fetch_add(1, std::memory_order_relaxed) % n);
    std::size_t best = start;
    std::size_t best_depth = replicas_[start]->queueDepth();
    for (std::size_t off = 1; off < n; ++off) {
        const std::size_t i = (start + off) % n;
        const std::size_t d = replicas_[i]->queueDepth();
        if (d < best_depth) {
            best = i;
            best_depth = d;
        }
    }
    return static_cast<int>(best);
}

bool
ReplicaRouter::shedNow(Response &resp)
{
    if (aggregateDepth() <= shedThreshold_)
        return false;
    sheds_.fetch_add(1, std::memory_order_relaxed);
    resp.status = Status::RejectedShed;
    // Back off for as long as the *least* loaded replica needs to
    // drain — any sooner and the retry meets the same wall.
    std::uint32_t drain = std::numeric_limits<std::uint32_t>::max();
    for (const auto &r : replicas_)
        drain = std::min(drain, r->drainEstimateUs());
    resp.retryAfterUs =
        std::clamp(drain, cfg_.shed.baseRetryUs, cfg_.shed.maxRetryUs);
    return true;
}

void
ReplicaRouter::emitShedSpan(const obs::SpanContext &parent,
                            Clock::time_point t0,
                            const Response &resp)
{
    // A shed request previously vanished from the trace entirely —
    // the caller saw RejectedShed but the trace showed nothing past
    // the client span. Emit a terminal child span so shed decisions
    // (and their back-off hint) are visible per trace.
    const auto shed = obs::childSpan(parent);
    if (!shed.sampled)
        return;
    const std::array<obs::TraceArg, 2> args{
        {{"retry_after_us", static_cast<double>(resp.retryAfterUs)},
         {"queue_depth", static_cast<double>(aggregateDepth())}}};
    obs::emitSpan(shed, "serve.router", "route.shed", t0, Clock::now(),
                  args);
}

std::future<Response>
ReplicaRouter::submit(const tensor::Tensor &obs,
                      std::chrono::microseconds deadline_budget,
                      const obs::SpanContext &parent)
{
    auto result = std::make_shared<std::promise<Response>>();
    std::future<Response> future = result->get_future();
    submitAsync(obs, deadline_budget, parent,
                [result](Response &&resp) {
                    result->set_value(std::move(resp));
                });
    return future;
}

void
ReplicaRouter::submitAsync(const tensor::Tensor &obs,
                           std::chrono::microseconds deadline_budget,
                           const obs::SpanContext &parent,
                           std::function<void(Response &&)> done)
{
    FA3C_ASSERT(done, "submitAsync needs a completion handler");
    {
        Response resp;
        if (shedNow(resp)) {
            emitShedSpan(parent, Clock::now(), resp);
            done(std::move(resp));
            return;
        }
    }
    const auto t0 = Clock::now();
    const auto route = obs::childSpan(parent);
    const int replica = pickReplica();
    routed_.fetch_add(1, std::memory_order_relaxed);
    replicas_[static_cast<std::size_t>(replica)]->submitAsync(
        obs, deadline_budget, route, std::move(done));
    if (route.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"replica", static_cast<double>(replica)}}};
        obs::emitSpan(route, "serve.router", "route", t0, Clock::now(),
                      args);
    }
}

} // namespace fa3c::serve
