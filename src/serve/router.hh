/**
 * @file
 * The replica router: N PolicyServer replicas (each with its own
 * RequestQueue and BatchScheduler worker pool) behind one submit
 * surface, plus the fleet-wide controls a single replica cannot
 * provide. It is what the epoll front-end (serve/event_loop.hh)
 * fronts, with one replica or many:
 *
 *  - **Routing**: least-loaded (min queue depth, rotating tiebreak).
 *    A replica keeps no per-session state, so there is nothing for
 *    request affinity to keep warm.
 *  - **Load shedding**: per-replica depth signals aggregated into a
 *    shed controller that rejects *before* any enqueue once the
 *    fleet's queued depth crosses a configured fraction of total
 *    capacity. Shedding at the router is the cheap rejection — no
 *    queue lock and no admission estimator in a replica — which is
 *    what keeps the served-IPS curve flat past saturation instead of
 *    collapsing. Shed responses carry a retry_after_us back-off
 *    hint.
 *  - **Coordinated hot-swap**: publish() installs one parameter
 *    version on every replica behind a barrier (the call returns
 *    only when all replicas report the new version) with no serve
 *    gap — each replica keeps answering from its previous snapshot
 *    until the atomic registry swap.
 *
 * All knobs live in FleetConfig/ShedConfig as plain data.
 */

#ifndef FA3C_SERVE_ROUTER_HH
#define FA3C_SERVE_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/server.hh"

namespace fa3c::serve {

/** Fleet-wide admission (shed) controller knobs. */
struct ShedConfig
{
    /**
     * Shed when aggregate queued depth exceeds this fraction of the
     * fleet's total queue capacity (replicas x per-replica maxDepth).
     * Below 1.0 the router rejects before any replica's own
     * admission bound is hit, keeping queue waits short enough that
     * admitted requests still meet their deadlines. >= 1.0 disables
     * router-level shedding (replicas still enforce their bounds).
     */
    double depthFraction = 0.75;
    /** retry_after_us floor when no drain estimate exists yet. */
    std::uint32_t baseRetryUs = 2000;
    /** retry_after_us cap. */
    std::uint32_t maxRetryUs = 1000000;
};

/** Everything configurable about a serving fleet. */
struct FleetConfig
{
    int replicas = 1;
    ShedConfig shed;
    /** Per-replica queue / batching / worker configuration. */
    ServeConfig replica;
};

/** N PolicyServer replicas behind one routed, shedding front. */
class ReplicaRouter
{
  public:
    /**
     * @param net     Network geometry (must outlive the router).
     * @param cfg     Fleet configuration (replicas >= 1).
     * @param factory Per-worker backend builder forwarded to every
     *                replica; defaults per ServeConfig::backend.
     */
    ReplicaRouter(const nn::A3cNetwork &net, const FleetConfig &cfg,
                  BatchScheduler::BackendFactory factory = {});

    /** Stops and drains every replica. */
    ~ReplicaRouter();

    ReplicaRouter(const ReplicaRouter &) = delete;
    ReplicaRouter &operator=(const ReplicaRouter &) = delete;

    /** Launch every replica's worker pool. Idempotent. */
    void start();

    /** Stop every replica (each drains its queue). Idempotent. */
    void stop();

    /**
     * Coordinated hot-swap: install @p params on every replica and
     * return the fleet-wide version number. Barrier semantics — on
     * return every replica answers new requests from the published
     * version (in-flight batches finish on the snapshot they
     * started with; there is never a moment without a servable
     * model). Publishes are serialized, so per-replica version
     * counters stay in lockstep and the returned version is the one
     * every replica reports.
     */
    std::uint64_t publish(const nn::ParamSet &params);

    /** publish() from a trainer's live global theta. */
    std::uint64_t publishFrom(rl::GlobalParams &global);

    /**
     * Route one observation into the fleet: shed it, or hand it to
     * the least-loaded replica's PolicyServer::submitAsync(). @p done
     * runs exactly once, inline from this call when the request is
     * shed or rejected.
     */
    void submitAsync(const tensor::Tensor &obs,
                     std::chrono::microseconds deadline_budget,
                     const obs::SpanContext &parent,
                     std::function<void(Response &&)> done);

    /** Future flavour of submitAsync(). */
    std::future<Response>
    submit(const tensor::Tensor &obs,
           std::chrono::microseconds deadline_budget =
               std::chrono::microseconds{0},
           const obs::SpanContext &parent = {});

    /** submit() + get(): blocking closed-loop client call. */
    Response
    submitAndWait(const tensor::Tensor &obs,
                  std::chrono::microseconds deadline_budget =
                      std::chrono::microseconds{0})
    {
        return submit(obs, deadline_budget).get();
    }

    int replicas() const
    {
        return static_cast<int>(replicas_.size());
    }

    PolicyServer &replica(int index) { return *replicas_.at(index); }
    const PolicyServer &replica(int index) const
    {
        return *replicas_.at(index);
    }

    const nn::A3cNetwork &network() const { return net_; }

    /** Fleet-wide published version (0 = none yet). */
    std::uint64_t modelVersion() const
    {
        return publishedVersion_.load(std::memory_order_acquire);
    }

    /** Sum of replica queue depths right now. */
    std::size_t aggregateDepth() const;

    /** Aggregate queued-depth bound the shed controller enforces. */
    std::size_t shedThreshold() const { return shedThreshold_; }

    /** Requests routed into a replica (admitted or not). */
    std::uint64_t routed() const
    {
        return routed_.load(std::memory_order_relaxed);
    }

    /** Requests shed at the router before any enqueue. */
    std::uint64_t sheds() const
    {
        return sheds_.load(std::memory_order_relaxed);
    }

    /** sheds / (routed + sheds) over the router's lifetime. */
    double shedRate() const;

  private:
    /** Least-loaded replica right now. */
    int pickReplica() const;

    /** Shed check; fills @p resp and returns true when shedding. */
    bool shedNow(Response &resp);

    /** Terminal route.shed span (retry_after_us attr) under @p parent. */
    void emitShedSpan(const obs::SpanContext &parent,
                      std::chrono::steady_clock::time_point t0,
                      const Response &resp);

    const nn::A3cNetwork &net_;
    FleetConfig cfg_;
    std::vector<std::unique_ptr<PolicyServer>> replicas_;
    std::size_t shedThreshold_ = 0;
    std::atomic<std::uint64_t> publishedVersion_{0};
    std::atomic<std::uint64_t> routed_{0};
    std::atomic<std::uint64_t> sheds_{0};
    mutable std::atomic<std::uint64_t> rr_{0}; ///< tiebreak cursor
    std::mutex publishMutex_;
    /** Declared last: detaches before members the lambdas read die. */
    obs::TelemetryRegistration telemetryReg_;
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_ROUTER_HH
