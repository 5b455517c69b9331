/**
 * @file
 * PolicyServer: the in-process entry point of the serving subsystem.
 *
 * Composition: admission-controlled RequestQueue -> BatchScheduler
 * worker pool (per-worker DnnBackend) -> completion callback, with a
 * ModelRegistry on the side that a live trainer publishes parameter
 * versions into (hot-swap without blocking in-flight batches). The
 * replica router (serve/router.hh) runs one PolicyServer per
 * replica; the load-generator bench also drives one directly.
 *
 * Lifecycle: construct -> publish() at least once -> start() ->
 * submitAsync() / submit()... -> stop(). Submissions before the first
 * publish are rejected with RejectedNoModel; submissions after stop()
 * with RejectedClosed.
 */

#ifndef FA3C_SERVE_SERVER_HH
#define FA3C_SERVE_SERVER_HH

#include <atomic>
#include <functional>
#include <future>
#include <memory>

#include "obs/slo.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "rl/backend.hh"
#include "rl/global_params.hh"
#include "serve/batch_scheduler.hh"
#include "serve/model_registry.hh"
#include "serve/request_queue.hh"

namespace fa3c::serve {

/** Everything configurable about a PolicyServer. */
struct ServeConfig
{
    RequestQueue::Config queue;
    BatchPolicy batch;
    int workers = 1;
    /** Backend kind the default factory builds per worker. */
    rl::BackendKind backend = rl::BackendKind::FastCpu;
};

/** A multi-client dynamic-batching inference server over one network. */
class PolicyServer
{
  public:
    /**
     * @param net     Network geometry (must outlive the server).
     * @param cfg     Queue / batching / worker configuration.
     * @param factory Per-worker backend builder; defaults to
     *                makeDnnBackend(cfg.backend, net).
     */
    PolicyServer(const nn::A3cNetwork &net, const ServeConfig &cfg,
                 BatchScheduler::BackendFactory factory = {});

    /** Stops and drains (every pending request gets a response). */
    ~PolicyServer();

    PolicyServer(const PolicyServer &) = delete;
    PolicyServer &operator=(const PolicyServer &) = delete;

    /** Publish a parameter version; @return its version number. */
    std::uint64_t publish(nn::ParamSet params);

    /**
     * Publish the trainer's current global theta (a consistent copy
     * taken under the trainer's update lock).
     */
    std::uint64_t publishFrom(rl::GlobalParams &global);

    /** Launch the worker pool. Idempotent. */
    void start();

    /**
     * Stop accepting work, serve everything already queued, and join
     * the workers. Idempotent; also run by the destructor.
     */
    void stop();

    /**
     * Submit one observation for inference.
     *
     * @param obs             Observation with the network's input
     *                        shape; copied into the request.
     * @param deadline_budget Latency budget from now; zero means no
     *                        deadline. Requests that cannot meet it
     *                        are rejected at admission or timed out
     *                        in the queue.
     * @param parent          Span context of the caller (e.g. the TCP
     *                        front-end); the request's own span is
     *                        minted as its child, or as a fresh
     *                        sampled-or-not root when invalid.
     * @param done            Completion handler. It runs exactly once
     *                        with the response: inline from this call
     *                        on a rejection, from a scheduler worker
     *                        otherwise. It must not block (it runs on
     *                        the serving hot path).
     */
    void submitAsync(const tensor::Tensor &obs,
                     std::chrono::microseconds deadline_budget,
                     const obs::SpanContext &parent,
                     std::function<void(Response &&)> done);

    /**
     * Future flavour of submitAsync(): a handler that fulfils the
     * returned future. Rejected requests resolve immediately.
     */
    std::future<Response>
    submit(const tensor::Tensor &obs,
           std::chrono::microseconds deadline_budget =
               std::chrono::microseconds{0},
           const obs::SpanContext &parent = {});

    /** submit() + get(): the blocking closed-loop client call. */
    Response
    submitAndWait(const tensor::Tensor &obs,
                  std::chrono::microseconds deadline_budget =
                      std::chrono::microseconds{0})
    {
        return submit(obs, deadline_budget).get();
    }

    const nn::A3cNetwork &network() const { return net_; }

    /** Newest published parameter version (0 = none yet). */
    std::uint64_t modelVersion() const { return registry_.version(); }

    std::size_t queueDepth() const { return queue_.depth(); }

    /** Queue capacity (the admission bound this replica enforces). */
    std::size_t queueCapacity() const { return cfg_.queue.maxDepth; }

    /**
     * Estimated time until this replica's queue drains, from the
     * scheduler's observed per-request service time — the
     * retry_after_us hint attached to local rejections, and the load
     * signal the fleet router's shed controller aggregates.
     */
    std::uint32_t drainEstimateUs() const;

    /** Consistent copy of the serve.* counters and histograms. */
    sim::StatGroup statsSnapshot() const;

    /** Rolling-window SLO view over this server's traffic. */
    const obs::SloMonitor &slo() const { return slo_; }
    obs::SloMonitor &slo() { return slo_; }

  private:
    const nn::A3cNetwork &net_;
    ServeConfig cfg_;
    RequestQueue queue_;
    ModelRegistry registry_;
    mutable std::mutex statsMutex_;
    sim::StatGroup stats_;
    obs::SloMonitor slo_;
    BatchScheduler scheduler_;
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
    /** Declared last: detaches from /metrics and /readyz before any
     * member the collector/probe lambdas read is destroyed. */
    obs::TelemetryRegistration telemetryReg_;

    /** Complete @p r immediately with @p status (admission path). */
    void rejectNow(Request &&r, Status status);
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_SERVER_HH
