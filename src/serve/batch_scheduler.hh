/**
 * @file
 * The dynamic-batching worker pool of the policy server.
 *
 * Each worker owns a private DnnBackend (backends keep per-agent
 * scratch and staged weight layouts, so they are never shared) and
 * loops: take up to the max batch size of whatever is queued
 * (earliest deadline first), stage parameters if the model version
 * moved, run one forwardBatch, and complete every request's callback
 * with softmax/argmax/value.
 *
 * This mirrors the paper's dedicated inference compute unit, which
 * serves each task as soon as it is ready. Batch formation is
 * work-conserving: a free worker never waits for company, so batches
 * grow only when requests pile up while the workers are busy, and
 * that is exactly when amortizing weight traffic and dispatch
 * overhead across requests pays.
 */

#ifndef FA3C_SERVE_BATCH_SCHEDULER_HH
#define FA3C_SERVE_BATCH_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/slo.hh"
#include "rl/backend.hh"
#include "serve/model_registry.hh"
#include "serve/request_queue.hh"
#include "sim/stats.hh"

namespace fa3c::serve {

/** Batch-formation policy. */
struct BatchPolicy
{
    int maxBatch = 16; ///< forwardBatch size cap
};

/** Worker pool turning queued requests into completed responses. */
class BatchScheduler
{
  public:
    /** Builds the per-worker backend; @p worker is 0-based. */
    using BackendFactory =
        std::function<std::unique_ptr<rl::DnnBackend>(int worker)>;

    /**
     * @param net         Network geometry (must outlive the pool).
     * @param queue       Source of admitted requests.
     * @param registry    Source of parameter versions.
     * @param policy      Batch-formation policy.
     * @param num_workers Worker thread count (>= 1).
     * @param factory     Per-worker backend builder.
     * @param stats       Shared stat group for serve.* metrics.
     * @param stats_mutex Guards @p stats (shared with the server).
     * @param slo         Rolling-window monitor fed per completion
     *                    (may be null).
     */
    BatchScheduler(const nn::A3cNetwork &net, RequestQueue &queue,
                   ModelRegistry &registry, const BatchPolicy &policy,
                   int num_workers, BackendFactory factory,
                   sim::StatGroup *stats, std::mutex *stats_mutex,
                   obs::SloMonitor *slo = nullptr);
    ~BatchScheduler();

    BatchScheduler(const BatchScheduler &) = delete;
    BatchScheduler &operator=(const BatchScheduler &) = delete;

    /** Launch the workers. Idempotent. */
    void start();

    /**
     * Drain and join. The queue must be close()d first; every request
     * still queued is served before workers exit.
     */
    void stop();

  private:
    void workerMain(int index);
    void completeExpired(std::vector<Request> &expired);

    const nn::A3cNetwork &net_;
    RequestQueue &queue_;
    ModelRegistry &registry_;
    BatchPolicy policy_;
    int numWorkers_;
    BackendFactory factory_;
    sim::StatGroup *stats_;
    std::mutex *statsMutex_;
    obs::SloMonitor *slo_;
    std::vector<std::thread> workers_;
    bool started_ = false;
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_BATCH_SCHEDULER_HH
