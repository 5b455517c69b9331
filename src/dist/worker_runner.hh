/**
 * @file
 * The worker side of distributed A3C.
 *
 * RemoteParams is a rl::ParamService backed by a PsClient instead of
 * the in-process rl::GlobalParams: snapshot() serves the locally
 * cached theta, and applyGradients() pushes the gradients to the PS
 * with wantParams set, so the fresh theta rides back on the ack and
 * the next parameter-sync task sees it — one round trip per routine,
 * exactly the cadence of the paper's in-process global update. The
 * unmodified rl::A3cAgent runs against it; the agent cannot tell a
 * remote parameter plane from a local one.
 *
 * A WorkerRunner owns the whole worker process body: it joins the PS
 * (retrying while the PS is still coming up), builds numAgents A3C
 * agents over the cached parameter plane, runs them on one thread
 * each, and keeps the lease alive from a dedicated heartbeat
 * connection. Transport failures and lease reaps are handled by
 * reconnect + re-Hello with backoff — the elastic-rejoin path — so a
 * worker can outlive a PS restart and a replacement worker can join a
 * running fleet cold.
 */

#ifndef FA3C_DIST_WORKER_RUNNER_HH
#define FA3C_DIST_WORKER_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/ps_client.hh"
#include "dist/wire.hh"
#include "nn/a3c_network.hh"
#include "nn/params.hh"
#include "obs/telemetry.hh"
#include "rl/a3c.hh"
#include "rl/param_service.hh"
#include "rl/score_log.hh"

namespace fa3c::dist {

/** rl::ParamService proxy for a remote parameter server. */
class RemoteParams : public rl::ParamService
{
  public:
    RemoteParams(const nn::A3cNetwork &net, std::string host,
                 int port, std::string worker_name);

    /**
     * Connect, Hello, and Pull the initial theta. @return false when
     * the PS is unreachable or rejects the layout; call again to
     * retry (WorkerRunner does, with backoff).
     */
    bool join();

    /** Serve the cached theta (the last ack's image). */
    void snapshot(nn::ParamSet &local) override;

    /**
     * Push @p grads to the PS and refresh the cache from the ack.
     * Handles reconnect + re-Hello internally; gradients are dropped
     * (never silently re-applied) when the transport fails mid-push.
     */
    void applyGradients(const nn::ParamSet &grads,
                        std::uint64_t steps_consumed) override;

    /** Global steps as of the last ack (lr annealing, progress). */
    std::uint64_t globalSteps() const override;

    /** True once the PS said stop (or abort() was called). */
    bool
    stopped() const
    {
        return stop_.load(std::memory_order_acquire);
    }

    /** Make every blocked retry loop give up (local shutdown). */
    void abort();

    /** Release the lease with a Bye and close (clean worker exit). */
    void leave();

    /** Current lease id (0 while unjoined); heartbeats quote it. */
    std::uint64_t
    workerId() const
    {
        return workerId_.load(std::memory_order_acquire);
    }

    /** Version of the cached theta (tests, staleness probes). */
    std::uint64_t version() const;

    /** Lease TTL granted by the Welcome (drives heartbeat cadence). */
    std::uint32_t leaseTtlMs() const;

    /** Pushes the PS rejected for staleness (local counter). */
    std::uint64_t
    staleRejects() const
    {
        return staleRejects_.load(std::memory_order_relaxed);
    }

  private:
    const nn::A3cNetwork &net_;
    std::string host_;
    int port_;
    std::string name_;

    // client_ + cache; every RPC on the push connection holds this.
    mutable std::mutex mutex_;
    PsClient client_;
    bool joined_ = false;
    nn::ParamSet cache_; ///< acks and pulls decode theta into this
    std::uint64_t cacheVersion_ = 0;
    std::uint32_t leaseTtlMs_ = 0;
    std::vector<float> prevTheta_; ///< cache_ before a push (metrics)

    std::atomic<std::uint64_t> workerId_{0};
    std::atomic<std::uint64_t> lastSteps_{0};
    std::atomic<std::uint64_t> staleRejects_{0};
    std::atomic<bool> stop_{false};

    /** Hello + initial Pull on an open connection (mutex_ held). */
    bool joinLocked();
    /** Reconnect + re-Hello with backoff (mutex_ held). */
    bool rejoinLocked();
};

/** One worker process: agents + heartbeat over a RemoteParams. */
struct WorkerConfig
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string name = "worker";

    /** Rollout hyper-parameters. totalSteps/checkpointPath are
     * ignored — run length and durability belong to the PS. */
    rl::A3cConfig a3c;

    std::string game = "pong";

    /** Give up joining after this many attempts (250 ms apart). */
    int joinAttempts = 40;

    /** Heartbeat period; 0 derives ttl/3 from the Welcome. */
    std::uint32_t heartbeatMs = 0;

    /** Stop after this many routines across all agents (0 = run
     * until the PS says stop). Tests and benches bound runs here. */
    std::uint64_t maxRoutines = 0;
};

class WorkerRunner
{
  public:
    /**
     * @param backend_factory Per-agent DNN executor; {} builds
     *                        cfg.a3c.backend via makeDnnBackend.
     * @param session_factory Per-agent environment; {} builds
     *                        cfg.game Atari sessions seeded per agent.
     */
    WorkerRunner(const nn::A3cNetwork &net, const WorkerConfig &cfg,
                 rl::A3cTrainer::BackendFactory backend_factory = {},
                 rl::A3cTrainer::SessionFactory session_factory = {});
    ~WorkerRunner();

    WorkerRunner(const WorkerRunner &) = delete;
    WorkerRunner &operator=(const WorkerRunner &) = delete;

    /**
     * Join the PS and train until it says stop (or maxRoutines).
     * Blocking; @return false when the worker never managed to join.
     */
    bool run();

    /** Ask a concurrent run() to wind down. */
    void requestStop();

    const rl::ScoreLog &scores() const { return scores_; }
    std::uint64_t
    routines() const
    {
        return routines_.load(std::memory_order_relaxed);
    }
    RemoteParams &remote() { return remote_; }

  private:
    const nn::A3cNetwork &net_;
    WorkerConfig cfg_;
    RemoteParams remote_;
    rl::ScoreLog scores_;
    rl::TrainingDiagnostics diagnostics_;
    rl::A3cTrainer::BackendFactory backendFactory_;
    rl::A3cTrainer::SessionFactory sessionFactory_;
    std::atomic<std::uint64_t> routines_{0};
    std::atomic<bool> stopRequested_{false};
    obs::TelemetryRegistration telemetry_;

    void heartbeatMain();
};

} // namespace fa3c::dist

#endif // FA3C_DIST_WORKER_RUNNER_HH
