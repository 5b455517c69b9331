/**
 * @file
 * The Asynchronous Advantage Actor-Critic algorithm (Mnih et al.,
 * ICML 2016), structured exactly as the paper's Figure 2: each agent
 * loops over {parameter sync, t_max inference tasks, one bootstrap
 * inference, one training task, global update via shared RMSProp}.
 */

#ifndef FA3C_RL_A3C_HH
#define FA3C_RL_A3C_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "nn/rmsprop.hh"
#include "obs/telemetry.hh"
#include "rl/backend.hh"
#include "rl/checkpoint.hh"
#include "rl/global_params.hh"
#include "rl/score_log.hh"
#include "sim/serial.hh"
#include "sim/stats.hh"

namespace fa3c::rl {

/**
 * Hyper-parameters every A3C-family trainer (A3C, PAAC, GA3C) shares;
 * defaults follow the paper / original A3C.
 */
struct TrainerConfig
{
    int tMax = 5;                  ///< rollout length (paper: 5)
    float gamma = 0.99f;           ///< reward discount
    float entropyBeta = 0.01f;     ///< entropy regularization weight
    float valueGradScale = 0.5f;   ///< value-loss gradient coefficient
    float initialLr = 7e-4f;       ///< paper Section 5.6
    std::uint64_t lrAnnealSteps = 100'000'000; ///< linear decay horizon
    float gradNormClip = 40.0f;    ///< global grad-norm clip; <=0 off
    nn::RmspropConfig rmsprop;
    std::uint64_t totalSteps = 100'000; ///< run length (env steps)
    std::uint64_t seed = 1;
    /** DNN backend built when the trainer is handed a null
     * BackendFactory (an explicit factory wins). */
    BackendKind backend = BackendKind::Reference;
};

/** A3C's own settings on top of the shared hyper-parameters. */
struct A3cConfig : TrainerConfig
{
    int numAgents = 16;
    bool async = true; ///< threads per agent; false = deterministic
                       ///< round-robin in the calling thread
    /** Checkpoint file ("" disables checkpointing entirely). */
    std::string checkpointPath;
    /** Env steps between periodic checkpoints (0 = only on signal
     * and at the end of the run). */
    std::uint64_t checkpointEverySteps = 0;
};

/**
 * Host-side delta-objective: the gradient of the A3C loss w.r.t. the
 * FC4 outputs (action logits + value), for one sample.
 *
 * Loss = -log pi(a) * (R - V)  [advantage treated as constant]
 *        - entropyBeta * H(pi)
 *        + valueGradScale * (R - V)^2 / 2 semantics on the value head.
 *
 * @param probs   Softmax action probabilities.
 * @param action  Action taken.
 * @param ret     Bootstrapped n-step return R.
 * @param value   V(s) from the forward pass.
 * @param entropy_beta     Entropy weight.
 * @param value_grad_scale Value-head gradient coefficient.
 * @param g_out   Output: gradient w.r.t. [logits..., value].
 */
void deltaObjective(std::span<const float> probs, int action, float ret,
                    float value, float entropy_beta,
                    float value_grad_scale, std::span<float> g_out);

/**
 * Scale @p grads in place so the global L2 norm is at most @p max_norm.
 *
 * @return The pre-clip norm.
 */
float clipGradNorm(nn::ParamSet &grads, float max_norm);

/**
 * Sample an action from the categorical distribution @p probs by
 * inverse CDF, with one draw from @p rng. Falls through to the last
 * action when the probabilities sum to less than the draw.
 */
int sampleAction(std::span<const float> probs, sim::Rng &rng);

/**
 * Attach a trainer to the telemetry plane for the duration of a run:
 * the `rl_<algo>_global_steps` and `rl_<algo>_total_steps` gauges on
 * /metrics and a `trainer.<algo>` readiness probe on /readyz.
 */
obs::TelemetryRegistration trainerTelemetry(const std::string &algo,
                                            const GlobalParams &global,
                                            std::uint64_t total_steps);

/**
 * Thread-safe training diagnostics shared by all agents: the mean
 * policy entropy (a collapsing policy is the classic A3C failure
 * mode) and the pre-clip gradient norms.
 */
class TrainingDiagnostics
{
  public:
    /** Record one routine's mean policy entropy and gradient norm. */
    void record(double mean_entropy, double grad_norm);

    /** Snapshot of the entropy distribution so far. */
    sim::Distribution entropy() const;

    /** Snapshot of the pre-clip gradient-norm distribution. */
    sim::Distribution gradNorm() const;

  private:
    mutable std::mutex mutex_;
    sim::Distribution entropy_;
    sim::Distribution gradNorm_;
};

/**
 * One A3C agent: an environment session, a local parameter snapshot,
 * and the rollout/update loop. The DNN math goes through a DnnBackend.
 */
class A3cAgent
{
  public:
    /**
     * @param id       Agent index (seeds and logs).
     * @param cfg      Shared hyper-parameters.
     * @param backend  DNN executor (owned).
     * @param session  Environment frontend (owned).
     * @param global   Parameter plane the agent syncs from and pushes
     *                 gradients to — in-process GlobalParams for the
     *                 classic trainers, a dist::RemoteParams proxy
     *                 when the agent runs inside a PS worker process.
     * @param scores   Shared episode log.
     */
    A3cAgent(int id, const A3cConfig &cfg,
             std::unique_ptr<DnnBackend> backend,
             std::unique_ptr<env::AtariSession> session,
             ParamService &global, ScoreLog &scores,
             TrainingDiagnostics &diagnostics);

    /**
     * Run one routine: parameter sync, up to t_max inference steps,
     * bootstrap inference, training task, global update.
     *
     * @return Environment steps consumed.
     */
    int runRoutine();

    int id() const { return id_; }
    const env::AtariSession &session() const { return *session_; }

    /** Visit the agent's recoverable state (action-sampling rng +
     * session + game) for checkpointing. */
    bool archiveState(sim::StateArchive &ar);

  private:
    int id_;
    const A3cConfig &cfg_;
    std::unique_ptr<DnnBackend> backend_;
    std::unique_ptr<env::AtariSession> session_;
    ParamService &global_;
    ScoreLog &scores_;
    TrainingDiagnostics &diagnostics_;
    sim::Rng rng_;

    nn::ParamSet local_;
    nn::ParamSet grads_;
    std::vector<nn::A3cNetwork::Activations> rollout_;
    nn::A3cNetwork::Activations bootstrap_;
    std::vector<int> actions_;
    std::vector<float> rewards_;
    std::vector<float> values_;
    std::vector<std::vector<float>> probs_;
};

/**
 * Drives numAgents agents until totalSteps environment steps have been
 * consumed, either on one thread per agent (async, the real A3C
 * setting) or round-robin on the calling thread (deterministic).
 */
class A3cTrainer
{
  public:
    /** Creates the per-agent DNN executor. */
    using BackendFactory =
        std::function<std::unique_ptr<DnnBackend>(int agent_id)>;

    /** Creates the per-agent environment session. */
    using SessionFactory =
        std::function<std::unique_ptr<env::AtariSession>(int agent_id)>;

    /**
     * @param net     Network geometry (must outlive the trainer).
     * @param backend_factory Per-agent DNN executor; pass {} to build
     *                cfg.backend through makeDnnBackend.
     */
    A3cTrainer(const nn::A3cNetwork &net, const A3cConfig &cfg,
               BackendFactory backend_factory,
               SessionFactory session_factory);

    /**
     * Train until cfg.totalSteps, until stop_early returns true, or
     * until SIGINT/SIGTERM arrives (installCheckpointSignalHandler);
     * all three are checked between routines. When cfg.checkpointPath
     * is set, a checkpoint is written every cfg.checkpointEverySteps
     * env steps, whenever a SIGUSR1 checkpoint request is pending, and
     * once when the run ends. No agent runs at that point, so the
     * end-of-run image carries every agent's state, async or not.
     */
    void run(std::function<bool()> stop_early = {});

    /**
     * Capture the full training state. @p include_agent_state must be
     * false while agent threads are running (async checkpoints then
     * carry only the mutex-consistent global state and resume with
     * freshly seeded agents); with no threads running — outside run()
     * or with async=false — pass true for a bit-exact image.
     */
    TrainingCheckpoint checkpoint(bool include_agent_state = true);

    /**
     * Restore state captured by checkpoint(). @return false — without
     * touching the global parameters — when the checkpoint came from
     * a different algorithm, network layout, or agent count.
     */
    bool restore(const TrainingCheckpoint &ckpt);

    /** Load cfg.checkpointPath (or @p path) and restore; false when
     * the file is absent, corrupt, or incompatible. */
    bool resumeFromFile(const std::string &path = "");

    GlobalParams &globalParams() { return global_; }
    const ScoreLog &scores() const { return scores_; }
    const TrainingDiagnostics &diagnostics() const
    {
        return diagnostics_;
    }

  private:
    const nn::A3cNetwork &net_;
    A3cConfig cfg_;
    GlobalParams global_;
    ScoreLog scores_;
    TrainingDiagnostics diagnostics_;
    std::vector<std::unique_ptr<A3cAgent>> agents_;
    std::uint64_t nextCheckpointAt_ = 0;

    /** Write a periodic/on-signal checkpoint when one is due. */
    void maybeCheckpoint(bool include_agent_state);
};

} // namespace fa3c::rl

#endif // FA3C_RL_A3C_HH
