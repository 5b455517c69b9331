/**
 * @file
 * GA3C (Babaeizadeh et al., ICLR 2017), the GPU-centric A3C variant
 * the paper benchmarks as GA3C-TF and critiques in Section 6: all
 * agents share one global parameter set (no local snapshots); a
 * predictor serves action requests in batches using a *stale* copy of
 * the parameters, while the trainer consumes queued rollouts and
 * updates the current parameters — so "the model used for inference
 * may be different from the model used for training", the policy-lag
 * effect that can make learning unstable or slow.
 *
 * This functional implementation reproduces exactly that semantics:
 * rollouts are collected under a predictor snapshot refreshed only
 * every predictorRefreshUpdates updates, queued, and trained on with
 * the *current* parameters (the trainer recomputes the forward pass,
 * as GA3C's trainer thread does).
 */

#ifndef FA3C_RL_GA3C_HH
#define FA3C_RL_GA3C_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "env/session.hh"
#include "nn/a3c_network.hh"
#include "rl/a3c.hh"
#include "rl/backend.hh"
#include "rl/global_params.hh"
#include "rl/score_log.hh"

namespace fa3c::rl {

/** GA3C hyper-parameters: the shared ones plus GA3C's batching. */
struct Ga3cConfig : TrainerConfig
{
    int numEnvs = 16;
    /** Rollouts fused into one trainer update (GA3C's batching). */
    int trainingBatch = 4;
    /** Updates between predictor snapshot refreshes; 1 = refresh
     * after every update (minimal lag), larger = more policy lag. */
    int predictorRefreshUpdates = 1;
};

/** The GA3C trainer. */
class Ga3cTrainer
{
  public:
    using BackendFactory = A3cTrainer::BackendFactory;
    using SessionFactory = A3cTrainer::SessionFactory;

    Ga3cTrainer(const nn::A3cNetwork &net, const Ga3cConfig &cfg,
                BackendFactory backend_factory,
                SessionFactory session_factory);

    /** Train until totalSteps. */
    void run(std::function<bool()> stop_early = {});

    GlobalParams &globalParams() { return global_; }
    const ScoreLog &scores() const { return scores_; }
    std::uint64_t updatesApplied() const { return global_.version(); }
    std::uint64_t predictorRefreshes() const { return refreshes_; }

    /** Max |theta_predict - theta_train| right now (the policy lag
     * the paper's Section 6 warns about). */
    float currentPolicyLag() const;

    /**
     * Capture the recoverable training state. In-flight and queued
     * rollouts are *not* captured (they reference a stale predictor
     * snapshot); resume re-collects them, so at most
     * numEnvs * tMax environment steps of rollout work is repeated
     * and GA3C resume is crash-consistent rather than bit-exact. The
     * trainer writes no file; save the image with
     * saveCheckpointToFile.
     */
    TrainingCheckpoint checkpoint();

    /** Restore state captured by checkpoint(); false — without
     * touching any state — on an algorithm/layout/env-count
     * mismatch. Drops any queued rollouts and re-snapshots the
     * predictor from the restored parameters. */
    bool restore(const TrainingCheckpoint &ckpt);

  private:
    /** A finished rollout waiting in the training queue. */
    struct QueuedRollout
    {
        std::vector<tensor::Tensor> observations; ///< length <= tMax+1
        std::vector<int> actions;
        std::vector<float> rewards;
        bool episodeEnded = false;
    };

    struct EnvSlot
    {
        std::unique_ptr<env::AtariSession> session;
        QueuedRollout inFlight;
    };

    const nn::A3cNetwork &net_;
    Ga3cConfig cfg_;
    GlobalParams global_;
    ScoreLog scores_;
    sim::Rng rng_;
    std::vector<EnvSlot> envs_;
    /**
     * The predictor's DNN executor (factory id 0) and the trainer's
     * (id 1). GA3C's predictor and trainer are separate device streams
     * holding different thetas; one backend each keeps staged
     * parameter layouts coherent — the predictor's always holds
     * thetaPredict_, the trainer's always thetaTrain_.
     */
    std::unique_ptr<DnnBackend> predictorBackend_;
    std::unique_ptr<DnnBackend> trainerBackend_;
    nn::ParamSet thetaPredict_;
    nn::ParamSet thetaTrain_;
    nn::ParamSet grads_;
    nn::A3cNetwork::Activations scratch_;
    /** Per-env activation caches for the batched predictor forward. */
    std::vector<nn::A3cNetwork::Activations> predictActs_;
    std::deque<QueuedRollout> trainingQueue_;
    std::uint64_t refreshes_ = 0;
    int updatesSinceRefresh_ = 0;

    void refreshPredictor();
    /** Advance every environment one step with the stale predictor. */
    std::uint64_t predictorStep();
    /** Train on one batch of queued rollouts with the current
     * parameters. */
    void trainerStep();
};

} // namespace fa3c::rl

#endif // FA3C_RL_GA3C_HH
