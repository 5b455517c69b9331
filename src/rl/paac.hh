/**
 * @file
 * PAAC — Parallel Advantage Actor-Critic (Clemente et al., 2017),
 * one of the two GPU-oriented A3C alternatives the paper discusses in
 * its related work (Section 6): a *single* parameter set, and all
 * environments advanced in lock step so every inference and training
 * computation can be batched. After each set of t_max steps the
 * global parameters are updated once with the gradients from all
 * environments, and every environment waits for that update.
 *
 * Functionally this library's PAAC matches that algorithm exactly;
 * the batching that makes it GPU-friendly is a device-level concern
 * (modeled separately by the GA3C/GPU platform simulators).
 */

#ifndef FA3C_RL_PAAC_HH
#define FA3C_RL_PAAC_HH

#include <cstdint>
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

/** PAAC hyper-parameters: the shared ones plus the environment
 * count. */
struct PaacConfig : TrainerConfig
{
    int numEnvs = 16;   ///< environments advanced in lock step
};

/**
 * The synchronous PAAC trainer.
 *
 * Unlike A3cTrainer there are no local parameter snapshots and no
 * asynchrony: all environments use the global parameters directly,
 * and exactly one update is applied per numEnvs * tMax steps.
 */
class PaacTrainer
{
  public:
    using BackendFactory = A3cTrainer::BackendFactory;
    using SessionFactory = A3cTrainer::SessionFactory;

    PaacTrainer(const nn::A3cNetwork &net, const PaacConfig &cfg,
                BackendFactory backend_factory,
                SessionFactory session_factory);

    /** Train until totalSteps (checking @p stop_early per batch). */
    void run(std::function<bool()> stop_early = {});

    GlobalParams &globalParams() { return global_; }
    const ScoreLog &scores() const { return scores_; }

    /** Updates applied so far (one per synchronized batch). */
    std::uint64_t updatesApplied() const { return global_.version(); }

    /**
     * Capture the full training state. PAAC is synchronous, so
     * checkpoints always carry the per-environment state and resume
     * bit-exactly (at batch boundaries). The trainer writes no file;
     * save the image with saveCheckpointToFile.
     */
    TrainingCheckpoint checkpoint();

    /** Restore state captured by checkpoint(); false — without
     * touching any state — on an algorithm/layout/env-count
     * mismatch. */
    bool restore(const TrainingCheckpoint &ckpt);

  private:
    struct EnvSlot
    {
        std::unique_ptr<env::AtariSession> session;
        std::vector<nn::A3cNetwork::Activations> rollout;
        std::vector<int> actions;
        std::vector<float> rewards;
        std::vector<std::vector<float>> probs;
        std::vector<float> values;
        int rolloutLen = 0;
        bool episodeEnded = false;
    };

    const nn::A3cNetwork &net_;
    PaacConfig cfg_;
    GlobalParams global_;
    ScoreLog scores_;
    sim::Rng rng_;
    std::vector<EnvSlot> envs_;
    /** The one DNN executor (factory id 0): one thread runs every
     * pass of every environment under the one theta_, so one staged
     * copy serves them all. */
    std::unique_ptr<DnnBackend> backend_;
    nn::ParamSet theta_;
    nn::ParamSet grads_;
    nn::A3cNetwork::Activations bootstrap_;

    /** One synchronized batch: rollouts + a single global update. */
    std::uint64_t runBatch();
};

} // namespace fa3c::rl

#endif // FA3C_RL_PAAC_HH
