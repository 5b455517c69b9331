#include "rl/ga3c.hh"

#include <algorithm>

#include "nn/layers.hh"
#include "obs/prometheus.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"
#include "sim/serial.hh"

namespace fa3c::rl {

Ga3cTrainer::Ga3cTrainer(const nn::A3cNetwork &net,
                         const Ga3cConfig &cfg,
                         BackendFactory backend_factory,
                         SessionFactory session_factory)
    : net_(net), cfg_(cfg),
      global_(net, cfg.rmsprop, cfg.initialLr, cfg.lrAnnealSteps),
      rng_(cfg.seed ^ 0x6A3C6A3C6A3C6A3CULL),
      thetaPredict_(net.makeParams()), thetaTrain_(net.makeParams()),
      grads_(net.makeParams()), scratch_(net.makeActivations())
{
    FA3C_ASSERT(cfg_.trainingBatch >= 1 &&
                    cfg_.predictorRefreshUpdates >= 1,
                "Ga3cConfig batching");
    if (!backend_factory)
        backend_factory = [this](int) {
            return makeDnnBackend(cfg_.backend, net_);
        };
    sim::Rng init_rng(cfg_.seed);
    global_.initialize(init_rng);
    global_.snapshot(thetaPredict_);
    predictorBackend_ = backend_factory(0);
    trainerBackend_ = backend_factory(1);
    for (int i = 0; i < cfg_.numEnvs; ++i) {
        EnvSlot slot;
        slot.session = session_factory(i);
        envs_.push_back(std::move(slot));
        predictActs_.push_back(net.makeActivations());
    }
}

int
Ga3cTrainer::sampleAction(std::span<const float> probs)
{
    float u = rng_.uniformF();
    for (std::size_t a = 0; a < probs.size(); ++a) {
        u -= probs[a];
        if (u <= 0.0f)
            return static_cast<int>(a);
    }
    return static_cast<int>(probs.size()) - 1;
}

void
Ga3cTrainer::refreshPredictor()
{
    global_.snapshot(thetaPredict_);
    predictorBackend_->onParamSync(thetaPredict_);
    ++refreshes_;
    updatesSinceRefresh_ = 0;
}

std::uint64_t
Ga3cTrainer::predictorStep()
{
    // Serve every environment's action request as one batched
    // inference under the stale predictor snapshot — this is exactly
    // GA3C's predictor thread, which exists to batch device work.
    // Environments act only after the batch returns, so the
    // action-sampling rng stream matches the per-env formulation.
    std::vector<const tensor::Tensor *> batch_obs;
    std::vector<nn::A3cNetwork::Activations *> batch_acts;
    batch_obs.reserve(envs_.size());
    batch_acts.reserve(envs_.size());
    for (std::size_t i = 0; i < envs_.size(); ++i) {
        auto &roll = envs_[i].inFlight;
        // Record the observation the action is taken from.
        roll.observations.push_back(envs_[i].session->observation());
        batch_obs.push_back(&roll.observations.back());
        batch_acts.push_back(&predictActs_[i]);
    }
    predictorBackend_->forwardBatch(thetaPredict_, batch_obs,
                                    batch_acts);

    std::uint64_t steps = 0;
    std::vector<float> probs;
    for (std::size_t i = 0; i < envs_.size(); ++i) {
        auto &slot = envs_[i];
        auto &roll = slot.inFlight;
        const nn::A3cNetwork::Activations &act = predictActs_[i];
        probs.assign(static_cast<std::size_t>(
                         slot.session->numActions()),
                     0.0f);
        nn::softmax(net_.policyLogits(act), probs);
        const int action = sampleAction(probs);
        const auto step = slot.session->act(action);
        roll.actions.push_back(action);
        roll.rewards.push_back(step.clippedReward);
        ++steps;
        if (step.episodeEnd) {
            scores_.record(global_.globalSteps() + steps,
                           slot.session->lastEpisodeScore(),
                           static_cast<int>(&slot - envs_.data()));
            roll.episodeEnded = true;
        }
        if (roll.episodeEnded ||
            static_cast<int>(roll.actions.size()) >= cfg_.tMax) {
            if (!roll.episodeEnded) {
                // The trainer bootstraps from the post-rollout state.
                roll.observations.push_back(
                    slot.session->observation());
            }
            trainingQueue_.push_back(std::move(roll));
            roll = QueuedRollout{};
        }
    }
    return steps;
}

void
Ga3cTrainer::trainerStep()
{
    // GA3C's trainer uses the *current* global parameters, not the
    // (possibly stale) copy the predictor acted with.
    global_.snapshot(thetaTrain_);
    trainerBackend_->onParamSync(thetaTrain_);
    grads_.zero();
    tensor::Tensor g_out(tensor::Shape({net_.outSize()}));
    std::vector<float> probs;
    std::uint64_t samples = 0;

    const int batch = std::min<std::size_t>(
        static_cast<std::size_t>(cfg_.trainingBatch),
        trainingQueue_.size());
    for (int b = 0; b < batch; ++b) {
        QueuedRollout roll = std::move(trainingQueue_.front());
        trainingQueue_.pop_front();
        const std::size_t len = roll.actions.size();
        if (len == 0)
            continue;

        // Recompute the forward passes under theta_train; this is
        // where the policy lag enters (actions were chosen by
        // theta_predict).
        float ret = 0.0f;
        if (!roll.episodeEnded) {
            trainerBackend_->forward(thetaTrain_,
                                     roll.observations.back(),
                                     scratch_);
            ret = net_.value(scratch_);
        }
        for (std::size_t t = len; t-- > 0;) {
            trainerBackend_->forward(thetaTrain_,
                                     roll.observations[t], scratch_);
            probs.assign(
                static_cast<std::size_t>(net_.config().numActions),
                0.0f);
            nn::softmax(net_.policyLogits(scratch_), probs);
            ret = roll.rewards[t] + cfg_.gamma * ret;
            deltaObjective(probs, roll.actions[t], ret,
                           net_.value(scratch_), cfg_.entropyBeta,
                           cfg_.valueGradScale, g_out.data());
            trainerBackend_->backward(thetaTrain_, scratch_, g_out,
                                      grads_);
            ++samples;
        }
    }
    if (samples == 0)
        return;
    const float inv = 1.0f / static_cast<float>(batch);
    for (float &g : grads_.flat())
        g *= inv;
    if (cfg_.gradNormClip > 0.0f)
        clipGradNorm(grads_, cfg_.gradNormClip);
    // Steps were already counted by applyGradients' caller side; the
    // update itself consumes no new environment steps.
    global_.applyGradients(grads_, 0);
    ++updatesSinceRefresh_;
    if (updatesSinceRefresh_ >= cfg_.predictorRefreshUpdates)
        refreshPredictor();
}

float
Ga3cTrainer::currentPolicyLag() const
{
    return nn::ParamSet::maxAbsDiff(thetaPredict_, global_.theta());
}

TrainingCheckpoint
Ga3cTrainer::checkpoint()
{
    TrainingCheckpoint ckpt;
    ckpt.algorithm = "ga3c";
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    global_.checkpoint(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                       ckpt.updates);
    ckpt.refreshes = refreshes_;
    ckpt.updatesSinceRefresh =
        static_cast<std::uint64_t>(updatesSinceRefresh_);
    ckpt.trainerRng = rng_.state();
    ckpt.scoreTail = scores_.tail(kScoreTailMax);
    ckpt.hasAgentState = true;
    ckpt.agentStates.reserve(envs_.size());
    for (auto &slot : envs_) {
        sim::ByteWriter w;
        sim::StateArchive ar(w);
        slot.session->archiveState(ar);
        ckpt.agentStates.push_back(w.bytes());
    }
    return ckpt;
}

bool
Ga3cTrainer::restore(const TrainingCheckpoint &ckpt)
{
    if (ckpt.algorithm != "ga3c" ||
        !ckpt.theta.sameLayout(thetaTrain_))
        return false;
    if (ckpt.hasAgentState && ckpt.agentStates.size() != envs_.size())
        return false;
    if (ckpt.hasAgentState) {
        for (std::size_t i = 0; i < envs_.size(); ++i) {
            sim::ByteReader r(ckpt.agentStates[i]);
            sim::StateArchive ar(r);
            if (!envs_[i].session->archiveState(ar) ||
                r.remaining() != 0)
                return false;
        }
        rng_.setState(ckpt.trainerRng);
    }
    global_.restore(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                    ckpt.updates);
    scores_.restore(ckpt.scoreTail);
    refreshes_ = ckpt.refreshes;
    updatesSinceRefresh_ =
        static_cast<int>(ckpt.updatesSinceRefresh);
    // Queued/in-flight rollouts were collected under the pre-crash
    // predictor snapshot; drop them and start the predictor from the
    // restored parameters (counters stay as restored above).
    trainingQueue_.clear();
    for (auto &slot : envs_)
        slot.inFlight = QueuedRollout{};
    global_.snapshot(thetaPredict_);
    predictorBackend_->onParamSync(thetaPredict_);
    return true;
}

bool
Ga3cTrainer::resumeFromFile(const std::string &path)
{
    const std::string &file =
        path.empty() ? cfg_.checkpointPath : path;
    TrainingCheckpoint ckpt;
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    return loadCheckpointFromFile(ckpt, file) && restore(ckpt);
}

void
Ga3cTrainer::maybeCheckpoint()
{
    if (cfg_.checkpointPath.empty())
        return;
    bool due = consumeCheckpointRequest();
    if (cfg_.checkpointEverySteps > 0 &&
        global_.globalSteps() >= nextCheckpointAt_)
        due = true;
    if (!due)
        return;
    saveCheckpointToFile(checkpoint(), cfg_.checkpointPath);
    while (cfg_.checkpointEverySteps > 0 &&
           nextCheckpointAt_ <= global_.globalSteps())
        nextCheckpointAt_ += cfg_.checkpointEverySteps;
}

void
Ga3cTrainer::run(std::function<bool()> stop_early)
{
    obs::TelemetryRegistration telemetry_reg(
        obs::telemetry(),
        [this](obs::PromWriter &w) {
            w.gauge("rl_ga3c_global_steps",
                    static_cast<double>(global_.globalSteps()),
                    "environment steps consumed by the GA3C trainer");
            w.gauge("rl_ga3c_total_steps",
                    static_cast<double>(cfg_.totalSteps),
                    "configured GA3C training budget");
        },
        "trainer.ga3c",
        [this](std::string &detail) {
            detail = "steps=" +
                     std::to_string(global_.globalSteps()) + "/" +
                     std::to_string(cfg_.totalSteps);
            return true;
        });

    if (cfg_.checkpointEverySteps > 0)
        nextCheckpointAt_ =
            global_.globalSteps() + cfg_.checkpointEverySteps;
    while (global_.globalSteps() < cfg_.totalSteps) {
        if (stop_early && stop_early())
            return;
        global_.addSteps(predictorStep());
        while (static_cast<int>(trainingQueue_.size()) >=
               cfg_.trainingBatch)
            trainerStep();
        maybeCheckpoint();
    }
}

} // namespace fa3c::rl
