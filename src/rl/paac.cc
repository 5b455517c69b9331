#include "rl/paac.hh"

#include "nn/layers.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/serial.hh"

namespace fa3c::rl {

PaacTrainer::PaacTrainer(const nn::A3cNetwork &net,
                         const PaacConfig &cfg,
                         BackendFactory backend_factory,
                         SessionFactory session_factory)
    : net_(net), cfg_(cfg),
      global_(net, cfg.rmsprop, cfg.initialLr, cfg.lrAnnealSteps),
      rng_(cfg.seed ^ 0x9AAC9AAC9AAC9AACULL),
      theta_(net.makeParams()), grads_(net.makeParams()),
      bootstrap_(net.makeActivations())
{
    if (!backend_factory)
        backend_factory = [this](int) {
            return makeDnnBackend(cfg_.backend, net_);
        };
    sim::Rng init_rng(cfg_.seed);
    global_.initialize(init_rng);
    backend_ = backend_factory(0);
    envs_.reserve(static_cast<std::size_t>(cfg_.numEnvs));
    for (int i = 0; i < cfg_.numEnvs; ++i) {
        EnvSlot slot;
        slot.session = session_factory(i);
        for (int t = 0; t < cfg_.tMax; ++t)
            slot.rollout.push_back(net.makeActivations());
        slot.actions.resize(static_cast<std::size_t>(cfg_.tMax));
        slot.rewards.resize(static_cast<std::size_t>(cfg_.tMax));
        slot.values.resize(static_cast<std::size_t>(cfg_.tMax));
        slot.probs.assign(
            static_cast<std::size_t>(cfg_.tMax),
            std::vector<float>(static_cast<std::size_t>(
                slot.session->numActions())));
        envs_.push_back(std::move(slot));
    }
}

std::uint64_t
PaacTrainer::runBatch()
{
    obs::TraceWriter *tw = obs::trace();
    const double batch_start = tw ? tw->hostNowUs() : 0.0;
    double phase_start = batch_start;

    // All environments share the single, current parameter set.
    global_.snapshot(theta_);
    backend_->onParamSync(theta_);
    if (tw) {
        tw->hostCompleteEvent("RL batch", "param-sync", phase_start,
                              tw->hostNowUs());
        phase_start = tw->hostNowUs();
    }

    // Lock-step rollouts: step t of every environment before step
    // t+1 of any (this is what lets PAAC batch device work). The
    // per-step inference is a single forwardBatch call — the
    // device-level batching PAAC exists for —
    // and environments act only after the whole batch returns, so the
    // action-sampling rng stream matches the per-env formulation
    // exactly.
    for (auto &slot : envs_) {
        slot.rolloutLen = 0;
        slot.episodeEnded = false;
    }
    std::vector<EnvSlot *> live;
    std::vector<const tensor::Tensor *> batch_obs;
    std::vector<nn::A3cNetwork::Activations *> batch_acts;
    live.reserve(envs_.size());
    batch_obs.reserve(envs_.size());
    batch_acts.reserve(envs_.size());
    std::uint64_t steps = 0;
    for (int t = 0; t < cfg_.tMax; ++t) {
        live.clear();
        batch_obs.clear();
        batch_acts.clear();
        for (auto &slot : envs_) {
            if (slot.episodeEnded)
                continue;
            live.push_back(&slot);
            batch_obs.push_back(&slot.session->observation());
            batch_acts.push_back(
                &slot.rollout[static_cast<std::size_t>(t)]);
        }
        if (live.empty())
            break;
        backend_->forwardBatch(theta_, batch_obs, batch_acts);
        for (EnvSlot *slot_ptr : live) {
            auto &slot = *slot_ptr;
            auto &act = slot.rollout[static_cast<std::size_t>(t)];
            auto &p = slot.probs[static_cast<std::size_t>(t)];
            nn::softmax(net_.policyLogits(act), p);
            const int action = sampleAction(p, rng_);
            slot.actions[static_cast<std::size_t>(t)] = action;
            slot.values[static_cast<std::size_t>(t)] = net_.value(act);
            const auto step = slot.session->act(action);
            slot.rewards[static_cast<std::size_t>(t)] =
                step.clippedReward;
            ++slot.rolloutLen;
            ++steps;
            if (step.episodeEnd) {
                scores_.record(global_.globalSteps() + steps,
                               slot.session->lastEpisodeScore(),
                               static_cast<int>(&slot - envs_.data()));
                slot.episodeEnded = true;
            }
        }
    }

    if (tw) {
        tw->hostCompleteEvent("RL batch", "inference", phase_start,
                              tw->hostNowUs());
        phase_start = tw->hostNowUs();
    }

    // One combined gradient from every environment's samples.
    grads_.zero();
    tensor::Tensor g_out(tensor::Shape({net_.outSize()}));
    for (auto &slot : envs_) {
        float ret = 0.0f;
        if (!slot.episodeEnded && slot.rolloutLen > 0) {
            backend_->forward(theta_, slot.session->observation(),
                              bootstrap_);
            ret = net_.value(bootstrap_);
        }
        for (int t = slot.rolloutLen - 1; t >= 0; --t) {
            ret = slot.rewards[static_cast<std::size_t>(t)] +
                  cfg_.gamma * ret;
            deltaObjective(slot.probs[static_cast<std::size_t>(t)],
                           slot.actions[static_cast<std::size_t>(t)],
                           ret,
                           slot.values[static_cast<std::size_t>(t)],
                           cfg_.entropyBeta, cfg_.valueGradScale,
                           g_out.data());
            backend_->backward(theta_,
                               slot.rollout[static_cast<std::size_t>(t)],
                               g_out, grads_);
        }
    }
    // Average over environments, as PAAC's batched update does.
    const float inv = 1.0f / static_cast<float>(envs_.size());
    for (float &g : grads_.flat())
        g *= inv;
    if (cfg_.gradNormClip > 0.0f)
        clipGradNorm(grads_, cfg_.gradNormClip);

    global_.applyGradients(grads_, steps);

    if (tw) {
        tw->hostCompleteEvent("RL batch", "train", phase_start,
                              tw->hostNowUs());
        tw->hostCompleteEvent("RL batch", "batch", batch_start,
                              tw->hostNowUs());
    }
    return steps;
}

TrainingCheckpoint
PaacTrainer::checkpoint()
{
    TrainingCheckpoint ckpt;
    ckpt.algorithm = "paac";
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    global_.checkpoint(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                       ckpt.updates);
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
PaacTrainer::restore(const TrainingCheckpoint &ckpt)
{
    if (ckpt.algorithm != "paac" || !ckpt.theta.sameLayout(theta_))
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
    return true;
}

void
PaacTrainer::run(std::function<bool()> stop_early)
{
    const obs::TelemetryRegistration telemetry =
        trainerTelemetry("paac", global_, cfg_.totalSteps);
    while (global_.globalSteps() < cfg_.totalSteps) {
        if (stop_early && stop_early())
            return;
        runBatch();
    }
}

} // namespace fa3c::rl
