#include "rl/evaluate.hh"

#include <algorithm>
#include <vector>

#include "nn/layers.hh"
#include "rl/a3c.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

EvalResult
evaluatePolicy(DnnBackend &backend, const nn::ParamSet &params,
               env::AtariSession &session, const EvalConfig &cfg)
{
    FA3C_ASSERT(cfg.episodes >= 1, "evaluatePolicy episodes");
    const nn::A3cNetwork &net = backend.network();
    backend.onParamSync(params);

    sim::Rng rng(cfg.seed);
    auto act = net.makeActivations();
    std::vector<float> probs(
        static_cast<std::size_t>(session.numActions()));

    EvalResult result;
    int episodes_done = 0;
    while (episodes_done < cfg.episodes &&
           result.steps < cfg.maxSteps) {
        backend.forward(params, session.observation(), act);
        nn::softmax(net.policyLogits(act), probs);
        const int action =
            cfg.greedy ? static_cast<int>(
                             std::max_element(probs.begin(), probs.end()) -
                             probs.begin())
                       : sampleAction(probs, rng);
        const auto step = session.act(action);
        ++result.steps;
        if (step.episodeEnd) {
            result.scores.sample(session.lastEpisodeScore());
            ++episodes_done;
        }
    }
    return result;
}

} // namespace fa3c::rl
