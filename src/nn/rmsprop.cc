#include "nn/rmsprop.hh"

#include <cmath>

#include "sim/logging.hh"

namespace fa3c::nn {

void
rmspropApply(std::span<float> theta, std::span<float> g,
             std::span<const float> grad, float learning_rate,
             const RmspropConfig &cfg)
{
    FA3C_ASSERT(theta.size() == g.size() && theta.size() == grad.size(),
                "rmspropApply size mismatch");
    // rho and epsilon in locals: a store to g[i] may alias cfg, and a
    // reload per word would keep the loop from vectorizing. Vector
    // sqrt and division round exactly like the scalar ones.
    const float decay = cfg.decay;
    const float epsilon = cfg.epsilon;
    const float one_minus_decay = 1.0f - decay;
    for (std::size_t i = 0; i < theta.size(); ++i) {
        const float d = grad[i];
        g[i] = decay * g[i] + one_minus_decay * d * d;
        theta[i] -= learning_rate * d / std::sqrt(g[i] + epsilon);
    }
}

} // namespace fa3c::nn
