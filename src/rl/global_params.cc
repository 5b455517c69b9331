#include "rl/global_params.hh"

#include <algorithm>

namespace fa3c::rl {

GlobalParams::GlobalParams(const nn::A3cNetwork &net,
                           const nn::RmspropConfig &rmsprop,
                           float initial_lr, std::uint64_t anneal_steps)
    : net_(net), rmsprop_(rmsprop), initialLr_(initial_lr),
      annealSteps_(anneal_steps), theta_(net.makeParams()),
      rmspropG_(net.makeParams())
{
}

void
GlobalParams::initialize(sim::Rng &rng)
{
    std::lock_guard<std::mutex> lock(mutex_);
    net_.initParams(theta_, rng);
    rmspropG_.zero();
}

void
GlobalParams::snapshot(nn::ParamSet &local)
{
    std::lock_guard<std::mutex> lock(mutex_);
    local.copyFrom(theta_);
}

std::uint64_t
GlobalParams::snapshot(std::vector<float> &out) const
{
    out.resize(theta_.size());
    std::lock_guard<std::mutex> lock(mutex_);
    std::ranges::copy(theta_.flat(), out.begin());
    return version();
}

nn::ParamSet
GlobalParams::theta() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return theta_;
}

void
GlobalParams::checkpoint(nn::ParamSet &theta_out, nn::ParamSet &g_out,
                         std::uint64_t &steps_out,
                         std::uint64_t &version_out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    theta_out.copyFrom(theta_);
    g_out.copyFrom(rmspropG_);
    steps_out = globalSteps();
    version_out = version();
}

void
GlobalParams::restore(const nn::ParamSet &theta, const nn::ParamSet &g,
                      std::uint64_t steps, std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(mutex_);
    theta_.copyFrom(theta);
    rmspropG_.copyFrom(g);
    globalSteps_.store(steps, std::memory_order_relaxed);
    version_.store(version, std::memory_order_relaxed);
}

float
GlobalParams::currentLearningRate() const
{
    if (annealSteps_ == 0)
        return initialLr_;
    const std::uint64_t steps = globalSteps();
    if (steps >= annealSteps_)
        return 0.0f;
    const double frac = 1.0 - static_cast<double>(steps) /
                                  static_cast<double>(annealSteps_);
    return static_cast<float>(initialLr_ * frac);
}

void
GlobalParams::applyLocked(std::span<const float> grads,
                          std::uint64_t steps_consumed)
{
    const float lr = currentLearningRate();
    if (lr > 0.0f)
        nn::rmspropApply(theta_.flat(), rmspropG_.flat(), grads, lr,
                         rmsprop_);
    globalSteps_.fetch_add(steps_consumed, std::memory_order_relaxed);
    version_.fetch_add(1, std::memory_order_relaxed);
}

void
GlobalParams::applyGradients(const nn::ParamSet &grads,
                             std::uint64_t steps_consumed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    applyLocked(grads.flat(), steps_consumed);
}

GlobalParams::PushResult
GlobalParams::applyPush(std::span<const float> grads,
                        std::uint64_t steps_consumed,
                        std::uint64_t base_version,
                        std::uint64_t max_staleness,
                        std::vector<float> *theta_out)
{
    if (theta_out)
        theta_out->resize(theta_.size());
    std::lock_guard<std::mutex> lock(mutex_);
    PushResult r;
    const std::uint64_t v = version();
    r.staleness = v > base_version ? v - base_version : 0;
    if (r.staleness <= max_staleness && grads.size() == theta_.size()) {
        applyLocked(grads, steps_consumed);
        r.applied = true;
    }
    if (theta_out)
        std::ranges::copy(theta_.flat(), theta_out->begin());
    r.version = version();
    r.steps = globalSteps();
    return r;
}

} // namespace fa3c::rl
