#include "fa3c/rmsprop_module.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/perf_counters.hh"

namespace fa3c::core {

RmspropModule::RmspropModule(int num_rus, const nn::RmspropConfig &cfg)
    : numRus_(num_rus), cfg_(cfg)
{
    FA3C_ASSERT(num_rus >= 1, "RmspropModule needs RUs");
}

void
RmspropModule::update(std::span<float> theta, std::span<float> g,
                      std::span<const float> grad, float eta) const
{
    FA3C_ASSERT(theta.size() == g.size() && theta.size() == grad.size(),
                "RmspropModule::update size mismatch");
    // Words are interleaved across RUs: RU u handles words u,
    // u + numRus, ... — the per-word pipeline of Figure 5.
    const float one_minus_rho = 1.0f - cfg_.decay;
    for (int u = 0; u < numRus_; ++u) {
        for (std::size_t i = static_cast<std::size_t>(u);
             i < theta.size(); i += static_cast<std::size_t>(numRus_)) {
            const float d = grad[i];
            const float g_new = cfg_.decay * g[i] + one_minus_rho * d * d;
            g[i] = g_new;
            theta[i] -= eta * d / std::sqrt(g_new + cfg_.epsilon);
        }
    }

    {
        sim::PerfBank &bank = sim::perf().bank("rmsprop");
        static auto &waves = bank.counter("update_waves");
        static auto &words = bank.counter("words");
        static auto &dramWords = bank.counter("dram_words");
        waves.fetch_add(1, std::memory_order_relaxed);
        words.fetch_add(theta.size(), std::memory_order_relaxed);
        dramWords.fetch_add(loadWords(theta.size()) +
                                storeWords(theta.size()),
                            std::memory_order_relaxed);
    }
}

std::uint64_t
RmspropModule::updateCycles(std::uint64_t param_words) const
{
    // One parameter per RU per cycle, plus a short pipeline fill.
    constexpr std::uint64_t pipeline_fill = 16;
    return (param_words + static_cast<std::uint64_t>(numRus_) - 1) /
               static_cast<std::uint64_t>(numRus_) +
           pipeline_fill;
}

} // namespace fa3c::core
