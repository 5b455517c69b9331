/**
 * @file
 * Experiment drivers shared by the benchmark binaries: construct a
 * platform (FA3C or a GPU/CPU baseline), drive it with simulated
 * agents, and report IPS and utilization; plus the end-to-end
 * training-curve runner for Figure 12.
 */

#ifndef FA3C_HARNESS_EXPERIMENTS_HH
#define FA3C_HARNESS_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "env/environment.hh"
#include "fa3c/config.hh"
#include "gpu/gpu_model.hh"
#include "harness/agent_driver.hh"
#include "nn/a3c_network.hh"
#include "rl/a3c.hh"

namespace fa3c::harness {

/** The five platforms of Figures 8 and 9. */
enum class PlatformId
{
    Fa3c,
    A3cCudnn,
    A3cTfGpu,
    Ga3cTf,
    A3cTfCpu,
};

/** All platforms, FA3C first. */
inline constexpr PlatformId allPlatforms[] = {
    PlatformId::Fa3c, PlatformId::A3cCudnn, PlatformId::A3cTfGpu,
    PlatformId::Ga3cTf, PlatformId::A3cTfCpu,
};

/** Display name matching the paper's legends. */
const char *platformIdName(PlatformId id);

/** One measured point of Figure 8 / 10. */
struct PlatformPoint
{
    PlatformId platform;
    int agents;
    double ips = 0;
    double routinesPerSec = 0;
    /** Device busy fraction (drives the power model). */
    double utilization = 0;
    /** Routine latency statistics (seconds). */
    double latencyMeanSec = 0;
    double latencyP50Sec = 0;
    double latencyP95Sec = 0;
};

/**
 * Measure the steady-state IPS of @p platform with @p agents agents.
 *
 * @param fa3c_cfg Overrides the FA3C configuration (Figure 10 uses
 *                 the Stratix V variants); ignored for baselines.
 */
PlatformPoint measurePlatform(PlatformId platform, int agents,
                              const nn::NetConfig &net_cfg, int t_max,
                              double sim_seconds = 4.0,
                              const core::Fa3cConfig *fa3c_cfg = nullptr);

/** One point of a Figure 12 training curve. */
struct CurvePoint
{
    std::uint64_t step;
    double score;
};

/** Which DNN backend the training runner uses. */
enum class TrainingBackend
{
    Reference, ///< golden CPU library
    Fa3c,      ///< the FA3C functional datapath model
    FastCpu,   ///< blocked im2col/GEMM kernel library
};

/** Configuration of one Figure 12 training run. */
struct TrainingRunConfig
{
    env::GameId game = env::GameId::Pong;
    rl::A3cConfig a3c;
    nn::NetConfig net = nn::NetConfig::atari(4);
    TrainingBackend backend = TrainingBackend::Reference;
    /** Moving-average window (the paper smooths over 1,000 episodes;
     * scaled-down runs use a smaller window). */
    std::size_t scoreWindow = 50;
};

/** Result of one training run. */
struct TrainingRunResult
{
    std::vector<CurvePoint> curve; ///< moving-average score vs step
    double finalScore = 0;         ///< last moving-average value
    double firstScore = 0;         ///< first moving-average value
    std::uint64_t episodes = 0;
    std::uint64_t steps = 0;
};

/** Run A3C end-to-end on a synthetic game and return the learning
 * curve. This actually trains the network. */
TrainingRunResult runTraining(const TrainingRunConfig &cfg);

} // namespace fa3c::harness

#endif // FA3C_HARNESS_EXPERIMENTS_HH
