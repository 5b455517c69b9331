#include "harness/experiments.hh"

#include <atomic>
#include <memory>
#include <string>

#include "env/session.hh"
#include "fa3c/accelerator.hh"
#include "fa3c/datapath_backend.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "rl/fast_cpu_backend.hh"
#include "sim/logging.hh"
#include "sim/perf_counters.hh"
#include "sim/stats.hh"

namespace fa3c::harness {

const char *
platformIdName(PlatformId id)
{
    switch (id) {
      case PlatformId::Fa3c: return "FA3C";
      case PlatformId::A3cCudnn: return "A3C-cuDNN";
      case PlatformId::A3cTfGpu: return "A3C-TF-GPU";
      case PlatformId::Ga3cTf: return "GA3C-TF";
      case PlatformId::A3cTfCpu: return "A3C-TF-CPU";
    }
    FA3C_PANIC("bad PlatformId ", static_cast<int>(id));
}

namespace {

gpu::PlatformKind
toGpuKind(PlatformId id)
{
    switch (id) {
      case PlatformId::A3cCudnn: return gpu::PlatformKind::A3cCudnn;
      case PlatformId::A3cTfGpu: return gpu::PlatformKind::A3cTfGpu;
      case PlatformId::Ga3cTf: return gpu::PlatformKind::Ga3cTf;
      case PlatformId::A3cTfCpu: return gpu::PlatformKind::A3cTfCpu;
      case PlatformId::Fa3c: break;
    }
    FA3C_PANIC("not a GPU platform");
}

HostModel
hostModelFor(const nn::NetConfig &net_cfg, int t_max)
{
    HostModel host;
    host.inputBytes = static_cast<double>(net_cfg.inChannels) *
                      net_cfg.inHeight * net_cfg.inWidth * 4.0;
    host.outputBytes = (net_cfg.numActions + 1) * 4.0;
    host.deltaBytes = host.outputBytes * t_max;
    return host;
}

// Last completed measurement's utilization figures, kept process-wide
// so the gauges survive the per-measurement scopes and a scrape
// between measurements still sees the most recent point.  Negative
// means "never measured"; those gauges are suppressed.
struct UtilizationGauges {
    std::atomic<double> cuInference{-1.0};
    std::atomic<double> cuTraining{-1.0};
    std::atomic<double> gpuDevice{-1.0};
};

UtilizationGauges &
utilGauges()
{
    static UtilizationGauges g;
    return g;
}

void
publishUtilization(obs::MetricsRegistry &m)
{
    auto &g = utilGauges();
    // One registration for the life of the process, so it outlives
    // every measurement. The gauges and obs::telemetry()'s server are
    // constructed before it, so both are destroyed after it.
    static const obs::TelemetryRegistration reg(
        obs::telemetry(),
        [](obs::PromWriter &w) {
            auto &g = utilGauges();
            const double infer =
                g.cuInference.load(std::memory_order_relaxed);
            const double train =
                g.cuTraining.load(std::memory_order_relaxed);
            const double gpu =
                g.gpuDevice.load(std::memory_order_relaxed);
            if (infer >= 0.0)
                w.gauge("fa3c_cu_utilization",
                        {{"cu", "inference"}}, infer,
                        "busy fraction of the FA3C inference CUs "
                        "over the last measurement");
            if (train >= 0.0)
                w.gauge("fa3c_cu_utilization",
                        {{"cu", "training"}}, train,
                        "busy fraction of the FA3C training CUs "
                        "over the last measurement");
            if (gpu >= 0.0)
                w.gauge("gpu_device_utilization", gpu,
                        "busy fraction of the GPU device over the "
                        "last measurement");
        },
        "utilization");
    if (m.enabled()) {
        const double infer =
            g.cuInference.load(std::memory_order_relaxed);
        const double train =
            g.cuTraining.load(std::memory_order_relaxed);
        const double gpu = g.gpuDevice.load(std::memory_order_relaxed);
        if (infer >= 0.0)
            m.sample("fa3c.cu", "utilization_inference", infer);
        if (train >= 0.0)
            m.sample("fa3c.cu", "utilization_training", train);
        if (gpu >= 0.0)
            m.sample("gpu.device", "utilization", gpu);
    }
}

} // namespace

PlatformPoint
measurePlatform(PlatformId platform, int agents,
                const nn::NetConfig &net_cfg, int t_max,
                double sim_seconds, const core::Fa3cConfig *fa3c_cfg)
{
    PlatformPoint point;
    point.platform = platform;
    point.agents = agents;

    // Each measurement starts its own event queue at tick 0, so each
    // one gets its own trace process and metrics-group prefix.
    const std::string run_name = std::string(platformIdName(platform)) +
                                 " x" + std::to_string(agents);
    obs::TraceProcessScope trace_scope(obs::trace(), run_name);

    // With FA3C_TELEMETRY_PORT set, the measurement is scrapable while
    // it runs: which platform point is executing and how big it is.
    obs::TelemetryRegistration telemetry_reg(
        obs::telemetry(),
        [platform, agents, sim_seconds](obs::PromWriter &w) {
            w.gauge("harness_platform_id",
                    static_cast<double>(static_cast<int>(platform)),
                    "PlatformId of the measurement in flight");
            w.gauge("harness_agents", static_cast<double>(agents),
                    "agent count of the measurement in flight");
            w.gauge("harness_sim_seconds", sim_seconds,
                    "simulated seconds per measurement");
        },
        "harness",
        [](std::string &detail) {
            detail = "measuring";
            return true;
        });

    sim::EventQueue queue;
    sim::StatGroup queue_stats;
    queue.attachStats(&queue_stats);
    obs::ScopedMetricsGroup queue_metrics(obs::metrics(),
                                          run_name + ".queue",
                                          &queue_stats);
    const HostModel host = hostModelFor(net_cfg, t_max);

    if (platform == PlatformId::Fa3c) {
        const core::Fa3cConfig cfg =
            fa3c_cfg ? *fa3c_cfg : core::Fa3cConfig::vcu1525();
        core::Fa3cPlatform board(queue, cfg, net_cfg, t_max);
        obs::ScopedMetricsGroup board_metrics(obs::metrics(),
                                              run_name + ".board",
                                              &board.stats());
        PlatformOps ops;
        ops.submitInference = [&board](std::function<void()> done) {
            board.submitInference(std::move(done));
        };
        ops.submitTraining = [&board](std::function<void()> done) {
            board.submitTraining(std::move(done));
        };
        ops.submitParamSync = [&board](std::function<void()> done) {
            board.submitParamSync(std::move(done));
        };
        ops.hostToDevice = [&board](double bytes,
                                    std::function<void()> done) {
            board.hostToDevice(bytes, std::move(done));
        };
        ops.deviceToHost = [&board](double bytes,
                                    std::function<void()> done) {
            board.deviceToHost(bytes, std::move(done));
        };
        const IpsResult r = measureIps(queue, ops, host, agents, t_max,
                                       sim_seconds);
        point.ips = r.ips;
        point.routinesPerSec = r.routinesPerSec;
        point.latencyMeanSec = r.latencyMeanSec;
        point.latencyP50Sec = r.latencyP50Sec;
        point.latencyP95Sec = r.latencyP95Sec;
        // The training CUs dominate FA3C's dynamic power.
        point.utilization = 0.5 * (board.trainingCuUtilization() +
                                   board.inferenceCuUtilization());
        utilGauges().cuInference.store(board.inferenceCuUtilization(),
                                       std::memory_order_relaxed);
        utilGauges().cuTraining.store(board.trainingCuUtilization(),
                                      std::memory_order_relaxed);
        publishUtilization(obs::metrics());
        // Roll the board's private counter file into the global one
        // so the metrics / Prometheus bridges export the simulated
        // CU stall attribution and DRAM traffic too.
        sim::perf().absorb(board.perfSnapshot());
        return point;
    }

    const gpu::PlatformSpec spec =
        gpu::PlatformSpec::bySpec(toGpuKind(platform));
    gpu::GpuPlatform device(queue, spec, net_cfg, t_max, agents);
    obs::ScopedMetricsGroup device_metrics(obs::metrics(),
                                           run_name + ".device",
                                           &device.stats());
    PlatformOps ops;
    ops.submitInference = [&device](std::function<void()> done) {
        device.submitInference(std::move(done));
    };
    ops.submitTraining = [&device](std::function<void()> done) {
        device.submitTraining(std::move(done));
    };
    ops.submitParamSync = [&device](std::function<void()> done) {
        device.submitParamSync(std::move(done));
    };
    ops.hostToDevice = [&device](double bytes,
                                 std::function<void()> done) {
        device.hostToDevice(bytes, std::move(done));
    };
    ops.deviceToHost = [&device](double bytes,
                                 std::function<void()> done) {
        device.deviceToHost(bytes, std::move(done));
    };
    ops.waitForTraining = spec.agentWaitsForTraining;
    ops.doParamSync = spec.usesParamSync;
    const IpsResult r =
        measureIps(queue, ops, host, agents, t_max, sim_seconds);
    point.ips = r.ips;
    point.routinesPerSec = r.routinesPerSec;
    point.latencyMeanSec = r.latencyMeanSec;
    point.latencyP50Sec = r.latencyP50Sec;
    point.latencyP95Sec = r.latencyP95Sec;
    point.utilization = device.deviceUtilization();
    utilGauges().gpuDevice.store(device.deviceUtilization(),
                                 std::memory_order_relaxed);
    publishUtilization(obs::metrics());
    return point;
}

TrainingRunResult
runTraining(const TrainingRunConfig &cfg)
{
    const nn::A3cNetwork net(cfg.net);

    auto backend_factory =
        [&](int agent_id) -> std::unique_ptr<rl::DnnBackend> {
        (void)agent_id;
        if (cfg.backend == TrainingBackend::Fa3c)
            return std::make_unique<core::DatapathBackend>(net);
        if (cfg.backend == TrainingBackend::FastCpu)
            return std::make_unique<rl::FastCpuBackend>(net);
        return std::make_unique<rl::ReferenceBackend>(net);
    };

    auto session_factory = [&](int agent_id) {
        env::SessionConfig session_cfg;
        session_cfg.frameStack = cfg.net.inChannels;
        session_cfg.obsHeight = cfg.net.inHeight;
        session_cfg.obsWidth = cfg.net.inWidth;
        return std::make_unique<env::AtariSession>(
            env::makeEnvironment(cfg.game,
                                 cfg.a3c.seed * 977 +
                                     static_cast<std::uint64_t>(
                                         agent_id)),
            session_cfg,
            cfg.a3c.seed * 31 + static_cast<std::uint64_t>(agent_id));
    };

    rl::A3cTrainer trainer(net, cfg.a3c, backend_factory,
                           session_factory);
    trainer.run();

    TrainingRunResult result;
    const auto series =
        trainer.scores().movingAverage(cfg.scoreWindow, 1);
    result.curve.reserve(series.size());
    for (const auto &[step, score] : series)
        result.curve.push_back(CurvePoint{step, score});
    result.episodes = trainer.scores().size();
    result.steps = trainer.globalParams().globalSteps();
    if (!result.curve.empty()) {
        // First score: mean over the first window of episodes (a
        // single early episode is too noisy to anchor a comparison).
        const auto records = trainer.scores().records();
        const std::size_t head =
            std::min(cfg.scoreWindow, records.size());
        double sum = 0;
        for (std::size_t i = 0; i < head; ++i)
            sum += records[i].score;
        result.firstScore = sum / static_cast<double>(head);
        result.finalScore = result.curve.back().score;
    }
    return result;
}

} // namespace fa3c::harness
