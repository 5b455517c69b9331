/**
 * @file
 * Shared types of the repository benchmark (perfbench).
 *
 * A run of one workload is a sequence of rounds. Each round builds the
 * workload through its public entry point, lets every agent or actor
 * finish one operation (set-up), runs a fixed amount of work, tears the
 * workload down and checks its outputs. The benchmark never reaches
 * inside the program: it times the seams the entry points accept (a
 * DnnBackend decorator, an Environment decorator, the client side of
 * TcpClient::request) and reads public counters.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "env/environment.hh"
#include "rl/backend.hh"

namespace perfbench {

/** Nanoseconds on the steady clock every span and latency uses. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layer a span belongs to. */
enum class Layer : std::uint8_t
{
    Routine,    ///< one agent routine (operation of the train workloads)
    Stage,      ///< DnnBackend::onParamSync
    Fw,         ///< DnnBackend::forward
    Bw,         ///< DnnBackend::backward (BW + GC of one sample)
    Env,        ///< one agent step: AtariSession::act plus sampling
    Game,       ///< one Environment::step/reset/render call
    RlParams,   ///< clip + GlobalParams apply + snapshot
    DistParams, ///< the same interval through dist::RemoteParams
    Request,    ///< one client-side TcpClient::request (serve operation)
    Front,      ///< request time outside the server's Response.totalUs
    Queue,      ///< Response.queueUs
    Infer,      ///< Response.inferUs
    Batch,      ///< one forwardBatch on a serving worker
};

const char *layerName(Layer layer);

/** One timed interval; @c aux carries the batch size of Batch spans. */
struct Span
{
    Layer layer = Layer::Routine;
    std::uint32_t aux = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Spans recorded by one thread (an agent, an actor or a serving
 * worker). Only that thread appends; the round reads the buffer after
 * joining it.
 */
struct SpanBuffer
{
    std::string track;
    std::vector<Span> spans;

    void
    add(Layer layer, std::int64_t start, std::int64_t end,
        std::uint32_t aux = 0)
    {
        spans.push_back(Span{layer, aux, start, end});
    }
};

/** Process CPU time and minor faults at one instant. */
struct Usage
{
    std::int64_t wallNs = 0;
    double userS = 0.0;
    double sysS = 0.0;
    long minflt = 0;

    static Usage now();
};

/**
 * Marks the end of a round's set-up: the moment the last of @p parties
 * finishes its first operation. It then samples the workload's work
 * counter and the process usage, so throughput and host metrics cover
 * only the timed phase.
 */
class Gate
{
  public:
    Gate(int parties, std::function<std::uint64_t()> work_done);

    /** A party finished its first operation. */
    void arrive();

    bool passed() const { return passed_.load(std::memory_order_acquire); }
    std::int64_t timeNs() const { return at_.wallNs; }
    std::uint64_t work() const { return work_; }
    const Usage &usage() const { return at_; }

  private:
    std::atomic<int> pending_;
    std::function<std::uint64_t()> workDone_;
    std::atomic<bool> passed_{false};
    Usage at_;
    std::uint64_t work_ = 0;
};

/**
 * Per-agent timing state shared by the agent's backend and environment
 * decorators. Untraced rounds keep only the routine start stamps;
 * traced rounds also record a span per layer boundary.
 */
struct AgentTrace
{
    AgentTrace(std::string track, bool traced, Layer params_layer,
               Gate *gate);

    /** onParamSync entry: closes the previous routine. */
    void routineBoundary(std::int64_t t);

    bool traced;
    Layer paramsLayer;
    Gate *gate;
    std::vector<std::int64_t> syncs; ///< onParamSync entry times
    SpanBuffer buffer;
    std::int64_t lastFwEnd = -1; ///< open env gap (traced)
    std::int64_t lastBwEnd = -1; ///< open params gap (traced)
};

/** DnnBackend decorator timing every call into the wrapped backend. */
class TimedBackend : public fa3c::rl::DnnBackend
{
  public:
    TimedBackend(std::unique_ptr<fa3c::rl::DnnBackend> inner,
                 AgentTrace &trace);

    const fa3c::nn::A3cNetwork &network() const override;
    void onParamSync(const fa3c::nn::ParamSet &params) override;
    bool wantsQuantized() const override;
    void onQuantSync(
        const fa3c::nn::ParamSet &params,
        std::shared_ptr<const fa3c::nn::QuantizedModel> quant) override;
    void forward(const fa3c::nn::ParamSet &params,
                 const fa3c::tensor::Tensor &obs,
                 fa3c::nn::A3cNetwork::Activations &act) override;
    void backward(const fa3c::nn::ParamSet &params,
                  const fa3c::nn::A3cNetwork::Activations &act,
                  const fa3c::tensor::Tensor &g_out,
                  fa3c::nn::ParamSet &grads) override;
    void forwardBatch(
        const fa3c::nn::ParamSet &params,
        std::span<const fa3c::tensor::Tensor *const> obs,
        std::span<fa3c::nn::A3cNetwork::Activations *const> acts)
        override;

  private:
    std::unique_ptr<fa3c::rl::DnnBackend> inner_;
    AgentTrace &trace_;
};

/** Environment decorator recording a Game span per emulator call. */
class TimedEnvironment : public fa3c::env::Environment
{
  public:
    /** @p spans is null in untraced rounds (pure pass-through). */
    TimedEnvironment(std::unique_ptr<fa3c::env::Environment> inner,
                     SpanBuffer *spans);

    int numActions() const override;
    void reset() override;
    fa3c::env::StepResult step(int action) override;
    void render(fa3c::env::Frame &frame) const override;
    const char *name() const override;
    bool archiveState(fa3c::sim::StateArchive &ar) override;

  private:
    std::unique_ptr<fa3c::env::Environment> inner_;
    SpanBuffer *spans_;
};

/** Everything one round hands back to the run. */
struct RoundResult
{
    bool traced = false;
    double setupS = 0.0;
    /** Work units (env steps or Ok responses) after set-up. */
    std::uint64_t work = 0;
    double measureS = 0.0;
    /** Operation latencies after set-up, ms; failures as +inf. */
    std::vector<double> latMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Empty when every output check passed. */
    std::vector<std::string> errors;
    Usage usageStart; ///< at set-up end
    Usage usageEnd;   ///< at the end of the timed phase
    double peakRssMb = 0.0; ///< process peak RSS during the round
    /** Share of the host's CPU time the hypervisor stole (/proc/stat)
     * while the round ran. */
    double stealShare = 0.0;

    // Traced rounds: spans plus the timed window they are cut to.
    std::vector<SpanBuffer> buffers;
    std::int64_t windowStart = 0;
    std::int64_t windowEnd = 0;

    // train_dist: PsServer::stats() at the end of the round.
    std::uint64_t psPushes = 0;
    std::uint64_t psRejects = 0;
    std::uint64_t psReaped = 0;
    std::uint64_t psSteps = 0;
    std::uint64_t paramCount = 0;

    double
    throughput() const
    {
        return measureS > 0.0 ? static_cast<double>(work) / measureS
                              : 0.0;
    }
};

/** Inputs of one round, all derived from the run's --seed. */
struct RoundInputs
{
    std::uint64_t seed = 0;
    bool traced = false;
};

/** Per-run state a workload keeps across rounds. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual RoundResult runRound(const RoundInputs &in) = 0;
    /** Operations are routines (train) or requests (serve). */
    virtual Layer operation() const = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** setup_s, throughput, p50_ms, p90_ms and peak_rss_mb. */
std::vector<Metric> endToEndMetrics(const std::vector<RoundResult> &rounds);

/** The per-layer metrics of a traced run (see README.md). */
std::vector<Metric> perLayerMetrics(const std::vector<RoundResult> &rounds,
                                    Layer operation);

/** Write the traced rounds' spans as one Chrome trace JSON file. */
bool writeSpans(const std::string &path,
                const std::vector<RoundResult> &rounds);

/**
 * Run one round of @p workload in a forked child process and return
 * its result (with the child's peak RSS and the steal share around
 * it); a child that dies or sends garbage yields a round carrying an
 * error.
 */
RoundResult runIsolated(Workload &workload, const RoundInputs &in);

/** Build a workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** splitmix64: derives independent seeds from one. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
