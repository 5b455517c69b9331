#include "bench.hh"

namespace perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Routine: return "routine";
    case Layer::Stage: return "nn.stage";
    case Layer::Fw: return "nn.fw";
    case Layer::Bw: return "nn.bw";
    case Layer::Env: return "env.step";
    case Layer::Game: return "env.game";
    case Layer::RlParams: return "rl.params";
    case Layer::DistParams: return "dist.params";
    case Layer::Request: return "request";
    case Layer::Front: return "serve.front";
    case Layer::Queue: return "serve.queue";
    case Layer::Infer: return "serve.infer";
    case Layer::Batch: return "serve.batch";
    }
    return "?";
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

Usage
Usage::now()
{
    Usage u;
    u.wallNs = nowNs();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    u.userS = static_cast<double>(ru.ru_utime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysS = static_cast<double>(ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minflt = ru.ru_minflt;
    return u;
}

Gate::Gate(int parties, std::function<std::uint64_t()> work_done)
    : pending_(parties), workDone_(std::move(work_done))
{
}

void
Gate::arrive()
{
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    at_ = Usage::now();
    work_ = workDone_();
    passed_.store(true, std::memory_order_release);
}

AgentTrace::AgentTrace(std::string track, bool traced_, Layer params_layer,
                       Gate *gate_)
    : traced(traced_), paramsLayer(params_layer), gate(gate_)
{
    buffer.track = std::move(track);
    syncs.reserve(1 << 14);
    if (traced)
        buffer.spans.reserve(1 << 17);
}

void
AgentTrace::routineBoundary(std::int64_t t)
{
    syncs.push_back(t);
    if (syncs.size() == 2 && gate)
        gate->arrive();
    if (!traced)
        return;
    if (syncs.size() >= 2) {
        const std::int64_t prev = syncs[syncs.size() - 2];
        if (lastBwEnd >= prev)
            buffer.add(paramsLayer, lastBwEnd, t);
        buffer.add(Layer::Routine, prev, t);
    }
    lastFwEnd = -1;
    lastBwEnd = -1;
}

TimedBackend::TimedBackend(std::unique_ptr<fa3c::rl::DnnBackend> inner,
                           AgentTrace &trace)
    : inner_(std::move(inner)), trace_(trace)
{
}

const fa3c::nn::A3cNetwork &
TimedBackend::network() const
{
    return inner_->network();
}

void
TimedBackend::onParamSync(const fa3c::nn::ParamSet &params)
{
    const std::int64_t t0 = nowNs();
    trace_.routineBoundary(t0);
    inner_->onParamSync(params);
    if (trace_.traced)
        trace_.buffer.add(Layer::Stage, t0, nowNs());
}

bool
TimedBackend::wantsQuantized() const
{
    return inner_->wantsQuantized();
}

void
TimedBackend::onQuantSync(
    const fa3c::nn::ParamSet &params,
    std::shared_ptr<const fa3c::nn::QuantizedModel> quant)
{
    const std::int64_t t0 = nowNs();
    trace_.routineBoundary(t0);
    inner_->onQuantSync(params, std::move(quant));
    if (trace_.traced)
        trace_.buffer.add(Layer::Stage, t0, nowNs());
}

void
TimedBackend::forward(const fa3c::nn::ParamSet &params,
                      const fa3c::tensor::Tensor &obs,
                      fa3c::nn::A3cNetwork::Activations &act)
{
    if (!trace_.traced) {
        inner_->forward(params, obs, act);
        return;
    }
    const std::int64_t t0 = nowNs();
    // The gap since the previous forward of this rollout is the agent
    // step: softmax, sampling and AtariSession::act.
    if (trace_.lastFwEnd >= 0)
        trace_.buffer.add(Layer::Env, trace_.lastFwEnd, t0);
    inner_->forward(params, obs, act);
    const std::int64_t t1 = nowNs();
    trace_.buffer.add(Layer::Fw, t0, t1);
    trace_.lastFwEnd = t1;
}

void
TimedBackend::backward(const fa3c::nn::ParamSet &params,
                       const fa3c::nn::A3cNetwork::Activations &act,
                       const fa3c::tensor::Tensor &g_out,
                       fa3c::nn::ParamSet &grads)
{
    if (!trace_.traced) {
        inner_->backward(params, act, g_out, grads);
        return;
    }
    const std::int64_t t0 = nowNs();
    inner_->backward(params, act, g_out, grads);
    const std::int64_t t1 = nowNs();
    trace_.buffer.add(Layer::Bw, t0, t1);
    trace_.lastFwEnd = -1;
    trace_.lastBwEnd = t1;
}

void
TimedBackend::forwardBatch(
    const fa3c::nn::ParamSet &params,
    std::span<const fa3c::tensor::Tensor *const> obs,
    std::span<fa3c::nn::A3cNetwork::Activations *const> acts)
{
    if (!trace_.traced) {
        inner_->forwardBatch(params, obs, acts);
        return;
    }
    const std::int64_t t0 = nowNs();
    inner_->forwardBatch(params, obs, acts);
    trace_.buffer.add(Layer::Batch, t0, nowNs(),
                      static_cast<std::uint32_t>(obs.size()));
}

TimedEnvironment::TimedEnvironment(
    std::unique_ptr<fa3c::env::Environment> inner, SpanBuffer *spans)
    : inner_(std::move(inner)), spans_(spans)
{
}

int
TimedEnvironment::numActions() const
{
    return inner_->numActions();
}

void
TimedEnvironment::reset()
{
    const std::int64_t t0 = spans_ ? nowNs() : 0;
    inner_->reset();
    if (spans_)
        spans_->add(Layer::Game, t0, nowNs());
}

fa3c::env::StepResult
TimedEnvironment::step(int action)
{
    if (!spans_)
        return inner_->step(action);
    const std::int64_t t0 = nowNs();
    const fa3c::env::StepResult r = inner_->step(action);
    spans_->add(Layer::Game, t0, nowNs());
    return r;
}

void
TimedEnvironment::render(fa3c::env::Frame &frame) const
{
    const std::int64_t t0 = spans_ ? nowNs() : 0;
    inner_->render(frame);
    if (spans_)
        spans_->add(Layer::Game, t0, nowNs());
}

const char *
TimedEnvironment::name() const
{
    return inner_->name();
}

bool
TimedEnvironment::archiveState(fa3c::sim::StateArchive &ar)
{
    return inner_->archiveState(ar);
}

} // namespace perfbench
