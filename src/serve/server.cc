#include "serve/server.hh"

#include <algorithm>
#include <array>

#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "sim/logging.hh"
#include "sim/perf_counters.hh"

namespace fa3c::serve {

namespace {

const char *
rejectionCounterName(Status status)
{
    switch (status) {
      case Status::RejectedQueueFull: return "rejected_queue_full";
      case Status::RejectedDeadline: return "rejected_deadline";
      case Status::RejectedNoModel: return "rejected_no_model";
      case Status::RejectedClosed: return "rejected_closed";
      case Status::RejectedBadRequest: return "rejected_bad_request";
      case Status::RejectedShed: return "rejected_shed";
      default: return nullptr;
    }
}

/** Rejections whose cause is transient queue pressure carry a
 * retry_after_us back-off hint; the rest would fail again no matter
 * when the client retried. */
bool
wantsRetryHint(Status status)
{
    return status == Status::RejectedQueueFull ||
           status == Status::RejectedDeadline ||
           status == Status::RejectedShed;
}

} // namespace

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "ok";
      case Status::RejectedQueueFull: return "rejected_queue_full";
      case Status::RejectedDeadline: return "rejected_deadline";
      case Status::RejectedNoModel: return "rejected_no_model";
      case Status::RejectedClosed: return "rejected_closed";
      case Status::RejectedBadRequest: return "rejected_bad_request";
      case Status::TimedOut: return "timed_out";
      case Status::RejectedShed: return "rejected_shed";
    }
    return "unknown";
}

PolicyServer::PolicyServer(const nn::A3cNetwork &net,
                           const ServeConfig &cfg,
                           BatchScheduler::BackendFactory factory)
    : net_(net), cfg_(cfg), queue_(cfg.queue),
      slo_(obs::SloMonitor::configFromEnv()),
      scheduler_(net, queue_, registry_, cfg.batch, cfg.workers,
                 factory ? std::move(factory)
                         : [this](int) {
                               return rl::makeDnnBackend(
                                   cfg_.backend, net_);
                           },
                 &stats_, &statsMutex_, &slo_),
      telemetryReg_(
          obs::telemetry(),
          [this](obs::PromWriter &w) {
              w.gauge("serve_queue_depth",
                      static_cast<double>(queue_.depth()),
                      "requests waiting in the admission queue");
              w.gauge("serve_model_version",
                      static_cast<double>(registry_.version()),
                      "newest published parameter version");
              w.gauge("serve_workers",
                      static_cast<double>(cfg_.workers),
                      "batch-scheduler worker threads");
              const auto s = slo_.snapshot();
              w.gauge("slo_burn", s.burn,
                      "deadline-miss budget burn rate over the "
                      "rolling window (>1 = budget breached)");
              w.gauge("slo_deadline_miss_ratio", s.missRatio,
                      "missed / attempted in the rolling window");
              w.gauge("slo_window_served",
                      static_cast<double>(s.served),
                      "requests served in the rolling window");
              w.gauge("slo_window_p50_us", s.p50Us,
                      "windowed p50 end-to-end latency");
              w.gauge("slo_window_p95_us", s.p95Us,
                      "windowed p95 end-to-end latency");
              w.gauge("slo_window_p99_us", s.p99Us,
                      "windowed p99 end-to-end latency");
          },
          "serve",
          [this](std::string &detail) {
              const std::uint64_t version = registry_.version();
              detail = "model_version=" + std::to_string(version) +
                       " workers=" + std::to_string(cfg_.workers);
              if (stopped_.load(std::memory_order_relaxed)) {
                  detail += " (stopped)";
                  return false;
              }
              if (!started_.load(std::memory_order_relaxed)) {
                  detail += " (not started)";
                  return false;
              }
              return version > 0;
          })
{
    // Quantize-on-publish: when the configured worker backend runs a
    // quantized image, build that image once per publish in the
    // registry instead of once per worker per publish. Custom-factory
    // quantized backends without this still work — they re-derive the
    // image locally in onQuantSync's fallback.
    if (cfg_.backend == rl::BackendKind::Int8)
        registry_.enableQuantization(net_);
}

PolicyServer::~PolicyServer()
{
    stop();
}

std::uint64_t
PolicyServer::publish(nn::ParamSet params)
{
    FA3C_ASSERT(params.sameLayout(net_.makeParams()),
                "published parameters do not match the network");
    const std::uint64_t version = registry_.publish(std::move(params));
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.counter("model_publishes").inc();
    }
    obs::metrics().count("serve", "model_publishes");
    return version;
}

std::uint64_t
PolicyServer::publishFrom(rl::GlobalParams &global)
{
    nn::ParamSet params = net_.makeParams();
    global.snapshot(params);
    return publish(std::move(params));
}

void
PolicyServer::start()
{
    if (started_.exchange(true))
        return;
    scheduler_.start();
}

void
PolicyServer::stop()
{
    if (stopped_.exchange(true))
        return;
    queue_.close();
    if (started_.load())
        scheduler_.stop();
}

std::uint32_t
PolicyServer::drainEstimateUs() const
{
    const double est = queue_.serviceEstimateUs();
    if (est <= 0.0)
        return 0;
    const double wait = est *
                        (static_cast<double>(queue_.depth()) + 1.0) /
                        static_cast<double>(cfg_.workers);
    // Cap at one second: past that the client should re-resolve the
    // fleet, not sleep on this replica's word.
    return static_cast<std::uint32_t>(std::min(wait, 1e6));
}

std::future<Response>
PolicyServer::rejectNow(Request &&r, Status status)
{
    // Callback requests never hand out a future; asking the promise
    // for one anyway would make the (unused) shared state an
    // allocation on the hot rejection path.
    std::future<Response> future;
    if (!r.onComplete)
        future = r.result.get_future();
    Response resp;
    resp.status = status;
    if (wantsRetryHint(status))
        resp.retryAfterUs = drainEstimateUs();
    completeRequest(r, std::move(resp));
    if (r.span.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"request_id", static_cast<double>(r.id)}}};
        obs::emitSpan(r.span, "serve.pipeline",
                      std::string("request.") + statusName(status),
                      r.enqueue, Clock::now(), args);
    }
    slo_.recordRejected();
    if (const char *name = rejectionCounterName(status)) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.counter(name).inc();
        }
        obs::metrics().count("serve", name);
    }
    return future;
}

std::future<Response>
PolicyServer::submit(const tensor::Tensor &obs,
                     std::chrono::microseconds deadline_budget,
                     const obs::SpanContext &parent)
{
    return submitImpl(obs, deadline_budget, parent, {});
}

void
PolicyServer::submitAsync(const tensor::Tensor &obs,
                          std::chrono::microseconds deadline_budget,
                          const obs::SpanContext &parent,
                          std::function<void(Response &&)> done)
{
    FA3C_ASSERT(done, "submitAsync needs a completion handler");
    (void)submitImpl(obs, deadline_budget, parent, std::move(done));
}

std::future<Response>
PolicyServer::submitImpl(const tensor::Tensor &obs,
                         std::chrono::microseconds deadline_budget,
                         const obs::SpanContext &parent,
                         std::function<void(Response &&)> done)
{
    Request r;
    r.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    r.span = obs::childSpan(parent);
    r.enqueue = Clock::now();
    r.onComplete = std::move(done);
    if (deadline_budget.count() > 0)
        r.deadline = r.enqueue + deadline_budget;

    const tensor::Shape want({net_.config().inChannels,
                              net_.config().inHeight,
                              net_.config().inWidth});
    if (obs.shape() != want)
        return rejectNow(std::move(r), Status::RejectedBadRequest);
    if (registry_.version() == 0)
        return rejectNow(std::move(r), Status::RejectedNoModel);
    if (stopped_.load(std::memory_order_relaxed))
        return rejectNow(std::move(r), Status::RejectedClosed);

    r.obs = obs;
    std::future<Response> future;
    if (!r.onComplete)
        future = r.result.get_future();
    const Status admitted = queue_.admit(std::move(r));
    if (admitted == Status::Ok) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.counter("admitted").inc();
        }
        obs::metrics().count("serve", "admitted");
        auto &bank = sim::perf().bank("serve");
        static auto &admits = bank.counter("admitted");
        admits.fetch_add(1, std::memory_order_relaxed);
        bank.maxOf("queue_depth_hwm",
                   static_cast<std::uint64_t>(queue_.depth()));
        return future;
    }
    // admit() consumes the request only on success, so on the
    // rejection path the completion channel is still ours to fire.
    Response resp;
    resp.status = admitted;
    if (wantsRetryHint(admitted))
        resp.retryAfterUs = drainEstimateUs();
    completeRequest(r, std::move(resp));
    slo_.recordRejected();
    if (const char *name = rejectionCounterName(admitted)) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.counter(name).inc();
        }
        obs::metrics().count("serve", name);
    }
    return future;
}

sim::StatGroup
PolicyServer::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

} // namespace fa3c::serve
