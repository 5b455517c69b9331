#include "serve/batch_scheduler.hh"

#include <algorithm>
#include <array>
#include <cstdio>

#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sim/logging.hh"
#include "sim/perf_counters.hh"

namespace fa3c::serve {

namespace {

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

BatchScheduler::BatchScheduler(const nn::A3cNetwork &net,
                               RequestQueue &queue,
                               ModelRegistry &registry,
                               const BatchPolicy &policy,
                               int num_workers, BackendFactory factory,
                               sim::StatGroup *stats,
                               std::mutex *stats_mutex,
                               obs::SloMonitor *slo)
    : net_(net), queue_(queue), registry_(registry), policy_(policy),
      numWorkers_(num_workers), factory_(std::move(factory)),
      stats_(stats), statsMutex_(stats_mutex), slo_(slo)
{
    FA3C_ASSERT(policy_.maxBatch >= 1 && numWorkers_ >= 1,
                "BatchScheduler policy");
    FA3C_ASSERT(factory_, "BatchScheduler needs a backend factory");
}

BatchScheduler::~BatchScheduler()
{
    queue_.close();
    stop();
}

void
BatchScheduler::start()
{
    if (started_)
        return;
    started_ = true;
    workers_.reserve(static_cast<std::size_t>(numWorkers_));
    for (int i = 0; i < numWorkers_; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
}

void
BatchScheduler::stop()
{
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

void
BatchScheduler::completeExpired(std::vector<Request> &expired)
{
    if (expired.empty())
        return;
    const auto now = Clock::now();
    for (auto &r : expired) {
        Response resp;
        resp.status = Status::TimedOut;
        resp.totalUs = usBetween(r.enqueue, now);
        if (r.span.sampled) {
            const std::array<obs::TraceArg, 1> args{
                {{"request_id", static_cast<double>(r.id)}}};
            obs::emitSpan(r.span, "serve.pipeline",
                          "request.timed_out", r.enqueue, now, args);
        }
        if (slo_)
            slo_->recordTimedOut();
        completeRequest(r, std::move(resp));
    }
    {
        std::lock_guard<std::mutex> lock(*statsMutex_);
        stats_->counter("timed_out").inc(expired.size());
    }
    obs::metrics().count("serve", "timed_out", expired.size());
    expired.clear();
}

void
BatchScheduler::workerMain(int index)
{
    auto backend = factory_(index);
    std::vector<nn::A3cNetwork::Activations> acts;
    acts.reserve(static_cast<std::size_t>(policy_.maxBatch));
    for (int i = 0; i < policy_.maxBatch; ++i)
        acts.push_back(net_.makeActivations());

    std::uint64_t staged_version = 0;
    std::vector<Request> batch;
    std::vector<Request> expired;
    std::vector<const tensor::Tensor *> obs_ptrs;
    std::vector<nn::A3cNetwork::Activations *> act_ptrs;
    const std::size_t num_actions =
        static_cast<std::size_t>(net_.config().numActions);

    for (;;) {
        batch.clear();
        expired.clear();
        if (!queue_.popBatch(static_cast<std::size_t>(policy_.maxBatch),
                             batch, expired))
            break;
        completeExpired(expired);
        if (batch.empty())
            continue;

        // Batch-underfill accounting: slots the policy allowed but the
        // queue did not hold requests for. Batches never wait, so an
        // underfilled batch means no more requests were queued, not
        // that work was wasted; a run that never fills a batch has
        // more worker capacity than offered load.
        {
            auto &bank = sim::perf().bank("serve");
            static auto &batches = bank.counter("batches");
            static auto &underfilled = bank.counter("underfilled_batches");
            static auto &empty_slots = bank.counter("empty_batch_slots");
            batches.fetch_add(1, std::memory_order_relaxed);
            const auto cap = static_cast<std::size_t>(policy_.maxBatch);
            if (batch.size() < cap) {
                underfilled.fetch_add(1, std::memory_order_relaxed);
                empty_slots.fetch_add(cap - batch.size(),
                                      std::memory_order_relaxed);
            }
        }

        const auto t_formed = Clock::now();
        auto model = registry_.current();
        if (!model) {
            for (auto &r : batch) {
                Response resp;
                resp.status = Status::RejectedNoModel;
                resp.totalUs = usBetween(r.enqueue, Clock::now());
                completeRequest(r, std::move(resp));
            }
            std::lock_guard<std::mutex> lock(*statsMutex_);
            stats_->counter("rejected_no_model").inc(batch.size());
            continue;
        }
        if (model->version != staged_version) {
            // Quantized backends stage the image the registry built
            // once at publish time; everyone else (and quantized
            // backends facing an unquantized publish) restages from
            // the fp32 params.
            if (backend->wantsQuantized() && model->quant)
                backend->onQuantSync(model->params, model->quant);
            else
                backend->onParamSync(model->params);
            staged_version = model->version;
            std::lock_guard<std::mutex> lock(*statsMutex_);
            stats_->counter("param_stages").inc();
        }

        obs_ptrs.clear();
        act_ptrs.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            obs_ptrs.push_back(&batch[i].obs);
            act_ptrs.push_back(&acts[i]);
        }
        const auto t0 = Clock::now();
        backend->forwardBatch(model->params, obs_ptrs, act_ptrs);
        const auto t1 = Clock::now();
        const double infer_us = usBetween(t0, t1);
        queue_.noteServiceTime(infer_us /
                               static_cast<double>(batch.size()));

        // One shared execution span links every sampled member by id
        // (parented under the first sampled request so it shows up in
        // that trace); per-request spans below chain queue -> batch ->
        // infer under each request's own span.
        const Request *sampled_lead = nullptr;
        for (const auto &r : batch)
            if (r.span.sampled) {
                sampled_lead = &r;
                break;
            }
        if (sampled_lead) {
            std::vector<obs::TraceArg> args;
            args.reserve(batch.size() + 1);
            args.emplace_back("batch_size",
                              static_cast<double>(batch.size()));
            std::array<char[16], 8> member_keys;
            std::size_t named = 0;
            for (const auto &r : batch) {
                if (!r.span.sampled || named >= member_keys.size())
                    continue;
                std::snprintf(member_keys[named],
                              sizeof(member_keys[named]), "member_%zu",
                              named);
                args.emplace_back(member_keys[named],
                                  static_cast<double>(r.span.span));
                ++named;
            }
            obs::emitSpan(obs::childSpan(sampled_lead->span),
                          "serve.batch", "batch.exec", t0, t1, args);
        }

        for (std::size_t i = 0; i < batch.size(); ++i) {
            Request &r = batch[i];
            Response resp;
            resp.status = Status::Ok;
            resp.policy.resize(num_actions);
            nn::softmax(net_.policyLogits(acts[i]), resp.policy);
            resp.action = static_cast<int>(
                std::max_element(resp.policy.begin(),
                                 resp.policy.end()) -
                resp.policy.begin());
            resp.value = net_.value(acts[i]);
            resp.modelVersion = model->version;
            resp.batchSize = static_cast<int>(batch.size());
            resp.queueUs = usBetween(r.enqueue, t_formed);
            resp.inferUs = infer_us;
            const auto t_done = Clock::now();
            resp.totalUs = usBetween(r.enqueue, t_done);

            const bool deadline_miss =
                r.deadline != kNoDeadline && t_done > r.deadline;
            if (slo_)
                slo_->recordServed(resp.totalUs, deadline_miss);

            if (r.span.sampled) {
                const auto queue_ctx = obs::childSpan(r.span);
                const auto batch_ctx = obs::childSpan(queue_ctx);
                const auto infer_ctx = obs::childSpan(batch_ctx);
                obs::emitSpan(queue_ctx, "serve.pipeline", "queue",
                              r.enqueue, t_formed);
                {
                    const std::array<obs::TraceArg, 1> args{
                        {{"batch_size",
                          static_cast<double>(batch.size())}}};
                    obs::emitSpan(batch_ctx, "serve.pipeline",
                                  "batch", t_formed, t0, args);
                }
                {
                    const std::array<obs::TraceArg, 1> args{
                        {{"model_version",
                          static_cast<double>(model->version)}}};
                    obs::emitSpan(infer_ctx, "serve.pipeline",
                                  "infer", t0, t1, args);
                }
                const std::array<obs::TraceArg, 2> args{
                    {{"request_id", static_cast<double>(r.id)},
                     {"deadline_miss", deadline_miss ? 1.0 : 0.0}}};
                obs::emitSpan(r.span, "serve.pipeline", "request",
                              r.enqueue, t_done, args);
            }

            auto &m = obs::metrics();
            if (m.enabled()) {
                m.sample("serve", "queue_us", resp.queueUs);
                m.sample("serve", "infer_us", resp.inferUs);
                m.sample("serve", "total_us", resp.totalUs);
            }
            {
                std::lock_guard<std::mutex> lock(*statsMutex_);
                stats_->distribution("queue_us").sample(resp.queueUs);
                stats_->distribution("infer_us").sample(resp.inferUs);
                stats_->distribution("total_us").sample(resp.totalUs);
                stats_->counter("served").inc();
            }
            completeRequest(r, std::move(resp));
        }
        {
            std::lock_guard<std::mutex> lock(*statsMutex_);
            stats_->distribution("batch_size")
                .sample(static_cast<double>(batch.size()));
            stats_->counter("batches").inc();
        }
        auto &m = obs::metrics();
        if (m.enabled()) {
            m.sample("serve", "batch_size",
                     static_cast<double>(batch.size()));
            m.count("serve", "batches");
            m.count("serve", "served", batch.size());
        }
    }
}

} // namespace fa3c::serve
