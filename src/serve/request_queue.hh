/**
 * @file
 * The admission-controlled request queue feeding the batch scheduler.
 *
 * Admission control enforces two budgets before a request is ever
 * queued: a bounded depth (backpressure instead of unbounded memory
 * growth under overload) and, for requests carrying a deadline, a
 * feasibility check against an EWMA estimate of per-request service
 * time — a request that would already be dead by the time the queue
 * drains is rejected immediately so the client can fail over instead
 * of waiting for a timeout.
 *
 * Pop order is earliest-deadline-first by default (requests without a
 * deadline sort last, then by arrival), or pure FIFO when EDF is
 * disabled. popBatch() is work-conserving: it never holds a request
 * back to wait for company, so a batch holds whatever queued up while
 * the worker was busy.
 */

#ifndef FA3C_SERVE_REQUEST_QUEUE_HH
#define FA3C_SERVE_REQUEST_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "serve/request.hh"

namespace fa3c::serve {

/** Thread-safe bounded request queue with admission control. */
class RequestQueue
{
  public:
    struct Config
    {
        std::size_t maxDepth = 512; ///< admission bound
        bool edf = true;            ///< earliest-deadline-first pops
    };

    explicit RequestQueue(const Config &cfg) : cfg_(cfg) {}

    /**
     * Admit @p r or reject it with a reason.
     *
     * @return Status::Ok when enqueued (ownership transferred);
     *         RejectedQueueFull / RejectedDeadline / RejectedClosed
     *         otherwise, in which case @p r is untouched and the
     *         caller completes its promise.
     */
    Status admit(Request &&r);

    /**
     * Form one batch.
     *
     * Blocks until a request is available (or the queue is closed),
     * then takes up to @p max_batch of whatever is queued and returns
     * at once. Requests whose deadline has already passed land in
     * @p expired instead of @p out and do not count against
     * @p max_batch.
     *
     * @return false when the queue is closed and fully drained (both
     *         output vectors empty); true otherwise.
     */
    bool popBatch(std::size_t max_batch, std::vector<Request> &out,
                  std::vector<Request> &expired);

    /** Reject future admits and wake all poppers to drain. */
    void close();

    std::size_t depth() const;

    /**
     * Feed the admission estimator with an observed per-request
     * service time (EWMA, alpha = 0.2). Called by scheduler workers
     * with inference-time / batch-size.
     */
    void noteServiceTime(double per_request_us);

    /** Current per-request service estimate (0 until first sample). */
    double
    serviceEstimateUs() const
    {
        return serviceEstimateUs_.load(std::memory_order_relaxed);
    }

  private:
    /** True when @p a pops before @p b under the configured policy. */
    bool before(const Request &a, const Request &b) const;

    /** Pop the policy-minimum request. @pre !items_.empty(), locked. */
    Request popTopLocked();

    Config cfg_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Request> items_; ///< binary heap under before()
    /**
     * (deadline, seq) for every queued request whose deadline has not
     * yet been observed expired. Together with expiredQueued_ this
     * gives admit() the live-entry count in amortized O(log n)
     * instead of rescanning items_: each deadline enters and leaves
     * the set exactly once (popped by the admit-time purge when it
     * expires, or erased when popBatch removes the request).
     */
    std::set<std::pair<Clock::time_point, std::uint64_t>> deadlines_;
    /// Requests still in items_ whose deadline the purge saw expire.
    std::size_t expiredQueued_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::atomic<bool> closed_{false};
    std::atomic<double> serviceEstimateUs_{0.0};
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_REQUEST_QUEUE_HH
