#include "serve/request_queue.hh"

#include <algorithm>

namespace fa3c::serve {

namespace {

/** Heap order: true when @p a pops after @p b, so the std max-heap
 * keeps the earliest (deadline, arrival) on top. */
bool
popsAfter(const Request &a, const Request &b)
{
    if (a.deadline != b.deadline)
        return a.deadline > b.deadline;
    return a.seq > b.seq;
}

} // namespace

Request
RequestQueue::popTopLocked()
{
    std::pop_heap(items_.begin(), items_.end(), popsAfter);
    Request r = std::move(items_.back());
    items_.pop_back();
    if (r.deadline != kNoDeadline &&
        deadlines_.erase({r.deadline, r.seq}) == 0) {
        // Already purged from deadlines_ by an admit-time sweep, so
        // it is counted in expiredQueued_; it leaves items_ now.
        --expiredQueued_;
    }
    return r;
}

Status
RequestQueue::admit(Request &&r)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.load(std::memory_order_relaxed))
        return Status::RejectedClosed;
    if (items_.size() >= cfg_.maxDepth)
        return Status::RejectedQueueFull;
    if (r.deadline != kNoDeadline) {
        const auto now = Clock::now();
        if (r.deadline <= now)
            return Status::RejectedDeadline;
        // Every queued request ahead of this one (plus itself) must be
        // served before the deadline; estimate that wait from the
        // scheduler's observed per-request service time. Only live
        // entries count: requests whose own deadline already lapsed
        // never reach a backend (popBatch expires them on the way
        // out), so a heap full of expired requests must not reject a
        // fresh one that would actually be served immediately. The
        // purge below keeps the live count without scanning items_;
        // each queued deadline is popped from the set at most once.
        while (!deadlines_.empty() &&
               deadlines_.begin()->first <= now) {
            deadlines_.erase(deadlines_.begin());
            ++expiredQueued_;
        }
        const std::size_t live = items_.size() - expiredQueued_;
        const double est_us =
            serviceEstimateUs_.load(std::memory_order_relaxed) *
            static_cast<double>(live + 1);
        const auto est = std::chrono::microseconds(
            static_cast<std::int64_t>(est_us));
        if (now + est > r.deadline)
            return Status::RejectedDeadline;
    }
    r.seq = nextSeq_++;
    if (r.deadline != kNoDeadline)
        deadlines_.emplace(r.deadline, r.seq);
    items_.push_back(std::move(r));
    std::push_heap(items_.begin(), items_.end(), popsAfter);
    cv_.notify_one();
    return Status::Ok;
}

bool
RequestQueue::popBatch(std::size_t max_batch, std::vector<Request> &out,
                       std::vector<Request> &expired)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
        return !items_.empty() ||
               closed_.load(std::memory_order_relaxed);
    });
    if (items_.empty())
        return false; // closed and drained

    const auto now = Clock::now();
    while (!items_.empty() && out.size() < max_batch) {
        Request r = popTopLocked();
        if (r.deadline <= now)
            expired.push_back(std::move(r));
        else
            out.push_back(std::move(r));
    }
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
}

std::size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

void
RequestQueue::noteServiceTime(double per_request_us)
{
    // Lossy EWMA: concurrent workers may overwrite each other's
    // blend, which only costs one sample of smoothing.
    const double prev =
        serviceEstimateUs_.load(std::memory_order_relaxed);
    const double next =
        prev == 0.0 ? per_request_us
                    : 0.8 * prev + 0.2 * per_request_us;
    serviceEstimateUs_.store(next, std::memory_order_relaxed);
}

} // namespace fa3c::serve
