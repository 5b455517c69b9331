/**
 * @file
 * Request/response types of the policy-serving subsystem.
 *
 * The paper dedicates a compute unit to inference because serving is
 * its own workload with its own latency/throughput trade-off; this
 * header is the contract between the clients of that workload (the
 * in-process API, the TCP front-end, the load generator) and the
 * dynamic-batching scheduler that executes it.
 */

#ifndef FA3C_SERVE_REQUEST_HH
#define FA3C_SERVE_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/span.hh"
#include "tensor/tensor.hh"

namespace fa3c::serve {

/** The clock every serving deadline/latency is measured on. */
using Clock = std::chrono::steady_clock;

/** Sentinel deadline for requests without one. */
inline constexpr Clock::time_point kNoDeadline =
    Clock::time_point::max();

/**
 * Terminal state of a request. The numeric values are part of the TCP
 * wire format (one byte on the wire); only append, never renumber.
 */
enum class Status : std::uint8_t
{
    Ok = 0,                ///< served; outputs are valid
    RejectedQueueFull = 1, ///< admission: queue depth exceeded
    RejectedDeadline = 2,  ///< admission: deadline budget infeasible
    RejectedNoModel = 3,   ///< no parameter version published yet
    RejectedClosed = 4,    ///< server is shutting down
    RejectedBadRequest = 5,///< malformed observation
    TimedOut = 6,          ///< deadline passed while queued
    RejectedShed = 7,      ///< fleet-wide load shedding at the router
};

/** CLI/log name of @p status. */
const char *statusName(Status status);

/** True for every terminal state except Ok. */
inline bool
failed(Status status)
{
    return status != Status::Ok;
}

/** The outcome of one inference request. */
struct Response
{
    Status status = Status::RejectedClosed;
    int action = -1;            ///< argmax of the policy head
    float value = 0.0f;         ///< value-head output
    std::vector<float> policy;  ///< softmax action probabilities
    std::uint64_t modelVersion = 0; ///< parameter version served
    int batchSize = 0;          ///< batch size; not on the wire
    double queueUs = 0.0;       ///< enqueue -> picked into a batch
    double inferUs = 0.0;       ///< forwardBatch wall time
    double totalUs = 0.0;       ///< enqueue -> response completed
    /**
     * Back-off hint on Rejected* responses: how long the client
     * should wait before retrying, estimated from the queue drain
     * rate at rejection time (0 = no hint; retry at will). Carried
     * on the wire response.
     */
    std::uint32_t retryAfterUs = 0;
};

/** One queued inference request. */
struct Request
{
    std::uint64_t id = 0;       ///< server-assigned, monotonic
    tensor::Tensor obs;         ///< observation [C, H, W]
    Clock::time_point enqueue{};
    Clock::time_point deadline = kNoDeadline;
    /**
     * The one completion channel: runs exactly once with the terminal
     * response, inline from the submitting thread on a rejection or
     * from a scheduler worker otherwise. submit()'s future rides on
     * it too.
     */
    std::function<void(Response &&)> onComplete;
    std::uint64_t seq = 0;      ///< queue arrival order (EDF tiebreak)
    obs::SpanContext span;      ///< this request's trace identity
};

/** Deliver @p resp through @p r's completion callback. Every
 * terminal path funnels through here. */
inline void
completeRequest(Request &r, Response &&resp)
{
    r.onComplete(std::move(resp));
}

} // namespace fa3c::serve

#endif // FA3C_SERVE_REQUEST_HH
