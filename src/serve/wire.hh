/**
 * @file
 * The length-prefixed serving wire format, spoken by the epoll
 * front-end (serve/event_loop.*) and the blocking client
 * (serve/tcp.*). All integers are little-endian, floats IEEE-754
 * binary32; both ends are assumed little-endian hosts.
 *
 *   request frame (magic 0xFA3C5E21):
 *     u32 magic
 *     u64 tag          client-chosen, echoed in the response
 *     u32 deadline_us  latency budget (0 = none)
 *     u32 obs_numel    number of observation floats
 *     u64 trace_id        0 = no trace context
 *     u64 parent_span_id
 *     u8  sampled         head sampling decision
 *     f32 obs[obs_numel]
 *
 *   response frame (magic 0xFA3C5E22):
 *     u32 magic
 *     u64 tag          echoed request tag
 *     u8  status       serve::Status value
 *     i32 action       argmax action (-1 unless status == Ok)
 *     f32 value        value-head output
 *     u64 model_version
 *     f32 queue_us, f32 infer_us, f32 total_us
 *     u32 retry_after_us   back-off hint on Rejected*
 *     u32 num_probs    action-probability count (0 unless Ok)
 *     f32 probs[num_probs]
 *
 * The trace block carries Dapper-style context so one trace_id spans
 * client -> router -> replica -> backend across process boundaries;
 * retry_after_us lets clients facing a shedding fleet back off
 * instead of hammering it. Any other magic is a protocol error that
 * closes the connection. That includes the retired request magics
 * 0xFA3C5E01 and 0xFA3C5E11, whose shorter headers would otherwise
 * misparse as this layout; never reuse them.
 */

#ifndef FA3C_SERVE_WIRE_HH
#define FA3C_SERVE_WIRE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "net/frame.hh"
#include "obs/span.hh"
#include "serve/request.hh"

namespace fa3c::serve::wire {

// The byte codec lives in the shared net layer; every helper below
// keeps its historical wire::put / wire::get spelling.
using net::get;
using net::put;

inline constexpr std::uint32_t kRequestMagic = 0xFA3C5E21;
inline constexpr std::uint32_t kResponseMagic = 0xFA3C5E22;

/** Request bytes before the observation payload, trace block
 * included. */
inline constexpr std::size_t kRequestHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) +
    sizeof(std::uint32_t) + sizeof(std::uint32_t) +
    sizeof(std::uint64_t) + sizeof(std::uint64_t) +
    sizeof(std::uint8_t);

/** Fixed response bytes before the probability tail, magic included. */
inline constexpr std::size_t kResponsePrefixBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) +
    sizeof(std::uint8_t) + sizeof(std::int32_t) + sizeof(float) +
    sizeof(std::uint64_t) + 3 * sizeof(float) +
    sizeof(std::uint32_t) + sizeof(std::uint32_t);

/** Decoded request frame header. */
struct RequestHeader
{
    std::uint64_t tag = 0;
    std::uint32_t deadlineUs = 0;
    std::uint32_t numel = 0;
    std::uint64_t traceId = 0; ///< 0 = no context
    std::uint64_t parentSpan = 0;
    bool sampled = false;
};

/**
 * Decode the kRequestHeaderBytes at @p p into @p h.
 * @return false on a foreign magic (a protocol error).
 */
inline bool
decodeRequestHeader(const std::uint8_t *p, RequestHeader &h)
{
    if (get<std::uint32_t>(p) != kRequestMagic)
        return false;
    h.tag = get<std::uint64_t>(p);
    h.deadlineUs = get<std::uint32_t>(p);
    h.numel = get<std::uint32_t>(p);
    h.traceId = get<std::uint64_t>(p);
    h.parentSpan = get<std::uint64_t>(p);
    h.sampled = get<std::uint8_t>(p) != 0;
    return true;
}

/**
 * The server-side span context for a decoded request: a child of the
 * propagated remote span when the client sent one, a fresh local
 * root when its trace_id is 0.
 */
inline obs::SpanContext
requestSpan(const RequestHeader &h)
{
    return obs::remoteChildSpan(h.traceId, h.parentSpan, h.sampled);
}

/** Encode one request frame; @p trace is the client-side span
 * context the server parents its spans under. */
inline void
encodeRequest(std::vector<std::uint8_t> &buf, std::uint64_t tag,
              std::uint32_t deadline_us, const float *obs,
              std::size_t numel, const obs::SpanContext &trace = {})
{
    buf.clear();
    buf.reserve(kRequestHeaderBytes + numel * sizeof(float));
    put<std::uint32_t>(buf, kRequestMagic);
    put<std::uint64_t>(buf, tag);
    put<std::uint32_t>(buf, deadline_us);
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(numel));
    put<std::uint64_t>(buf, trace.trace);
    put<std::uint64_t>(buf, trace.span);
    put<std::uint8_t>(buf, trace.sampled ? 1 : 0);
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(obs);
    buf.insert(buf.end(), bytes, bytes + numel * sizeof(float));
}

/** Encode one response frame. */
inline void
encodeResponse(std::vector<std::uint8_t> &buf, std::uint64_t tag,
               const Response &resp)
{
    buf.clear();
    buf.reserve(kResponsePrefixBytes +
                resp.policy.size() * sizeof(float));
    put<std::uint32_t>(buf, kResponseMagic);
    put<std::uint64_t>(buf, tag);
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(resp.status));
    put<std::int32_t>(buf, resp.action);
    put<float>(buf, resp.value);
    put<std::uint64_t>(buf, resp.modelVersion);
    put<float>(buf, static_cast<float>(resp.queueUs));
    put<float>(buf, static_cast<float>(resp.inferUs));
    put<float>(buf, static_cast<float>(resp.totalUs));
    put<std::uint32_t>(buf, resp.retryAfterUs);
    put<std::uint32_t>(buf,
                       static_cast<std::uint32_t>(resp.policy.size()));
    for (float pr : resp.policy)
        put<float>(buf, pr);
}

/**
 * Decode the kResponsePrefixBytes at @p p into @p tag and @p out;
 * @p num_probs receives the probability-tail count the caller still
 * has to read. @return false on a foreign magic.
 */
inline bool
decodeResponsePrefix(const std::uint8_t *p, std::uint64_t &tag,
                     Response &out, std::uint32_t &num_probs)
{
    if (get<std::uint32_t>(p) != kResponseMagic)
        return false;
    tag = get<std::uint64_t>(p);
    out.status = static_cast<Status>(get<std::uint8_t>(p));
    out.action = get<std::int32_t>(p);
    out.value = get<float>(p);
    out.modelVersion = get<std::uint64_t>(p);
    out.queueUs = get<float>(p);
    out.inferUs = get<float>(p);
    out.totalUs = get<float>(p);
    out.retryAfterUs = get<std::uint32_t>(p);
    num_probs = get<std::uint32_t>(p);
    return true;
}

} // namespace fa3c::serve::wire

#endif // FA3C_SERVE_WIRE_HH
