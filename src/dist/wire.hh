/**
 * @file
 * The distributed-training wire protocol: messages between a
 * parameter-server process (dist::PsServer) and its worker processes
 * (dist::PsClient / dist::WorkerRunner), carried as net::frame
 * messages (u32 magic, u32 type, u32 length, payload) over TCP.
 *
 * Message flow:
 *
 *     worker                         parameter server
 *       | -- Hello {layout crc} ------> |  validate, grant lease
 *       | <- Welcome {id, ttl, ver} --- |
 *       | -- Pull --------------------> |
 *       | <- Params {ver, theta} ------ |
 *       |   ... rollout + gradients ...
 *       | -- Push {base ver, grads} --> |  staleness check, RMSProp
 *       | <- PushAck {ver, theta} ----- |  (theta when wantParams)
 *       | -- Heartbeat {id} ----------> |  renew lease
 *       | <- HeartbeatAck {stop} ------ |
 *       | -- Bye {id} ----------------> |  release lease
 *
 * Payloads are decoded with sim::ByteReader, so a truncated or
 * corrupt payload fails to decode instead of reading garbage.
 * Parameter/gradient vectors travel as raw f32 runs with an
 * element-count prefix validated against the receiver's layout.
 *
 * The three messages that carry a run (Params, Push, PushAck) never
 * copy it on the way out or into a temporary on the way in: the
 * encoder writes only the fixed fields around the run into a Gather
 * and borrows the run from the caller for net::sendFrame; the
 * decoder checks the whole frame first (run count 0 or the expected
 * count, exact length, no trailing bytes) and only then copies the
 * run into a caller-supplied span. A corrupt frame writes nothing.
 * The other messages are small and use sim::ByteWriter.
 *
 * Trace propagation: Pull and Push end with a TraceCtx {trace_id,
 * span_id, sampled} so one trace spans worker -> PS -> RMSProp
 * apply. Hello/Welcome exchange wall-clock timestamps (unix µs) for
 * the handshake clock-offset estimate that tools/trace_merge uses to
 * align per-process trace files.
 */

#ifndef FA3C_DIST_WIRE_HH
#define FA3C_DIST_WIRE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hh"
#include "nn/params.hh"

namespace fa3c::dist::wire {

/** Protocol magic in every dist frame header. */
inline constexpr std::uint32_t kMagic = 0xFA3CD157;

/** Message types (the `type` word of the net::FrameHeader). */
enum class Type : std::uint32_t
{
    Hello = 1,
    Welcome,
    Pull,
    Params,
    Push,
    PushAck,
    Heartbeat,
    HeartbeatAck,
    Stats,
    StatsReply,
    Bye,
};

/** Span context carried on Pull/Push frames (0 = no context). */
struct TraceCtx
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint8_t sampled = 0;
};

/** Worker introduction; the PS validates the parameter layout. */
struct Hello
{
    std::string workerName;
    std::uint64_t paramCount = 0;
    std::uint32_t layoutCrc = 0;
    std::uint64_t clientUnixUs = 0; ///< sender wall clock
};

/** Lease grant. workerId == 0 means the hello was rejected (layout
 * mismatch) and the connection is about to close. */
struct Welcome
{
    std::uint64_t workerId = 0;
    std::uint32_t leaseTtlMs = 0;
    std::uint64_t version = 0;
    std::uint64_t steps = 0;
    std::uint64_t totalSteps = 0;
    std::uint64_t maxStaleness = 0;
    std::uint64_t serverUnixUs = 0; ///< PS wall clock
};

/** Parameter fetch; carries only the caller's trace context. */
struct Pull
{
    TraceCtx trace;
};

/*
 * The f32 run of Params, Push and PushAck is a view, not a copy. To
 * encode, point it at the vector to send; it must stay alive until
 * the frame is sent. A successful decode points it at the caller's
 * destination, or leaves it empty when the frame carried no run.
 */

/** Full parameter image at one version. */
struct Params
{
    std::uint64_t version = 0;
    std::uint64_t steps = 0;
    std::uint8_t stop = 0; ///< PS reached totalSteps; finish up
    std::span<const float> theta;
};

/** One training task's summed gradients. */
struct Push
{
    std::uint64_t workerId = 0;
    std::uint64_t baseVersion = 0; ///< version the rollout ran on
    std::uint64_t steps = 0;       ///< env steps consumed
    std::uint8_t wantParams = 0;   ///< piggyback fresh theta on the ack
    std::span<const float> grads;
    TraceCtx trace;
};

/** Outcome of a Push. On rejection (staleness bound exceeded or
 * unknown lease) the gradients were discarded; theta still rides
 * along when wantParams was set, so the worker resyncs in the same
 * round trip. */
struct PushAck
{
    std::uint8_t accepted = 0;
    std::uint8_t stop = 0;
    std::uint64_t version = 0;
    std::uint64_t steps = 0;
    std::uint64_t staleness = 0;  ///< version - baseVersion at arrival
    std::span<const float> theta; ///< empty unless wantParams
};

struct Heartbeat
{
    std::uint64_t workerId = 0;
};

/** known == 0 tells the worker its lease was reaped (it should
 * re-Hello); stop mirrors Params::stop. */
struct HeartbeatAck
{
    std::uint8_t known = 0;
    std::uint8_t stop = 0;
};

/** PS counters for tests, benches, and the CLI. */
struct StatsReply
{
    std::uint64_t version = 0;
    std::uint64_t steps = 0;
    std::uint64_t totalSteps = 0;
    std::uint32_t activeLeases = 0;
    std::uint64_t joined = 0;
    std::uint64_t reaped = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pushRejects = 0;
};

/** Layout fingerprint a Hello carries: CRC32 over the segment table
 * (names, offsets, counts), so mismatched networks are refused at
 * join time instead of corrupting the PS state. */
std::uint32_t layoutCrc(const std::vector<nn::ParamSet::Segment> &layout);

/**
 * Frame payload limits derived from the parameter layout, checked
 * against a frame header before any payload byte is read, so a
 * corrupt or hostile length cannot pin a large buffer.
 *
 * maxRequestBytes: the PS's limit, a full Push of @p count gradients.
 * Every other request is smaller (a Hello as long as its worker name
 * is under 4 × count bytes).
 *
 * maxReplyBytes: the worker's limit, a PushAck carrying @p count
 * parameters; a Params is shorter, and the replies without a run
 * (Welcome, HeartbeatAck, StatsReply) fit the limit for count 0.
 */
std::uint32_t maxRequestBytes(std::size_t count);
std::uint32_t maxReplyBytes(std::size_t count);

/**
 * Wire image of a Params, Push or PushAck payload as net::sendFrame
 * parts: the fixed fields before and after the f32 run (its count
 * prefix included) are encoded here, and the run is borrowed from
 * the message. Valid as long as the run it borrows.
 */
struct Gather
{
    std::array<std::byte, 32> head{};
    std::size_t headLen = 0;
    std::span<const float> run;
    std::array<std::byte, 24> tail{};
    std::size_t tailLen = 0;

    /** head, run, tail, in wire order. */
    std::array<net::Part, 3>
    parts() const
    {
        return {net::Part(head.data(), headLen), std::as_bytes(run),
                net::Part(tail.data(), tailLen)};
    }
};

void encodeHello(std::string &out, const Hello &m);
bool decodeHello(Hello &m, std::string_view payload);

void encodeWelcome(std::string &out, const Welcome &m);
bool decodeWelcome(Welcome &m, std::string_view payload);

void encodePull(std::string &out, const Pull &m);
bool decodePull(Pull &m, std::string_view payload);

/*
 * Decoders of the messages with a run: the run's count must be 0 or
 * exactly the destination's size, and the payload must end where the
 * message does. Nothing is written, neither the message nor the
 * destination, unless the whole payload validates; then the run is
 * copied into the destination and the message's span views it.
 */

void encodeParams(Gather &out, const Params &m);
bool decodeParams(Params &m, std::string_view payload,
                  std::span<float> theta);

void encodePush(Gather &out, const Push &m);
bool decodePush(Push &m, std::string_view payload,
                std::span<float> grads);

void encodePushAck(Gather &out, const PushAck &m);
bool decodePushAck(PushAck &m, std::string_view payload,
                   std::span<float> theta);

void encodeHeartbeat(std::string &out, const Heartbeat &m);
bool decodeHeartbeat(Heartbeat &m, std::string_view payload);

void encodeHeartbeatAck(std::string &out, const HeartbeatAck &m);
bool decodeHeartbeatAck(HeartbeatAck &m, std::string_view payload);

void encodeStatsReply(std::string &out, const StatsReply &m);
bool decodeStatsReply(StatsReply &m, std::string_view payload);

} // namespace fa3c::dist::wire

#endif // FA3C_DIST_WIRE_HH
