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
 * Payloads are serialized with sim::ByteWriter/ByteReader, so a
 * truncated or corrupt payload fails to decode instead of reading
 * garbage. Parameter/gradient vectors travel as raw f32 runs with an
 * element-count prefix validated against the receiver's layout.
 *
 * Trace propagation: Pull and Push end with a TraceCtx {trace_id,
 * span_id, sampled} so one trace spans worker -> PS -> RMSProp
 * apply. Hello/Welcome exchange wall-clock timestamps (unix µs) for
 * the handshake clock-offset estimate that tools/trace_merge uses to
 * align per-process trace files.
 */

#ifndef FA3C_DIST_WIRE_HH
#define FA3C_DIST_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nn/params.hh"

namespace fa3c::dist::wire {

/** Protocol magic in every dist frame header. */
inline constexpr std::uint32_t kMagic = 0xFA3CD157;

/** Frames claiming a larger payload are a protocol error. */
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

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

/** Full parameter image at one version. */
struct Params
{
    std::uint64_t version = 0;
    std::uint64_t steps = 0;
    std::uint8_t stop = 0; ///< PS reached totalSteps; finish up
    std::vector<float> theta;
};

/** One training task's summed gradients. */
struct Push
{
    std::uint64_t workerId = 0;
    std::uint64_t baseVersion = 0; ///< version the rollout ran on
    std::uint64_t steps = 0;       ///< env steps consumed
    std::uint8_t wantParams = 0;   ///< piggyback fresh theta on the ack
    std::vector<float> grads;
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
    std::uint64_t staleness = 0; ///< version - baseVersion at arrival
    std::vector<float> theta;    ///< empty unless wantParams
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
std::uint32_t layoutCrc(const nn::ParamSet &params);

void encodeHello(std::string &out, const Hello &m);
bool decodeHello(Hello &m, std::string_view payload);

void encodeWelcome(std::string &out, const Welcome &m);
bool decodeWelcome(Welcome &m, std::string_view payload);

void encodePull(std::string &out, const Pull &m);
bool decodePull(Pull &m, std::string_view payload);

void encodeParams(std::string &out, const Params &m);
bool decodeParams(Params &m, std::string_view payload,
                  std::size_t expect_count);

void encodePush(std::string &out, const Push &m);
bool decodePush(Push &m, std::string_view payload,
                std::size_t expect_count);

void encodePushAck(std::string &out, const PushAck &m);
bool decodePushAck(PushAck &m, std::string_view payload,
                   std::size_t expect_count);

void encodeHeartbeat(std::string &out, const Heartbeat &m);
bool decodeHeartbeat(Heartbeat &m, std::string_view payload);

void encodeHeartbeatAck(std::string &out, const HeartbeatAck &m);
bool decodeHeartbeatAck(HeartbeatAck &m, std::string_view payload);

void encodeStatsReply(std::string &out, const StatsReply &m);
bool decodeStatsReply(StatsReply &m, std::string_view payload);

} // namespace fa3c::dist::wire

#endif // FA3C_DIST_WIRE_HH
