/** @file
 * Tests of the dist wire codecs: every message round trips, truncated
 * or short payloads fail to decode instead of reading garbage, vector
 * element counts are validated against the receiver's layout, the
 * gather encoders of the messages that carry an f32 run produce the
 * pinned wire bytes, their span decoders write nothing unless the
 * whole frame validates, and the Hello layout fingerprint
 * distinguishes different networks.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dist/wire.hh"
#include "net/frame.hh"
#include "nn/a3c_network.hh"

using namespace fa3c;
using namespace fa3c::dist;

namespace {

/** The payload a Gather describes, as one contiguous string. */
std::string
flatten(const wire::Gather &g)
{
    std::string out;
    for (const net::Part &p : g.parts())
        out.append(reinterpret_cast<const char *>(p.data()), p.size());
    return out;
}

std::string
bytesOf(std::initializer_list<std::uint8_t> bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

/** True when every element of @p v has @p sentinel's bit pattern. */
bool
allBits(const std::vector<float> &v, float sentinel)
{
    for (float f : v)
        if (std::memcmp(&f, &sentinel, sizeof(f)) != 0)
            return false;
    return true;
}

/**
 * A span decoder must reject every strict prefix of @p payload, the
 * payload plus one trailing byte, and a destination one element
 * shorter or longer than the @p count the frame carries, and in every
 * case leave the sentinel-filled destination untouched.
 */
template <typename Decode>
void
expectRejectedWithoutWrites(const std::string &payload,
                            std::size_t count, Decode decode)
{
    constexpr float kSentinel = -777.25f;
    const auto rejected = [&](std::string_view p, std::size_t dest_size) {
        std::vector<float> dest(dest_size, kSentinel);
        const bool ok = decode(p, std::span<float>(dest));
        return !ok && allBits(dest, kSentinel);
    };
    for (std::size_t keep = 0; keep < payload.size(); ++keep)
        EXPECT_TRUE(rejected(std::string_view(payload.data(), keep), count))
            << "prefix of " << keep << " bytes decoded or wrote";
    const std::string trailing = payload + '\0';
    EXPECT_TRUE(rejected(trailing, count)) << "trailing byte accepted";
    EXPECT_TRUE(rejected(payload, count - 1)) << "short destination";
    EXPECT_TRUE(rejected(payload, count + 1)) << "long destination";
}

/** Every strict prefix of @p payload must fail @p decode. */
template <typename Decode>
void
expectTruncationsRejected(const std::string &payload, Decode decode)
{
    for (std::size_t keep = 0; keep < payload.size(); ++keep) {
        EXPECT_FALSE(decode(std::string_view(payload.data(), keep)))
            << "prefix of " << keep << " bytes decoded";
    }
}

} // namespace

TEST(DistWire, HelloRoundTrip)
{
    wire::Hello m;
    m.workerName = "worker-007";
    m.paramCount = 123456;
    m.layoutCrc = 0xCAFED00D;

    std::string payload;
    wire::encodeHello(payload, m);
    wire::Hello back;
    ASSERT_TRUE(wire::decodeHello(back, payload));
    EXPECT_EQ(back.workerName, "worker-007");
    EXPECT_EQ(back.paramCount, 123456u);
    EXPECT_EQ(back.layoutCrc, 0xCAFED00Du);

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Hello h;
        return wire::decodeHello(h, p);
    });
}

TEST(DistWire, WelcomeRoundTrip)
{
    wire::Welcome m;
    m.workerId = 17;
    m.leaseTtlMs = 1500;
    m.version = 88;
    m.steps = 4242;
    m.totalSteps = 100000;
    m.maxStaleness = 3;

    std::string payload;
    wire::encodeWelcome(payload, m);
    wire::Welcome back;
    ASSERT_TRUE(wire::decodeWelcome(back, payload));
    EXPECT_EQ(back.workerId, 17u);
    EXPECT_EQ(back.leaseTtlMs, 1500u);
    EXPECT_EQ(back.version, 88u);
    EXPECT_EQ(back.steps, 4242u);
    EXPECT_EQ(back.totalSteps, 100000u);
    EXPECT_EQ(back.maxStaleness, 3u);

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Welcome w;
        return wire::decodeWelcome(w, p);
    });
}

TEST(DistWire, ParamsRoundTripValidatesCount)
{
    const std::vector<float> theta = {1.0f, -2.0f, 0.5f, 3.25f};
    wire::Params m;
    m.version = 5;
    m.steps = 777;
    m.stop = 1;
    m.theta = theta;

    wire::Gather g;
    wire::encodeParams(g, m);
    const std::string payload = flatten(g);

    std::vector<float> dest(4);
    wire::Params back;
    ASSERT_TRUE(wire::decodeParams(back, payload, dest));
    EXPECT_EQ(back.version, 5u);
    EXPECT_EQ(back.steps, 777u);
    EXPECT_EQ(back.stop, 1u);
    EXPECT_EQ(dest, theta);
    EXPECT_EQ(back.theta.data(), dest.data());
    EXPECT_EQ(back.theta.size(), 4u);

    // A count that disagrees with the receiver's layout is refused.
    wire::Params wrong;
    std::vector<float> three(3), five(5);
    EXPECT_FALSE(wire::decodeParams(wrong, payload, three));
    EXPECT_FALSE(wire::decodeParams(wrong, payload, five));

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Params out;
        std::vector<float> d(4);
        return wire::decodeParams(out, p, d);
    });
}

TEST(DistWire, PushRoundTripValidatesCount)
{
    const std::vector<float> grads = {0.25f, -0.25f, 8.0f};
    wire::Push m;
    m.workerId = 3;
    m.baseVersion = 41;
    m.steps = 20;
    m.wantParams = 1;
    m.grads = grads;

    wire::Gather g;
    wire::encodePush(g, m);
    // The run is borrowed, never copied into the gather.
    EXPECT_EQ(g.run.data(), grads.data());
    const std::string payload = flatten(g);

    std::vector<float> dest(3);
    wire::Push back;
    ASSERT_TRUE(wire::decodePush(back, payload, dest));
    EXPECT_EQ(back.workerId, 3u);
    EXPECT_EQ(back.baseVersion, 41u);
    EXPECT_EQ(back.steps, 20u);
    EXPECT_EQ(back.wantParams, 1u);
    EXPECT_EQ(dest, grads);
    EXPECT_EQ(back.grads.data(), dest.data());

    wire::Push wrong;
    std::vector<float> two(2);
    EXPECT_FALSE(wire::decodePush(wrong, payload, two));

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Push out;
        std::vector<float> d(3);
        return wire::decodePush(out, p, d);
    });
}

TEST(DistWire, PushTraceCtxRoundTrip)
{
    const std::vector<float> grads = {1.0f};
    wire::Push m;
    m.workerId = 3;
    m.baseVersion = 41;
    m.steps = 20;
    m.grads = grads;
    m.trace.traceId = 0xABCDEF123456ull;
    m.trace.spanId = 0x123456ABCDEFull;
    m.trace.sampled = 1;

    wire::Gather g;
    wire::encodePush(g, m);
    std::vector<float> dest(1);
    wire::Push back;
    ASSERT_TRUE(wire::decodePush(back, flatten(g), dest));
    EXPECT_EQ(back.trace.traceId, m.trace.traceId);
    EXPECT_EQ(back.trace.spanId, m.trace.spanId);
    EXPECT_EQ(back.trace.sampled, 1);
}

TEST(DistWire, GatherEncodersProducePinnedWireBytes)
{
    // Push and PushAck bytes as the ByteWriter encoders they replaced
    // produced them: the wire format did not change.
    const std::vector<float> grads = {1.0f, -2.5f, 0.15625f};
    wire::Push push;
    push.workerId = 0x0102030405060708ull;
    push.baseVersion = 41;
    push.steps = 20;
    push.wantParams = 1;
    push.grads = grads;
    push.trace.traceId = 0xA1B2C3D4E5F60718ull;
    push.trace.spanId = 0x1122334455667788ull;
    push.trace.sampled = 1;
    const std::string push_bytes = bytesOf({
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x29, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f,
        0x00, 0x00, 0x20, 0xc0, 0x00, 0x00, 0x20, 0x3e, 0x18, 0x07, 0xf6,
        0xe5, 0xd4, 0xc3, 0xb2, 0xa1, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
        0x22, 0x11, 0x01,
    });

    const std::vector<float> theta = {4.0f, -0.5f};
    wire::PushAck ack;
    ack.accepted = 1;
    ack.stop = 0;
    ack.version = 0x1234;
    ack.steps = 90;
    ack.staleness = 2;
    ack.theta = theta;
    const std::string ack_bytes = bytesOf({
        0x01, 0x00, 0x34, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5a,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
        0x40, 0x00, 0x00, 0x00, 0xbf,
    });

    wire::Gather push_g, ack_g;
    wire::encodePush(push_g, push);
    wire::encodePushAck(ack_g, ack);
    EXPECT_EQ(flatten(push_g), push_bytes);
    EXPECT_EQ(flatten(ack_g), ack_bytes);

    // And through the gather send itself, as the PS and worker use it.
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(net::sendFrame(fds[0], wire::kMagic,
                               static_cast<std::uint32_t>(wire::Type::Push),
                               push_g.parts()));
    ASSERT_TRUE(net::sendFrame(
        fds[0], wire::kMagic,
        static_cast<std::uint32_t>(wire::Type::PushAck), ack_g.parts()));
    std::uint32_t type = 0;
    std::string got;
    ASSERT_TRUE(net::recvFrame(fds[1], wire::kMagic, 1 << 10, type, got));
    EXPECT_EQ(type, static_cast<std::uint32_t>(wire::Type::Push));
    EXPECT_EQ(got, push_bytes);
    ASSERT_TRUE(net::recvFrame(fds[1], wire::kMagic, 1 << 10, type, got));
    EXPECT_EQ(type, static_cast<std::uint32_t>(wire::Type::PushAck));
    EXPECT_EQ(got, ack_bytes);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(DistWire, SpanDecodersWriteNothingUnlessTheFrameValidates)
{
    const std::vector<float> run = {1.5f, -2.0f, 0.25f, 9.0f, -0.125f};
    const std::size_t count = run.size();

    wire::Params params;
    params.version = 3;
    params.theta = run;
    wire::Gather params_g;
    wire::encodeParams(params_g, params);
    expectRejectedWithoutWrites(
        flatten(params_g), count,
        [](std::string_view p, std::span<float> dest) {
            wire::Params out;
            return wire::decodeParams(out, p, dest);
        });

    wire::Push push;
    push.workerId = 7;
    push.grads = run;
    push.trace.traceId = 11;
    wire::Gather push_g;
    wire::encodePush(push_g, push);
    expectRejectedWithoutWrites(
        flatten(push_g), count,
        [](std::string_view p, std::span<float> dest) {
            wire::Push out;
            return wire::decodePush(out, p, dest);
        });

    wire::PushAck ack;
    ack.accepted = 1;
    ack.version = 4;
    ack.theta = run;
    wire::Gather ack_g;
    wire::encodePushAck(ack_g, ack);
    expectRejectedWithoutWrites(
        flatten(ack_g), count,
        [](std::string_view p, std::span<float> dest) {
            wire::PushAck out;
            return wire::decodePushAck(out, p, dest);
        });

    // A rejected frame leaves the message's fields alone too.
    wire::PushAck untouched;
    untouched.version = 99;
    std::vector<float> dest(count);
    const std::string truncated = flatten(ack_g).substr(0, 20);
    EXPECT_FALSE(wire::decodePushAck(untouched, truncated, dest));
    EXPECT_EQ(untouched.version, 99u);
}

TEST(DistWire, PullRoundTrip)
{
    wire::Pull m;
    m.trace.traceId = 77;
    m.trace.spanId = 88;
    m.trace.sampled = 1;

    std::string payload;
    wire::encodePull(payload, m);
    wire::Pull back;
    ASSERT_TRUE(wire::decodePull(back, payload));
    EXPECT_EQ(back.trace.traceId, 77u);
    EXPECT_EQ(back.trace.spanId, 88u);
    EXPECT_EQ(back.trace.sampled, 1);

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Pull out;
        return wire::decodePull(out, p);
    });
}

TEST(DistWire, HandshakeClockStampsRoundTrip)
{
    wire::Hello hello;
    hello.workerName = "w0";
    hello.paramCount = 1;
    hello.layoutCrc = 1;
    hello.clientUnixUs = 1'722'000'000'000'123ull;
    std::string payload;
    wire::encodeHello(payload, hello);
    wire::Hello hello_back;
    ASSERT_TRUE(wire::decodeHello(hello_back, payload));
    EXPECT_EQ(hello_back.clientUnixUs, hello.clientUnixUs);

    wire::Welcome welcome;
    welcome.workerId = 1;
    welcome.serverUnixUs = 1'722'000'000'500'000ull;
    std::string wpayload;
    wire::encodeWelcome(wpayload, welcome);
    wire::Welcome welcome_back;
    ASSERT_TRUE(wire::decodeWelcome(welcome_back, wpayload));
    EXPECT_EQ(welcome_back.serverUnixUs, welcome.serverUnixUs);
}

TEST(DistWire, PushAckRoundTripWithAndWithoutTheta)
{
    const std::vector<float> theta = {4.0f, 5.0f};
    wire::PushAck m;
    m.accepted = 1;
    m.stop = 0;
    m.version = 9;
    m.steps = 90;
    m.staleness = 2;
    m.theta = theta;

    wire::Gather g;
    wire::encodePushAck(g, m);
    const std::string payload = flatten(g);
    std::vector<float> dest(2);
    wire::PushAck back;
    ASSERT_TRUE(wire::decodePushAck(back, payload, dest));
    EXPECT_EQ(back.accepted, 1u);
    EXPECT_EQ(back.version, 9u);
    EXPECT_EQ(back.staleness, 2u);
    EXPECT_EQ(dest, theta);
    EXPECT_EQ(back.theta.size(), 2u);

    // theta is optional on the wire: an ack without it must decode
    // against any expected count, come back empty, and leave the
    // destination alone.
    wire::PushAck bare;
    bare.accepted = 0;
    bare.staleness = 12;
    wire::Gather bare_g;
    wire::encodePushAck(bare_g, bare);
    std::vector<float> kept = {7.0f, 8.0f};
    wire::PushAck bare_back;
    ASSERT_TRUE(wire::decodePushAck(bare_back, flatten(bare_g), kept));
    EXPECT_EQ(bare_back.accepted, 0u);
    EXPECT_EQ(bare_back.staleness, 12u);
    EXPECT_TRUE(bare_back.theta.empty());
    EXPECT_EQ(kept, (std::vector<float>{7.0f, 8.0f}));

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::PushAck out;
        std::vector<float> d(2);
        return wire::decodePushAck(out, p, d);
    });
}

TEST(DistWire, HeartbeatAndAckRoundTrip)
{
    wire::Heartbeat hb;
    hb.workerId = 29;
    std::string payload;
    wire::encodeHeartbeat(payload, hb);
    wire::Heartbeat hb_back;
    ASSERT_TRUE(wire::decodeHeartbeat(hb_back, payload));
    EXPECT_EQ(hb_back.workerId, 29u);

    wire::HeartbeatAck ack;
    ack.known = 1;
    ack.stop = 1;
    std::string ack_payload;
    wire::encodeHeartbeatAck(ack_payload, ack);
    wire::HeartbeatAck ack_back;
    ASSERT_TRUE(wire::decodeHeartbeatAck(ack_back, ack_payload));
    EXPECT_EQ(ack_back.known, 1u);
    EXPECT_EQ(ack_back.stop, 1u);

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Heartbeat out;
        return wire::decodeHeartbeat(out, p);
    });
}

TEST(DistWire, StatsReplyRoundTrip)
{
    wire::StatsReply m;
    m.version = 100;
    m.steps = 5000;
    m.totalSteps = 9000;
    m.activeLeases = 4;
    m.joined = 6;
    m.reaped = 2;
    m.pushes = 101;
    m.pushRejects = 1;

    std::string payload;
    wire::encodeStatsReply(payload, m);
    wire::StatsReply back;
    ASSERT_TRUE(wire::decodeStatsReply(back, payload));
    EXPECT_EQ(back.version, 100u);
    EXPECT_EQ(back.steps, 5000u);
    EXPECT_EQ(back.totalSteps, 9000u);
    EXPECT_EQ(back.activeLeases, 4u);
    EXPECT_EQ(back.joined, 6u);
    EXPECT_EQ(back.reaped, 2u);
    EXPECT_EQ(back.pushes, 101u);
    EXPECT_EQ(back.pushRejects, 1u);

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::StatsReply out;
        return wire::decodeStatsReply(out, p);
    });
}

TEST(DistWire, FrameLimitsAreTheLargestLegalFrames)
{
    // The PS's limit is exactly a full Push, the worker's exactly a
    // full PushAck; a Params and every reply without a run fit.
    const std::size_t count = 1000;
    const std::vector<float> run(count, 1.0f);
    wire::Push push;
    push.grads = run;
    wire::PushAck ack;
    ack.theta = run;
    wire::Params params;
    params.theta = run;
    wire::Gather push_g, ack_g, params_g;
    wire::encodePush(push_g, push);
    wire::encodePushAck(ack_g, ack);
    wire::encodeParams(params_g, params);
    EXPECT_EQ(flatten(push_g).size(), wire::maxRequestBytes(count));
    EXPECT_EQ(flatten(ack_g).size(), wire::maxReplyBytes(count));
    EXPECT_LE(flatten(params_g).size(), wire::maxReplyBytes(count));

    std::string welcome, stats, hb;
    wire::encodeWelcome(welcome, {});
    wire::encodeStatsReply(stats, {});
    wire::encodeHeartbeatAck(hb, {});
    EXPECT_LE(welcome.size(), wire::maxReplyBytes(0));
    EXPECT_EQ(stats.size(), wire::maxReplyBytes(0));
    EXPECT_LE(hb.size(), wire::maxReplyBytes(0));
}

TEST(DistWire, LayoutCrcFingerprintsTheSegmentTable)
{
    const nn::A3cNetwork small(nn::NetConfig::tiny(3));
    const nn::A3cNetwork bigger(nn::NetConfig::tiny(6));

    const nn::ParamSet a = small.makeParams();
    const nn::ParamSet b = small.makeParams();
    const nn::ParamSet c = bigger.makeParams();

    // Same layout -> same crc, regardless of the values inside.
    EXPECT_EQ(wire::layoutCrc(a.segments()),
              wire::layoutCrc(b.segments()));
    // A different head size must change the fingerprint.
    EXPECT_NE(wire::layoutCrc(a.segments()),
              wire::layoutCrc(c.segments()));
}
