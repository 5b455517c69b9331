/** @file
 * Tests of the dist wire codecs: every message round trips, truncated
 * or short payloads fail to decode instead of reading garbage, vector
 * element counts are validated against the receiver's layout, and the
 * Hello layout fingerprint distinguishes different networks.
 */

#include <gtest/gtest.h>

#include <string>

#include "dist/wire.hh"
#include "nn/a3c_network.hh"

using namespace fa3c;
using namespace fa3c::dist;

namespace {

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
    wire::Params m;
    m.version = 5;
    m.steps = 777;
    m.stop = 1;
    m.theta = {1.0f, -2.0f, 0.5f, 3.25f};

    std::string payload;
    wire::encodeParams(payload, m);

    wire::Params back;
    ASSERT_TRUE(wire::decodeParams(back, payload, 4));
    EXPECT_EQ(back.version, 5u);
    EXPECT_EQ(back.steps, 777u);
    EXPECT_EQ(back.stop, 1u);
    EXPECT_EQ(back.theta, m.theta);

    // A count that disagrees with the receiver's layout is refused.
    wire::Params wrong;
    EXPECT_FALSE(wire::decodeParams(wrong, payload, 3));
    EXPECT_FALSE(wire::decodeParams(wrong, payload, 5));

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Params out;
        return wire::decodeParams(out, p, 4);
    });
}

TEST(DistWire, PushRoundTripValidatesCount)
{
    wire::Push m;
    m.workerId = 3;
    m.baseVersion = 41;
    m.steps = 20;
    m.wantParams = 1;
    m.grads = {0.25f, -0.25f, 8.0f};

    std::string payload;
    wire::encodePush(payload, m);

    wire::Push back;
    ASSERT_TRUE(wire::decodePush(back, payload, 3));
    EXPECT_EQ(back.workerId, 3u);
    EXPECT_EQ(back.baseVersion, 41u);
    EXPECT_EQ(back.steps, 20u);
    EXPECT_EQ(back.wantParams, 1u);
    EXPECT_EQ(back.grads, m.grads);

    wire::Push wrong;
    EXPECT_FALSE(wire::decodePush(wrong, payload, 2));

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::Push out;
        return wire::decodePush(out, p, 3);
    });
}

TEST(DistWire, PushTraceCtxRoundTrip)
{
    wire::Push m;
    m.workerId = 3;
    m.baseVersion = 41;
    m.steps = 20;
    m.grads = {1.0f};
    m.trace.traceId = 0xABCDEF123456ull;
    m.trace.spanId = 0x123456ABCDEFull;
    m.trace.sampled = 1;

    std::string payload;
    wire::encodePush(payload, m);
    wire::Push back;
    ASSERT_TRUE(wire::decodePush(back, payload, 1));
    EXPECT_EQ(back.trace.traceId, m.trace.traceId);
    EXPECT_EQ(back.trace.spanId, m.trace.spanId);
    EXPECT_EQ(back.trace.sampled, 1);
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
    wire::PushAck m;
    m.accepted = 1;
    m.stop = 0;
    m.version = 9;
    m.steps = 90;
    m.staleness = 2;
    m.theta = {4.0f, 5.0f};

    std::string payload;
    wire::encodePushAck(payload, m);
    wire::PushAck back;
    ASSERT_TRUE(wire::decodePushAck(back, payload, 2));
    EXPECT_EQ(back.accepted, 1u);
    EXPECT_EQ(back.version, 9u);
    EXPECT_EQ(back.staleness, 2u);
    EXPECT_EQ(back.theta, m.theta);

    // theta is optional on the wire: an ack without it must decode
    // against any expected count and come back empty.
    wire::PushAck bare;
    bare.accepted = 0;
    bare.staleness = 12;
    std::string bare_payload;
    wire::encodePushAck(bare_payload, bare);
    wire::PushAck bare_back;
    ASSERT_TRUE(wire::decodePushAck(bare_back, bare_payload, 2));
    EXPECT_EQ(bare_back.accepted, 0u);
    EXPECT_EQ(bare_back.staleness, 12u);
    EXPECT_TRUE(bare_back.theta.empty());

    expectTruncationsRejected(payload, [](std::string_view p) {
        wire::PushAck out;
        return wire::decodePushAck(out, p, 2);
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

TEST(DistWire, LayoutCrcFingerprintsTheSegmentTable)
{
    const nn::A3cNetwork small(nn::NetConfig::tiny(3));
    const nn::A3cNetwork bigger(nn::NetConfig::tiny(6));

    const nn::ParamSet a = small.makeParams();
    const nn::ParamSet b = small.makeParams();
    const nn::ParamSet c = bigger.makeParams();

    // Same layout -> same crc, regardless of the values inside.
    EXPECT_EQ(wire::layoutCrc(a), wire::layoutCrc(b));
    // A different head size must change the fingerprint.
    EXPECT_NE(wire::layoutCrc(a), wire::layoutCrc(c));
}
