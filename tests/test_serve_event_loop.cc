/**
 * @file
 * Epoll event-loop front-end tests: wire round trips, frames split
 * across arbitrarily small reads, pipelined in-order responses,
 * half-closed sockets that still receive owed responses, slow-reader
 * backpressure that never stalls other clients, wrong-geometry
 * drains (including one racing a half-close), oversize-claim and
 * foreign- or retired-magic rejection, and the router-backed fleet
 * front.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/event_loop.hh"
#include "serve/tcp.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

struct Fixture
{
    nn::NetConfig netCfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net{netCfg};
    nn::ParamSet params = net.makeParams();

    Fixture()
    {
        sim::Rng rng(37);
        net.initParams(params, rng);
    }

    tensor::Tensor
    observation(float scale) const
    {
        tensor::Tensor obs(tensor::Shape(
            {netCfg.inChannels, netCfg.inHeight, netCfg.inWidth}));
        for (std::size_t i = 0; i < obs.numel(); ++i)
            obs.data()[i] =
                scale * static_cast<float>(i % 53) / 53.0f;
        return obs;
    }

    ServeConfig
    config() const
    {
        ServeConfig cfg;
        cfg.batch.maxBatch = 8;
        cfg.workers = 1;
        return cfg;
    }
};

/** Blocking raw socket speaking the wire format byte-by-byte, for
 * the framing edge cases TcpClient's one-shot request() can't
 * express (chunked sends, pipelining, half-close, bad magic). */
struct RawClient
{
    int fd = -1;

    ~RawClient() { close(); }

    bool
    connect(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        return ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }

    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }

    bool
    sendAll(const std::uint8_t *data, std::size_t len)
    {
        std::size_t sent = 0;
        while (sent < len) {
            const ssize_t n =
                ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Send in @p chunk -byte pieces with a pause between them, so
     * the loop sees the frame split across many reads. */
    bool
    sendChunked(const std::vector<std::uint8_t> &frame,
                std::size_t chunk)
    {
        for (std::size_t off = 0; off < frame.size(); off += chunk) {
            const std::size_t n =
                std::min(chunk, frame.size() - off);
            if (!sendAll(frame.data() + off, n))
                return false;
            std::this_thread::sleep_for(200us);
        }
        return true;
    }

    bool
    recvAll(std::uint8_t *data, std::size_t len)
    {
        std::size_t got = 0;
        while (got < len) {
            const ssize_t n = ::recv(fd, data + got, len - got, 0);
            if (n <= 0)
                return false;
            got += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** True once the server has closed the connection: a clean EOF,
     * or a reset when it closed with request bytes unread. Gives up
     * after 10 s, so a server that keeps the connection fails the
     * test instead of hanging it. */
    bool
    closedByPeer()
    {
        timeval timeout{};
        timeout.tv_sec = 10;
        (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout));
        std::uint8_t byte = 0;
        const ssize_t n = ::recv(fd, &byte, 1, 0);
        return n == 0 || (n < 0 && errno == ECONNRESET);
    }

    /** Read one response frame; fails on close or foreign magic. */
    bool
    readResponse(std::uint64_t &tag, Response &out)
    {
        std::uint8_t prefix[wire::kResponsePrefixBytes];
        std::uint32_t num_probs = 0;
        if (!recvAll(prefix, sizeof(prefix)) ||
            !wire::decodeResponsePrefix(prefix, tag, out, num_probs))
            return false;
        out.policy.resize(num_probs);
        return num_probs == 0 ||
               recvAll(reinterpret_cast<std::uint8_t *>(
                           out.policy.data()),
                       num_probs * sizeof(float));
    }
};

std::vector<std::uint8_t>
encodedRequest(const tensor::Tensor &obs, std::uint64_t tag,
               std::uint32_t deadline_us = 0)
{
    std::vector<std::uint8_t> frame;
    wire::encodeRequest(frame, tag, deadline_us, obs.data().data(),
                        obs.numel());
    return frame;
}

} // namespace

TEST(ServeEventLoop, RoundTripMatchesInProcessSubmit)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());
    ASSERT_NE(loop.port(), 0);

    const tensor::Tensor obs = f.observation(0.9f);
    const Response direct = server.submitAndWait(obs);
    ASSERT_EQ(direct.status, Status::Ok);

    // The wire answer must match the in-process one exactly.
    TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", loop.port()));
    Response wire_resp;
    ASSERT_TRUE(client.request(obs, 0, wire_resp));
    EXPECT_EQ(wire_resp.status, Status::Ok);
    EXPECT_EQ(wire_resp.action, direct.action);
    EXPECT_FLOAT_EQ(wire_resp.value, direct.value);
    EXPECT_EQ(wire_resp.modelVersion, direct.modelVersion);
    ASSERT_EQ(wire_resp.policy.size(), direct.policy.size());
    for (std::size_t a = 0; a < wire_resp.policy.size(); ++a)
        EXPECT_FLOAT_EQ(wire_resp.policy[a], direct.policy[a]);
    EXPECT_GT(wire_resp.totalUs, 0.0);

    client.close();
    loop.stop();
    EXPECT_EQ(loop.connectionsAccepted(), 1u);
    EXPECT_EQ(loop.requestsReceived(), 1u);
}

TEST(ServeEventLoop, FrameSplitAcrossManyReadsReassembles)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    // 3-byte chunks tear the header and the payload across dozens of
    // reads; the loop's accumulation buffer must reassemble them.
    const auto frame = encodedRequest(f.observation(0.8f), 42);
    ASSERT_TRUE(client.sendChunked(frame, 3));

    std::uint64_t tag = 0;
    Response resp;
    ASSERT_TRUE(client.readResponse(tag, resp));
    EXPECT_EQ(tag, 42u);
    EXPECT_EQ(resp.status, Status::Ok);
    loop.stop();
}

TEST(ServeEventLoop, PipelinedRequestsAnswerInOrder)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    // Fire a burst without reading anything back: one flat byte
    // stream of back-to-back frames.
    constexpr int kBurst = 32;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < kBurst; ++i) {
        const auto frame = encodedRequest(
            f.observation(0.5f + 0.01f * static_cast<float>(i)),
            static_cast<std::uint64_t>(i + 1));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(client.sendAll(stream.data(), stream.size()));

    // Responses must come back in request order even though the
    // batch scheduler completes them on worker threads.
    for (int i = 0; i < kBurst; ++i) {
        std::uint64_t tag = 0;
        Response resp;
        ASSERT_TRUE(client.readResponse(tag, resp));
        EXPECT_EQ(tag, static_cast<std::uint64_t>(i + 1));
        EXPECT_EQ(resp.status, Status::Ok);
    }
    loop.stop();
    EXPECT_EQ(loop.requestsReceived(),
              static_cast<std::uint64_t>(kBurst));
}

TEST(ServeEventLoop, HalfCloseStillReceivesOwedResponses)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 4; ++i) {
        const auto frame =
            encodedRequest(f.observation(0.6f),
                           static_cast<std::uint64_t>(100 + i));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(client.sendAll(stream.data(), stream.size()));

    // Peer half-closes its write side; the server owes 4 responses
    // and must deliver all of them before tearing the socket down.
    ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);
    for (int i = 0; i < 4; ++i) {
        std::uint64_t tag = 0;
        Response resp;
        ASSERT_TRUE(client.readResponse(tag, resp));
        EXPECT_EQ(tag, static_cast<std::uint64_t>(100 + i));
        EXPECT_EQ(resp.status, Status::Ok);
    }

    // Then the server retires the connection: clean EOF, not a hang.
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(client.fd, &byte, 1, 0), 0);
    loop.stop();
}

TEST(ServeEventLoop, SlowReaderDoesNotStallOtherClients)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    // A tiny write budget so the slow reader trips backpressure
    // after a handful of unread responses.
    EventLoopConfig cfg;
    cfg.writeBufferCap = 2048;
    EventLoopServer loop(server, cfg);
    ASSERT_TRUE(loop.start());

    RawClient slow;
    ASSERT_TRUE(slow.connect(loop.port()));

    // The slow reader pipelines a large burst and reads nothing; its
    // responses pile into the loop's write buffer until its read
    // side is parked.
    constexpr int kBurst = 200;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < kBurst; ++i) {
        const auto frame = encodedRequest(
            f.observation(0.4f), static_cast<std::uint64_t>(i + 1));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    std::thread feeder([&] {
        // May block once kernel buffers fill behind the parked read;
        // that is the point — only this client stalls.
        slow.sendAll(stream.data(), stream.size());
    });

    // Meanwhile a well-behaved client must keep round-tripping at
    // interactive latency.
    TcpClient brisk;
    ASSERT_TRUE(brisk.connect("127.0.0.1", loop.port()));
    const tensor::Tensor obs = f.observation(1.0f);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) {
        Response resp;
        ASSERT_TRUE(brisk.request(obs, 0, resp));
        EXPECT_EQ(resp.status, Status::Ok);
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, 5s) << "brisk client stalled behind the slow "
                              "reader";

    // The slow reader finally drains: every response arrives, in
    // order, once it starts reading (unparking the loop's read side).
    for (int i = 0; i < kBurst; ++i) {
        std::uint64_t tag = 0;
        Response resp;
        ASSERT_TRUE(slow.readResponse(tag, resp))
            << "response " << i << " never arrived";
        EXPECT_EQ(tag, static_cast<std::uint64_t>(i + 1));
        EXPECT_EQ(resp.status, Status::Ok);
    }
    feeder.join();
    loop.stop();
}

TEST(ServeEventLoop, WrongGeometryIsDrainedAndAnswered)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    // A wrong-size observation followed in the same stream by a good
    // request: the payload is drained, answered RejectedBadRequest,
    // and the connection keeps working — in order.
    tensor::Tensor bad(tensor::Shape({7}));
    std::vector<std::uint8_t> stream = encodedRequest(bad, 1);
    const auto good = encodedRequest(f.observation(0.9f), 2);
    stream.insert(stream.end(), good.begin(), good.end());
    // Chunked, so the drain state also crosses read boundaries.
    ASSERT_TRUE(client.sendChunked(stream, 11));

    std::uint64_t tag = 0;
    Response resp;
    ASSERT_TRUE(client.readResponse(tag, resp));
    EXPECT_EQ(tag, 1u);
    EXPECT_EQ(resp.status, Status::RejectedBadRequest);
    ASSERT_TRUE(client.readResponse(tag, resp));
    EXPECT_EQ(tag, 2u);
    EXPECT_EQ(resp.status, Status::Ok);
    loop.stop();
}

TEST(ServeEventLoop, WrongGeometryThenHalfCloseInSameBatch)
{
    // Regression: when a complete wrong-geometry frame and the peer's
    // FIN land in one read batch, the inline rejection flush retires
    // the connection from inside parseFrames — the loop must stop
    // touching the erased Conn instead of continuing to parse on it.
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    tensor::Tensor bad(tensor::Shape({7}));
    const auto frame = encodedRequest(bad, 9);
    ASSERT_TRUE(client.sendAll(frame.data(), frame.size()));
    ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);

    // The rejection is still owed and delivered, then a clean EOF.
    std::uint64_t tag = 0;
    Response resp;
    ASSERT_TRUE(client.readResponse(tag, resp));
    EXPECT_EQ(tag, 9u);
    EXPECT_EQ(resp.status, Status::RejectedBadRequest);
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(client.fd, &byte, 1, 0), 0);
    loop.stop();
}

TEST(ServeEventLoop, OversizeNumelClaimClosesConnection)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    RawClient client;
    ASSERT_TRUE(client.connect(loop.port()));

    // A header claiming ~16 GB of observation floats must not hold
    // the connection in a discard loop: protocol error, hard close.
    std::vector<std::uint8_t> header;
    wire::put<std::uint32_t>(header, wire::kRequestMagic);
    wire::put<std::uint64_t>(header, 1);
    wire::put<std::uint32_t>(header, 0);
    wire::put<std::uint32_t>(header, 0xFFFFFFFFu);
    header.resize(wire::kRequestHeaderBytes); // zeroed trace block
    ASSERT_TRUE(client.sendAll(header.data(), header.size()));

    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(client.fd, &byte, 1, 0), 0)
        << "oversize numel claim must close the connection";
    loop.stop();
}

TEST(ServeEventLoop, BadMagicClosesConnection)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    // A foreign magic, then full frames under the retired v1
    // (0xFA3C5E01) and v2 (0xFA3C5E11) request magics, whose 20-byte
    // headers lack the trace block: each must close the connection
    // rather than be misparsed as the current layout.
    std::vector<std::vector<std::uint8_t>> inputs;
    inputs.emplace_back(wire::kRequestHeaderBytes);
    inputs.back()[0] = 0xde;
    inputs.back()[1] = 0xad;
    const tensor::Tensor obs = f.observation(0.7f);
    const auto *obs_bytes =
        reinterpret_cast<const std::uint8_t *>(obs.data().data());
    for (const std::uint32_t magic : {0xFA3C5E01u, 0xFA3C5E11u}) {
        std::vector<std::uint8_t> &frame = inputs.emplace_back();
        wire::put<std::uint32_t>(frame, magic);
        wire::put<std::uint64_t>(frame, 7);
        wire::put<std::uint32_t>(frame, 0);
        wire::put<std::uint32_t>(
            frame, static_cast<std::uint32_t>(obs.numel()));
        frame.insert(frame.end(), obs_bytes,
                     obs_bytes + obs.numel() * sizeof(float));
    }

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        RawClient client;
        ASSERT_TRUE(client.connect(loop.port()));
        // The send may fail part-way once the server has closed.
        (void)client.sendAll(inputs[i].data(), inputs[i].size());
        EXPECT_TRUE(client.closedByPeer())
            << "input " << i << " must close the connection";
    }
    EXPECT_EQ(loop.requestsReceived(), 0u);
    loop.stop();
}

TEST(ServeEventLoop, FrontsAReplicaFleet)
{
    Fixture f;
    FleetConfig fleet;
    fleet.replicas = 2;
    fleet.policy = RoutePolicy::ConsistentHash;
    fleet.replica = f.config();
    ReplicaRouter router(f.net, fleet);
    router.publish(f.params);
    router.start();

    EventLoopServer loop(router, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    // Two connections, several requests each. Session affinity =
    // connection id, so each connection sticks to one replica.
    TcpClient a;
    TcpClient b;
    ASSERT_TRUE(a.connect("127.0.0.1", loop.port()));
    ASSERT_TRUE(b.connect("127.0.0.1", loop.port()));
    const tensor::Tensor obs = f.observation(0.9f);
    for (int i = 0; i < 10; ++i) {
        Response ra;
        Response rb;
        ASSERT_TRUE(a.request(obs, 0, ra));
        ASSERT_TRUE(b.request(obs, 0, rb));
        EXPECT_EQ(ra.status, Status::Ok);
        EXPECT_EQ(rb.status, Status::Ok);
        EXPECT_EQ(ra.modelVersion, router.modelVersion());
        EXPECT_EQ(rb.modelVersion, router.modelVersion());
    }
    EXPECT_EQ(router.routed(), 20u);
    loop.stop();
    router.stop();
}
