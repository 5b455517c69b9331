/** @file
 * TcpClient against the epoll front-end: rejected requests that keep
 * the connection, concurrent connections batched server-side, trace
 * context carried across the wire, and a client that closes its
 * socket once a response breaks framing.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hh"
#include "obs/export_guard.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "serve/event_loop.hh"
#include "serve/tcp.hh"
#include "serve/wire.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

// Enable the process-global TraceWriter before gtest runs anything:
// the propagation test below needs spans to actually land in a file,
// and obs::trace() latches its decision on first use. Static init
// beats any test, so this must run at namespace scope. overwrite=0
// keeps an externally supplied FA3C_TRACE.
const bool g_traceEnv = [] {
    ::setenv("FA3C_TRACE", "test_serve_tcp_trace.%p.json", 0);
    return true;
}();

std::string
readTraceFile()
{
    const char *raw = std::getenv("FA3C_TRACE");
    std::ifstream in(obs::expandPathTokens(raw ? raw : ""));
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

/** True when some span event named @p name in the trace @p body
 * carries every arg in @p args. Events are flat objects whose args
 * block closes them, so an event's text runs from its name to the
 * first "}}". */
bool
spanWithArgs(const std::string &body, const std::string &name,
             const std::vector<std::string> &args)
{
    const std::string key = "\"name\":\"" + name + '"';
    for (std::size_t pos = body.find(key); pos != std::string::npos;
         pos = body.find(key, pos + 1)) {
        const std::string event =
            body.substr(pos, body.find("}}", pos) - pos);
        bool all = true;
        for (const std::string &arg : args)
            all = all && event.find(arg) != std::string::npos;
        if (all)
            return true;
    }
    return false;
}

/** One id arg as emitSpan writes it; the ',' ends the number, since
 * the ids precede each span's own args. */
std::string
idArg(const char *key, std::uint64_t id)
{
    return std::string("\"") + key +
           "\":" + obs::jsonNumber(static_cast<double>(id)) + ',';
}

struct Fixture
{
    nn::NetConfig netCfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net{netCfg};
    nn::ParamSet params = net.makeParams();

    Fixture()
    {
        sim::Rng rng(29);
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

} // namespace

TEST(ServeTcp, WrongObservationSizeIsAnsweredNotDropped)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", loop.port()));
    tensor::Tensor bad(tensor::Shape({7}));
    Response wire;
    ASSERT_TRUE(client.request(bad, 0, wire));
    EXPECT_EQ(wire.status, Status::RejectedBadRequest);

    // The connection survives a rejected request.
    Response good;
    ASSERT_TRUE(client.request(f.observation(1.0f), 0, good));
    EXPECT_EQ(good.status, Status::Ok);

    loop.stop();
}

TEST(ServeTcp, ManyConnectionsBatchServerSide)
{
    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    constexpr int kClients = 6;
    constexpr int kRequests = 25;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&f, &loop, &ok, c] {
            // Failures surface as a final ok-count mismatch (gtest
            // ASSERTs only abort the calling function off-thread).
            TcpClient client;
            if (!client.connect("127.0.0.1", loop.port()))
                return;
            const tensor::Tensor obs =
                f.observation(0.5f + 0.1f * static_cast<float>(c));
            for (int i = 0; i < kRequests; ++i) {
                Response r;
                if (client.request(obs, 0, r) &&
                    r.status == Status::Ok)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients * kRequests);
    EXPECT_EQ(loop.connectionsAccepted(),
              static_cast<std::uint64_t>(kClients));
    loop.stop();

    const sim::StatGroup stats = server.statsSnapshot();
    EXPECT_EQ(stats.counterValue("served"),
              static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(ServeTcp, PropagatesTraceContextAcrossTheWire)
{
    ASSERT_NE(obs::trace(), nullptr)
        << "static init should have enabled FA3C_TRACE";

    Fixture f;
    PolicyServer server(f.net, f.config());
    server.publish(f.params);
    server.start();

    EventLoopServer loop(server, EventLoopConfig{});
    ASSERT_TRUE(loop.start());

    TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", loop.port()));
    Response r;
    ASSERT_TRUE(client.request(f.observation(0.7f), 0, r));
    EXPECT_EQ(r.status, Status::Ok);

    // The client minted a sampled root context and sent it in the
    // request's trace block...
    const obs::SpanContext span = client.lastSpan();
    EXPECT_NE(span.trace, 0u);
    EXPECT_TRUE(span.sampled);

    client.close();
    loop.stop(); // the front emits its span before it answers
    obs::trace()->flush();

    // ...so the client span ("client.request") and the front-end span
    // ("frontend.request") share its trace id, and the front-end span
    // is the client span's child. Both sides format ids through
    // jsonNumber, so an exact substring match is well defined.
    const std::string body = readTraceFile();
    EXPECT_TRUE(spanWithArgs(body, "client.request",
                             {idArg("trace_id", span.trace),
                              idArg("span_id", span.span)}))
        << "client span for trace " << span.trace << " not found";
    EXPECT_TRUE(spanWithArgs(body, "frontend.request",
                             {idArg("trace_id", span.trace),
                              idArg("parent_id", span.span)}))
        << "front-end span for trace " << span.trace
        << " not found under the client span";
}

TEST(ServeTcp, ForeignResponseMagicClosesTheClient)
{
    // A raw listener answers one request with a complete response
    // frame under the retired v2 response magic (0xFA3C5E12).
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);
    ASSERT_EQ(::getsockname(listen_fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            &addr_len),
              0);

    // Connected through the listen backlog before the peer thread
    // exists, so no failed ASSERT can leave that thread unjoined.
    TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ntohs(addr.sin_port)));

    const tensor::Tensor obs(tensor::Shape({4}));
    std::thread peer([listen_fd, &obs] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::vector<std::uint8_t> request(wire::kRequestHeaderBytes +
                                          obs.numel() * sizeof(float));
        std::vector<std::uint8_t> reply;
        Response resp;
        resp.status = Status::Ok;
        wire::encodeResponse(reply, 1, resp);
        const std::uint32_t retired = 0xFA3C5E12;
        std::memcpy(reply.data(), &retired, sizeof(retired));
        if (net::readFull(fd, request.data(), request.size()))
            (void)net::writeFull(fd, reply.data(), reply.size());
        // Hold the stream open until the client hangs up, so its
        // failure comes from the magic, not from an EOF.
        std::uint8_t byte = 0;
        while (::recv(fd, &byte, 1, 0) > 0) {
        }
        ::close(fd);
    });

    Response r;
    EXPECT_FALSE(client.request(obs, 0, r));
    // The frame boundary is lost, so the stream must not be reused.
    EXPECT_FALSE(client.connected());

    client.close();
    peer.join();
    ::close(listen_fd);
}
