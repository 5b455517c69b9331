/** @file
 * End-to-end tests of the parameter-server core over real loopback
 * TCP: join/pull/push/heartbeat/stats/bye, layout-mismatch rejection
 * at Hello, the staleness bound in synchronous mode, lease expiry for
 * a silent worker, PS checkpoint/restore across a restart, one
 * accepted push per version in synchronous mode, the version label of
 * every theta the PS sends, the layout-derived frame limit, the
 * joining of ended connection threads, and the worker's
 * dist.update_norm sample.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/ps_client.hh"
#include "dist/ps_server.hh"
#include "dist/worker_runner.hh"
#include "net/frame.hh"
#include "nn/a3c_network.hh"
#include "obs/metrics.hh"
#include "rl/global_params.hh"
#include "sim/rng.hh"

using namespace fa3c;
using namespace fa3c::dist;
using namespace std::chrono_literals;

namespace {

nn::NetConfig
tinyNet()
{
    return nn::NetConfig::tiny(4);
}

wire::Hello
helloFor(const nn::A3cNetwork &net, const std::string &name)
{
    wire::Hello h;
    h.workerName = name;
    h.paramCount = net.makeParams().size();
    h.layoutCrc = wire::layoutCrc(net.makeParams().segments());
    return h;
}

struct TempFile
{
    explicit TempFile(const char *name)
        : path(std::string("/tmp/") + name)
    {
        std::remove(path.c_str());
    }
    ~TempFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

/** This process's virtual size in bytes (VmSize, /proc/self/status). */
std::int64_t
vmSizeBytes()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmSize:") {
            std::int64_t kb = 0;
            status >> kb;
            return kb * 1024;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return -1;
}

/** A plain TCP connection to the PS, for speaking raw frames. */
int
rawConnect(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                             sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** {count, sum} of the registry's dist/update_norm samples. */
std::pair<std::uint64_t, double>
updateNormSamples()
{
    std::pair<std::uint64_t, double> out{0, 0.0};
    obs::metrics().forEachGroup(
        [&](const std::string &name, const sim::StatGroup &group) {
            if (name != "dist")
                return;
            const auto it = group.distributions().find("update_norm");
            if (it != group.distributions().end())
                out = {it->second.count(), it->second.sum()};
        });
    return out;
}

/** FNV-1a over the IEEE bit patterns of @p words. */
std::uint64_t
hashWords(std::span<const float> words)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const float v : words) {
        const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Poll @p pred for up to @p budget. */
template <typename Pred>
bool
eventually(Pred pred, std::chrono::milliseconds budget = 5000ms)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return pred();
}

} // namespace

TEST(DistPs, HelloPullPushHeartbeatStatsBye)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());
    ASSERT_GT(ps.port(), 0);

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));

    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    EXPECT_NE(welcome.workerId, 0u);
    EXPECT_EQ(welcome.version, 0u);
    EXPECT_EQ(welcome.leaseTtlMs, cfg.leaseTtlMs);
    EXPECT_EQ(welcome.maxStaleness,
              std::numeric_limits<std::uint64_t>::max());

    const std::size_t count = net.makeParams().size();
    std::vector<float> theta(count);
    std::vector<float> pulled(count);
    wire::Params params;
    ASSERT_TRUE(client.pull(params, pulled));
    EXPECT_EQ(params.version, 0u);
    EXPECT_EQ(params.theta.size(), count);

    wire::Push push;
    push.workerId = welcome.workerId;
    push.baseVersion = params.version;
    push.steps = 20;
    push.wantParams = 1;
    const std::vector<float> grads(count, 0.5f);
    push.grads = grads;
    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, theta));
    EXPECT_EQ(ack.accepted, 1u);
    EXPECT_EQ(ack.version, 1u);
    EXPECT_EQ(ack.steps, 20u);
    EXPECT_EQ(ack.staleness, 0u);
    ASSERT_EQ(ack.theta.size(), count);

    // The update actually moved theta: g = 0.01*d^2 after one push,
    // so each word shifts by eta*d/sqrt(g+eps).
    bool moved = false;
    for (std::size_t i = 0; i < count; ++i)
        moved = moved || theta[i] != pulled[i];
    EXPECT_TRUE(moved);

    wire::HeartbeatAck hb;
    ASSERT_TRUE(client.heartbeat(welcome.workerId, hb));
    EXPECT_EQ(hb.known, 1u);
    EXPECT_EQ(hb.stop, 0u);

    wire::HeartbeatAck unknown;
    ASSERT_TRUE(client.heartbeat(welcome.workerId + 500, unknown));
    EXPECT_EQ(unknown.known, 0u);

    wire::StatsReply stats;
    ASSERT_TRUE(client.stats(stats));
    EXPECT_EQ(stats.version, 1u);
    EXPECT_EQ(stats.steps, 20u);
    EXPECT_EQ(stats.activeLeases, 1u);
    EXPECT_EQ(stats.joined, 1u);
    EXPECT_EQ(stats.pushes, 1u);
    EXPECT_EQ(stats.pushRejects, 0u);

    client.bye(welcome.workerId);
    EXPECT_TRUE(eventually([&] { return ps.leases().active() == 0; }));
    EXPECT_EQ(ps.leases().reaped(), 0u); // a Bye is not a reap
    ps.stop();
}

TEST(DistPs, LayoutMismatchRejectedAtHello)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Hello bad = helloFor(net, "mismatched");
    bad.layoutCrc ^= 0xFFFFFFFF;
    wire::Welcome welcome;
    EXPECT_FALSE(client.hello(bad, welcome));
    EXPECT_EQ(ps.leases().active(), 0u);

    // Wrong parameter count is refused the same way.
    PsClient client2;
    ASSERT_TRUE(client2.connect("127.0.0.1", ps.port()));
    wire::Hello short_count = helloFor(net, "short");
    short_count.paramCount -= 1;
    EXPECT_FALSE(client2.hello(short_count, welcome));
    EXPECT_EQ(ps.leases().active(), 0u);
    ps.stop();
}

TEST(DistPs, SyncModeRejectsStalePushes)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.maxStaleness = 0; // fully synchronous
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));

    const std::size_t count = net.makeParams().size();
    std::vector<float> theta(count);
    wire::Push push;
    push.workerId = welcome.workerId;
    push.baseVersion = 0;
    push.steps = 10;
    const std::vector<float> grads(count, 1.0f);
    push.grads = grads;

    wire::PushAck first;
    ASSERT_TRUE(client.push(push, first, theta));
    EXPECT_EQ(first.accepted, 1u);
    EXPECT_EQ(first.version, 1u);

    // Same baseVersion again: one update behind, over the bound.
    wire::PushAck second;
    ASSERT_TRUE(client.push(push, second, theta));
    EXPECT_EQ(second.accepted, 0u);
    EXPECT_EQ(second.staleness, 1u);
    EXPECT_EQ(second.version, 1u); // gradients were discarded

    // Rebasing on the current version is accepted again.
    push.baseVersion = second.version;
    wire::PushAck third;
    ASSERT_TRUE(client.push(push, third, theta));
    EXPECT_EQ(third.accepted, 1u);
    EXPECT_EQ(third.version, 2u);

    const wire::StatsReply stats = ps.stats();
    EXPECT_EQ(stats.pushes, 2u);
    EXPECT_EQ(stats.pushRejects, 1u);
    ps.stop();
}

TEST(DistPs, SyncModeAcceptsOnePushPerVersion)
{
    // Two workers race in synchronous mode, each rebasing on the
    // version of its last ack. A push is accepted only if no other
    // push landed since its base, so every accepted ack must report
    // exactly base + 1: the staleness check and the apply happen as
    // one step on the PS.
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.maxStaleness = 0;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    constexpr int kClients = 2;
    constexpr int kPushesPerClient = 4000;
    const std::size_t count = net.makeParams().size();
    const std::vector<float> grads(count, 0.01f);
    std::atomic<int> accepted{0};
    std::atomic<int> skipped_versions{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            PsClient client;
            wire::Welcome welcome;
            if (!client.connect("127.0.0.1", ps.port()) ||
                !client.hello(helloFor(net, c == 0 ? "w0" : "w1"),
                              welcome)) {
                failures.fetch_add(1);
                return;
            }
            std::vector<float> theta(count);
            wire::Push push;
            push.workerId = welcome.workerId;
            push.baseVersion = welcome.version;
            push.steps = 1;
            push.wantParams = 0;
            push.grads = grads;
            for (int i = 0; i < kPushesPerClient; ++i) {
                wire::PushAck ack;
                if (!client.push(push, ack, theta)) {
                    failures.fetch_add(1);
                    return;
                }
                if (ack.accepted != 0) {
                    accepted.fetch_add(1);
                    if (ack.version != push.baseVersion + 1)
                        skipped_versions.fetch_add(1);
                }
                push.baseVersion = ack.version;
            }
        });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(accepted.load(), 0);
    EXPECT_EQ(skipped_versions.load(), 0)
        << "of " << accepted.load() << " accepted pushes";
    EXPECT_EQ(ps.stats().pushes, static_cast<std::uint64_t>(accepted));
    EXPECT_EQ(ps.params().version(),
              static_cast<std::uint64_t>(accepted));
    ps.stop();
}

TEST(DistPs, EveryThetaTheServerSendsCarriesItsVersion)
{
    // Two async workers push the same uniform gradient, so theta
    // after k accepted pushes does not depend on who pushed them. A
    // local GlobalParams replays k pushes for every k; each ack's
    // theta must equal the replay at the version the ack names.
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.seed = 23;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    constexpr int kClients = 2;
    constexpr int kPushesPerClient = 1000;
    constexpr int kTotal = kClients * kPushesPerClient;
    nn::ParamSet grads = net.makeParams();
    for (float &g : grads.flat())
        g = 0.25f;

    std::vector<std::uint64_t> replay(kTotal + 1);
    {
        rl::GlobalParams local(net, cfg.rmsprop, cfg.initialLr,
                               cfg.annealSteps);
        sim::Rng rng(cfg.seed);
        local.initialize(rng);
        for (int k = 0; k <= kTotal; ++k) {
            replay[static_cast<std::size_t>(k)] =
                hashWords(local.theta().flat());
            local.applyGradients(grads, 1);
        }
    }

    const std::size_t count = grads.size();
    std::atomic<int> mislabeled{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            PsClient client;
            wire::Welcome welcome;
            if (!client.connect("127.0.0.1", ps.port()) ||
                !client.hello(helloFor(net, c == 0 ? "w0" : "w1"),
                              welcome)) {
                failures.fetch_add(1);
                return;
            }
            std::vector<float> theta(count);
            wire::Push push;
            push.workerId = welcome.workerId;
            push.steps = 1;
            push.wantParams = 1;
            push.grads = grads.flat();
            for (int i = 0; i < kPushesPerClient; ++i) {
                wire::PushAck ack;
                if (!client.push(push, ack, theta) ||
                    ack.accepted == 0 || ack.version > kTotal ||
                    ack.theta.size() != count) {
                    failures.fetch_add(1);
                    return;
                }
                if (hashWords(ack.theta) != replay[ack.version])
                    mislabeled.fetch_add(1);
                push.baseVersion = ack.version;
            }
        });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mislabeled.load(), 0) << "of " << kTotal << " acks";
    EXPECT_EQ(ps.params().version(), static_cast<std::uint64_t>(kTotal));

    // A Pull names the version of the theta it carries too.
    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    std::vector<float> pulled(count);
    wire::Params params;
    ASSERT_TRUE(client.pull(params, pulled));
    ASSERT_EQ(params.version, static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(hashWords(pulled), replay[kTotal]);
    ps.stop();
}

TEST(DistPs, PushFromReapedLeaseCarriesSentinelStaleness)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    ASSERT_TRUE(ps.leases().reap(welcome.workerId));

    const std::size_t count = net.makeParams().size();
    std::vector<float> theta(count);
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 10;
    const std::vector<float> grads(count, 1.0f);
    push.grads = grads;
    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, theta));
    EXPECT_EQ(ack.accepted, 0u);
    // The sentinel tells the worker "your lease is gone, re-Hello"
    // as opposed to "you were too stale, rebase".
    EXPECT_EQ(ack.staleness, std::numeric_limits<std::uint64_t>::max());

    // Re-Hello on the same connection gets a fresh lease and works.
    wire::Welcome second;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), second));
    EXPECT_NE(second.workerId, welcome.workerId);
    push.workerId = second.workerId;
    push.baseVersion = second.version;
    ASSERT_TRUE(client.push(push, ack, theta));
    EXPECT_EQ(ack.accepted, 1u);
    EXPECT_EQ(ps.leases().joined(), 2u);
    ps.stop();
}

TEST(DistPs, SilentWorkerReapedAfterTtl)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.leaseTtlMs = 100;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "quiet"), welcome));
    ASSERT_EQ(ps.leases().active(), 1u);

    // Keep the connection open but never renew: the housekeeper must
    // reap within a TTL or two.
    EXPECT_TRUE(eventually([&] { return ps.leases().reaped() == 1; }));
    EXPECT_EQ(ps.leases().active(), 0u);

    wire::HeartbeatAck hb;
    ASSERT_TRUE(client.heartbeat(welcome.workerId, hb));
    EXPECT_EQ(hb.known, 0u);
    ps.stop();
}

TEST(DistPs, StopAfterTotalStepsAcksStop)
{
    const nn::A3cNetwork net(tinyNet());
    PsServerConfig cfg;
    cfg.totalSteps = 30;
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());

    PsClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
    EXPECT_EQ(welcome.totalSteps, 30u);

    const std::size_t count = net.makeParams().size();
    std::vector<float> theta(count);
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 20;
    push.wantParams = 0;
    const std::vector<float> grads(count, 0.25f);
    push.grads = grads;

    wire::PushAck ack;
    ASSERT_TRUE(client.push(push, ack, theta));
    EXPECT_EQ(ack.stop, 0u);
    EXPECT_FALSE(ps.done());

    push.baseVersion = ack.version;
    ASSERT_TRUE(client.push(push, ack, theta)); // crosses 30
    EXPECT_EQ(ack.stop, 1u);
    EXPECT_TRUE(ps.waitDone(5000));
    EXPECT_TRUE(ps.done());
    ps.stop();
}

TEST(DistPs, CheckpointRestoreAcrossRestartPreservesEverything)
{
    const nn::A3cNetwork net(tinyNet());
    TempFile file("fa3c_test_dist_ps_ckpt.bin");
    const std::size_t count = net.makeParams().size();
    std::vector<float> theta(count);

    std::vector<float> theta_before;
    std::uint64_t version_before = 0;
    std::uint64_t steps_before = 0;
    {
        PsServerConfig cfg;
        cfg.checkpointPath = file.path;
        cfg.seed = 17;
        PsServer ps(net, cfg);
        ASSERT_TRUE(ps.start());

        PsClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
        wire::Welcome welcome;
        ASSERT_TRUE(client.hello(helloFor(net, "w0"), welcome));
        wire::Push push;
        push.workerId = welcome.workerId;
        push.steps = 10;
        const std::vector<float> grads(count, 0.5f);
        push.grads = grads;
        wire::PushAck ack;
        for (int i = 0; i < 3; ++i) {
            push.baseVersion = ack.version;
            ASSERT_TRUE(client.push(push, ack, theta));
            ASSERT_EQ(ack.accepted, 1u);
        }
        ps.params().snapshot(theta_before);
        version_before = ps.params().version();
        steps_before = ps.params().globalSteps();
        ps.stop(); // writes the final checkpoint
    }
    ASSERT_TRUE(std::ifstream(file.path).good());

    // A fresh PS process restores the durable image: same theta, and
    // the version counter resumes where it left off rather than
    // restarting from zero (staleness accounting must stay honest
    // across a PS restart).
    PsServerConfig cfg;
    cfg.checkpointPath = file.path;
    cfg.seed = 9999; // must be ignored: state comes from the image
    PsServer ps(net, cfg);
    ASSERT_TRUE(ps.start());
    EXPECT_EQ(ps.params().version(), version_before);
    EXPECT_EQ(ps.params().globalSteps(), steps_before);
    std::vector<float> theta_after;
    ps.params().snapshot(theta_after);
    EXPECT_EQ(theta_after, theta_before);
    ps.stop();
}

TEST(DistPs, CorruptCheckpointRefusesToStart)
{
    const nn::A3cNetwork net(tinyNet());
    TempFile file("fa3c_test_dist_ps_corrupt.bin");
    {
        PsServerConfig cfg;
        cfg.checkpointPath = file.path;
        PsServer ps(net, cfg);
        ASSERT_TRUE(ps.start());
        ps.stop();
    }

    // Flip one payload byte; the PS must refuse to run on a corrupt
    // image instead of silently reinitializing (which would erase
    // training progress behind the operator's back).
    {
        std::fstream f(file.path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(40);
        char byte = 0;
        f.seekg(40);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(40);
        f.write(&byte, 1);
    }
    PsServerConfig cfg;
    cfg.checkpointPath = file.path;
    PsServer ps(net, cfg);
    EXPECT_FALSE(ps.start());
}

TEST(DistPs, FrameOverTheLayoutLimitClosesOnlyThatConnection)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());
    const std::size_t count = net.makeParams().size();

    PsClient worker;
    ASSERT_TRUE(worker.connect("127.0.0.1", ps.port()));
    wire::Welcome welcome;
    ASSERT_TRUE(worker.hello(helloFor(net, "w0"), welcome));

    // A bare header claiming one byte more than a full Push of this
    // layout. The PS must refuse it from the header alone, not size a
    // buffer for it and wait for a payload that never comes.
    const int fd = rawConnect(ps.port());
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 5;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    std::vector<std::uint8_t> header;
    net::encodeFrameHeader(
        header, {wire::kMagic, static_cast<std::uint32_t>(wire::Type::Push),
                 wire::maxRequestBytes(count) + 1});
    ASSERT_TRUE(net::writeFull(fd, header.data(), header.size()));

    // The worker's own connection keeps pushing meanwhile.
    std::vector<float> theta(count);
    const std::vector<float> grads(count, 0.5f);
    wire::Push push;
    push.workerId = welcome.workerId;
    push.steps = 5;
    push.wantParams = 1;
    push.grads = grads;
    wire::PushAck ack;
    ASSERT_TRUE(worker.push(push, ack, theta));
    EXPECT_EQ(ack.accepted, 1u);

    const auto t0 = std::chrono::steady_clock::now();
    char byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    const int err = errno;
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_TRUE(n == 0 || (n < 0 && err == ECONNRESET))
        << "recv returned " << n << " (errno " << err << ")";
    EXPECT_LT(waited, 2s);
    ::close(fd);

    ASSERT_TRUE(worker.push(push, ack, theta));
    EXPECT_EQ(ps.stats().pushes, 2u);
    ps.stop();
}

TEST(DistPs, EndedConnectionThreadsAreJoined)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());

    // Every connection runs on its own thread with its own stack; one
    // left unjoined after its peer hung up keeps that stack mapped.
    // glibc also reserves 64 MB of address space for each new malloc
    // arena, and how many it makes depends on how many connection
    // threads happen to overlap. Capping the arenas keeps that out of
    // the measurement (a sanitizer's allocator ignores the cap and has
    // no such arenas), and the first connections, not measured,
    // settle the stack cache.
    (void)::mallopt(M_ARENA_MAX, 1);
    const auto one_shot_stats = [&](int n) {
        for (int i = 0; i < n; ++i) {
            PsClient client;
            ASSERT_TRUE(client.connect("127.0.0.1", ps.port()));
            wire::StatsReply stats;
            ASSERT_TRUE(client.stats(stats));
        }
    };
    one_shot_stats(16);
    const std::int64_t before = vmSizeBytes();
    ASSERT_GT(before, 0);
    one_shot_stats(64);
    const std::int64_t grown = vmSizeBytes() - before;
    EXPECT_LT(grown, 128ll << 20) << "VmSize grew by " << (grown >> 20)
                                  << " MB over 64 connections";
    ps.stop();
}

TEST(DistPs, ApplyGradientsSamplesTheNormOfTheCacheUpdate)
{
    const nn::A3cNetwork net(tinyNet());
    PsServer ps(net, {});
    ASSERT_TRUE(ps.start());
    RemoteParams remote(net, "127.0.0.1", ps.port(), "w0");
    ASSERT_TRUE(remote.join());

    nn::ParamSet before = net.makeParams();
    nn::ParamSet after = net.makeParams();
    nn::ParamSet grads = net.makeParams();
    sim::Rng rng(5);
    for (float &g : grads.flat())
        g = rng.uniformF() - 0.5f;
    remote.snapshot(before);

    // The ack's theta is decoded in place over the cache; the sample
    // must still measure the step from the old cache to the new one.
    auto &m = obs::metrics();
    const bool was_enabled = m.enabled();
    m.setEnabled(true);
    const auto [count0, sum0] = updateNormSamples();
    remote.applyGradients(grads, 5);
    const auto [count1, sum1] = updateNormSamples();
    m.setEnabled(was_enabled);
    remote.snapshot(after);

    double sumsq = 0.0;
    const auto b = before.flat();
    const auto a = after.flat();
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d =
            static_cast<double>(a[i]) - static_cast<double>(b[i]);
        sumsq += d * d;
    }
    const double expected = std::sqrt(sumsq);
    EXPECT_GT(expected, 0.0);
    EXPECT_EQ(remote.version(), 1u);
    ASSERT_EQ(count1, count0 + 1);
    EXPECT_NEAR(sum1 - sum0, expected, 1e-9 * expected);
    remote.leave();
    ps.stop();
}
