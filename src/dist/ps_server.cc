#include "dist/ps_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "net/frame.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/prometheus.hh"
#include "rl/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace fa3c::dist {

namespace {

using Clock = std::chrono::steady_clock;

/** Algorithm tag of the PS's durable checkpoint image. */
constexpr const char *kPsAlgorithm = "dist-ps";

bool
sendMsg(int fd, wire::Type type, const std::string &payload)
{
    return net::sendFrame(fd, wire::kMagic,
                          static_cast<std::uint32_t>(type),
                          payload.data(), payload.size());
}

bool
sendMsg(int fd, wire::Type type, const wire::Gather &payload)
{
    return net::sendFrame(fd, wire::kMagic,
                          static_cast<std::uint32_t>(type),
                          payload.parts());
}

} // namespace

PsServer::PsServer(const nn::A3cNetwork &net,
                   const PsServerConfig &cfg)
    : net_(net), cfg_(cfg),
      params_(net, cfg.rmsprop, cfg.initialLr, cfg.annealSteps),
      leases_(std::chrono::milliseconds(
          cfg.leaseTtlMs > 0 ? cfg.leaseTtlMs : 1)),
      layoutCrc_(wire::layoutCrc(params_.layout()))
{
}

PsServer::~PsServer()
{
    stop();
}

bool
PsServer::restoreOrInitialize()
{
    if (!cfg_.checkpointPath.empty() &&
        std::filesystem::exists(cfg_.checkpointPath)) {
        rl::TrainingCheckpoint ckpt;
        ckpt.theta = net_.makeParams();
        ckpt.rmspropG = net_.makeParams();
        if (!rl::loadCheckpointFromFile(ckpt, cfg_.checkpointPath)) {
            FA3C_WARN("dist: ps checkpoint '", cfg_.checkpointPath,
                      "' failed to load; refusing to start");
            return false;
        }
        if (ckpt.algorithm != kPsAlgorithm) {
            FA3C_WARN("dist: ps checkpoint '", cfg_.checkpointPath,
                      "' was written by '", ckpt.algorithm,
                      "', not '", kPsAlgorithm,
                      "'; refusing to start");
            return false;
        }
        params_.restore(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                        ckpt.updates);
        lastCheckpointSteps_ = ckpt.globalSteps;
        FA3C_INFORM("dist: ps resumed from '", cfg_.checkpointPath,
                    "' at version ", ckpt.updates, ", step ",
                    ckpt.globalSteps);
    } else {
        sim::Rng rng(cfg_.seed);
        params_.initialize(rng);
    }
    return true;
}

bool
PsServer::start()
{
    if (listenFd_ >= 0)
        return true;
    if (!restoreOrInitialize())
        return false;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        FA3C_WARN("dist: socket() failed: ", std::strerror(errno));
        return false;
    }
    int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
    if (::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        FA3C_WARN("dist: bad bind address '", cfg_.bindAddress, "'");
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, cfg_.backlog) != 0) {
        FA3C_WARN("dist: bind/listen on ", cfg_.bindAddress, ":",
                  cfg_.port, " failed: ", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);

    telemetry_ = obs::TelemetryRegistration(
        obs::telemetry(),
        [this](obs::PromWriter &w) {
            w.gauge("fa3c_dist_ps_version",
                    static_cast<double>(params_.version()),
                    "PS parameter version (accepted pushes)");
            w.gauge("fa3c_dist_ps_steps",
                    static_cast<double>(params_.globalSteps()),
                    "Global env steps consumed");
            w.gauge("fa3c_dist_active_leases",
                    static_cast<double>(leases_.active()),
                    "Workers holding a live lease");
            w.counter("fa3c_dist_pushes_total",
                      pushes_.load(std::memory_order_relaxed),
                      "Accepted gradient pushes");
            w.counter("fa3c_dist_push_rejects_total",
                      pushRejects_.load(std::memory_order_relaxed),
                      "Rejected gradient pushes");
            w.counter("fa3c_dist_lease_reaps_total", leases_.reaped(),
                      "Leases reaped (timeout or dead connection)");
        },
        "dist-ps", [](std::string &detail) {
            detail = "parameter server listening";
            return true;
        });

    acceptThread_ = std::thread([this] { acceptMain(); });
    housekeeper_ = std::thread([this] { housekeeperMain(); });
    FA3C_INFORM("dist: ps listening on ", cfg_.bindAddress, ":",
                port_, " (", params_.paramCount(),
                " params, lease ttl ", cfg_.leaseTtlMs, " ms)");
    return true;
}

void
PsServer::stop()
{
    if (stopping_.exchange(true))
        return;
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        doneCv_.notify_all();
    }
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    std::map<std::uint64_t, std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
        threads.swap(connThreads_);
        endedConns_.clear();
    }
    for (auto &[id, t] : threads)
        t.join();
    if (housekeeper_.joinable())
        housekeeper_.join();
    // All appliers are gone; this image is the run's final word.
    if (!cfg_.checkpointPath.empty() &&
        !finalCheckpointWritten_.exchange(true))
        writeCheckpoint();
    telemetry_.reset();
}

bool
PsServer::waitDone(long timeout_ms)
{
    std::unique_lock<std::mutex> lock(doneMutex_);
    const auto pred = [this] {
        return done_.load(std::memory_order_acquire) ||
               stopping_.load(std::memory_order_acquire);
    };
    if (timeout_ms < 0)
        doneCv_.wait(lock, pred);
    else
        doneCv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                         pred);
    return done_.load(std::memory_order_acquire);
}

wire::StatsReply
PsServer::stats() const
{
    wire::StatsReply s;
    s.version = params_.version();
    s.steps = params_.globalSteps();
    s.totalSteps = cfg_.totalSteps;
    s.activeLeases = static_cast<std::uint32_t>(leases_.active());
    s.joined = leases_.joined();
    s.reaped = leases_.reaped();
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pushRejects = pushRejects_.load(std::memory_order_relaxed);
    return s;
}

void
PsServer::markDone()
{
    if (done_.exchange(true, std::memory_order_acq_rel))
        return;
    FA3C_INFORM("dist: reached totalSteps=", cfg_.totalSteps,
                " at version ", params_.version(),
                "; telling workers to stop");
    std::lock_guard<std::mutex> lock(doneMutex_);
    doneCv_.notify_all();
}

bool
PsServer::writeCheckpoint()
{
    if (cfg_.checkpointPath.empty())
        return true;
    rl::TrainingCheckpoint ckpt;
    ckpt.algorithm = kPsAlgorithm;
    ckpt.theta = net_.makeParams();
    ckpt.rmspropG = net_.makeParams();
    params_.checkpoint(ckpt.theta, ckpt.rmspropG, ckpt.globalSteps,
                       ckpt.updates);
    if (!rl::saveCheckpointToFile(ckpt, cfg_.checkpointPath)) {
        FA3C_WARN("dist: ps checkpoint write to '",
                  cfg_.checkpointPath, "' failed");
        return false;
    }
    lastCheckpointSteps_ = ckpt.globalSteps;
    FA3C_INFORM("dist: ps checkpoint at version ", ckpt.updates,
                ", step ", ckpt.globalSteps, " -> ", cfg_.checkpointPath);
    return true;
}

void
PsServer::acceptMain()
{
    const int listen_fd = listenFd_;
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down (stop) or fatal error
        }
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        net::setNoDelay(fd);
        // Reap the threads of connections that have ended since the
        // last accept: each holds a stack until it is joined.
        std::vector<std::thread> ended;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            for (std::uint64_t id : endedConns_) {
                auto it = connThreads_.find(id);
                ended.push_back(std::move(it->second));
                connThreads_.erase(it);
            }
            endedConns_.clear();
            const std::uint64_t id = nextConnId_++;
            connFds_.push_back(fd);
            connThreads_.emplace(
                id, std::thread([this, fd, id] { connectionMain(fd, id); }));
        }
        for (auto &t : ended)
            t.join();
    }
}

void
PsServer::handleHello(int fd, const std::string &payload,
                      std::uint64_t &owned_lease, bool &proto_ok)
{
    wire::Hello hello;
    if (!wire::decodeHello(hello, payload)) {
        proto_ok = false;
        return;
    }
    wire::Welcome welcome;
    welcome.leaseTtlMs = cfg_.leaseTtlMs;
    welcome.version = params_.version();
    welcome.steps = params_.globalSteps();
    welcome.totalSteps = cfg_.totalSteps;
    welcome.maxStaleness = cfg_.maxStaleness;
    // Wall-clock stamp for the worker's handshake clock-offset
    // estimate (trace_merge aligns per-process traces with it).
    welcome.serverUnixUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    if (hello.paramCount == params_.paramCount() &&
        hello.layoutCrc == layoutCrc_) {
        // A re-Hello on the same connection replaces any lease it
        // still holds (a worker resyncing after it was reaped).
        if (owned_lease != 0)
            leases_.leave(owned_lease);
        welcome.workerId = leases_.join(hello.workerName);
        owned_lease = welcome.workerId;
        obs::metrics().count("dist", "lease_joins");
        FA3C_INFORM("dist: worker '", hello.workerName,
                    "' joined as #", welcome.workerId, " at version ",
                    welcome.version);
    } else {
        FA3C_WARN("dist: rejecting worker '", hello.workerName,
                  "': layout mismatch (count ", hello.paramCount,
                  " vs ", params_.paramCount(), ", crc ",
                  hello.layoutCrc, " vs ", layoutCrc_, ")");
    }
    std::string out;
    wire::encodeWelcome(out, welcome);
    proto_ok = sendMsg(fd, wire::Type::Welcome, out) &&
               welcome.workerId != 0;
}

void
PsServer::handlePull(int fd, ConnBuffers &buf, bool &proto_ok)
{
    wire::Pull pull;
    if (!wire::decodePull(pull, buf.payload)) {
        proto_ok = false;
        return;
    }
    const auto span = obs::remoteChildSpan(
        pull.trace.traceId, pull.trace.spanId, pull.trace.sampled != 0);
    const auto t0 = Clock::now();
    wire::Params reply;
    reply.version = params_.snapshot(buf.theta);
    reply.theta = buf.theta;
    reply.steps = params_.globalSteps();
    reply.stop = done() ? 1 : 0;
    obs::metrics().count("dist", "pulls");
    if (span.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"version", static_cast<double>(reply.version)}}};
        obs::emitSpan(span, "dist.ps", "ps.pull", t0, Clock::now(),
                      args);
    }
    wire::Gather out;
    wire::encodeParams(out, reply);
    proto_ok = sendMsg(fd, wire::Type::Params, out);
}

void
PsServer::handlePush(int fd, ConnBuffers &buf, bool &proto_ok)
{
    buf.grads.resize(params_.paramCount());
    wire::Push push;
    if (!wire::decodePush(push, buf.payload, buf.grads)) {
        proto_ok = false;
        return;
    }
    auto &m = obs::metrics();
    const bool known = leases_.renew(push.workerId);
    // The worker's push span context rides on the frame: the RMSProp
    // apply below is emitted as its child, so one trace_id covers
    // worker rollout -> wire -> PS apply across processes.
    const auto span = obs::remoteChildSpan(
        push.trace.traceId, push.trace.spanId, push.trace.sampled != 0);
    // A push from an unknown lease or after the run ended is refused
    // (empty gradients), but still measured and answered with theta.
    const auto t0 = Clock::now();
    const rl::GlobalParams::PushResult res = params_.applyPush(
        known && !done() ? push.grads : std::span<const float>{},
        push.steps, push.baseVersion, cfg_.maxStaleness,
        push.wantParams ? &buf.theta : nullptr);
    const auto t1 = Clock::now();

    wire::PushAck ack;
    ack.accepted = res.applied ? 1 : 0;
    ack.version = res.version;
    ack.steps = res.steps;
    // An unknown lease gets the sentinel staleness so the worker can
    // tell "re-Hello" apart from "too stale, just resync".
    ack.staleness = known ? res.staleness
                          : std::numeric_limits<std::uint64_t>::max();
    if (push.wantParams)
        ack.theta = buf.theta;
    if (res.applied) {
        if (span.sampled) {
            const std::array<obs::TraceArg, 2> args{
                {{"staleness", static_cast<double>(res.staleness)},
                 {"steps", static_cast<double>(push.steps)}}};
            obs::emitSpan(span, "dist.ps", "ps.apply", t0, t1, args);
        }
        if (m.enabled()) {
            m.count("dist", "pushes");
            m.sample("dist", "push_staleness",
                     static_cast<double>(res.staleness));
            m.sample("dist", "apply_us",
                     std::chrono::duration<double, std::micro>(t1 - t0)
                         .count());
            double sumsq = 0.0;
            for (float g : push.grads)
                sumsq += static_cast<double>(g) *
                         static_cast<double>(g);
            m.sample("dist", "grad_norm", std::sqrt(sumsq));
        }
        pushes_.fetch_add(1, std::memory_order_relaxed);
        if (cfg_.totalSteps > 0 && res.steps >= cfg_.totalSteps)
            markDone();
    } else {
        pushRejects_.fetch_add(1, std::memory_order_relaxed);
        m.count("dist", "push_rejects");
    }
    ack.stop = done() ? 1 : 0;
    wire::Gather out;
    wire::encodePushAck(out, ack);
    proto_ok = sendMsg(fd, wire::Type::PushAck, out);
}

void
PsServer::handleHeartbeat(int fd, const std::string &payload,
                          bool &proto_ok)
{
    wire::Heartbeat hb;
    if (!wire::decodeHeartbeat(hb, payload)) {
        proto_ok = false;
        return;
    }
    wire::HeartbeatAck ack;
    ack.known = leases_.renew(hb.workerId) ? 1 : 0;
    ack.stop = done() ? 1 : 0;
    std::string out;
    wire::encodeHeartbeatAck(out, ack);
    proto_ok = sendMsg(fd, wire::Type::HeartbeatAck, out);
}

void
PsServer::handleStats(int fd, bool &proto_ok)
{
    std::string out;
    wire::encodeStatsReply(out, stats());
    proto_ok = sendMsg(fd, wire::Type::StatsReply, out);
}

void
PsServer::connectionMain(int fd, std::uint64_t conn_id)
{
    // The lease granted to a Hello on THIS connection; if the
    // connection dies while the lease is live, the worker is gone and
    // the lease is reaped immediately rather than after the TTL.
    // Heartbeat-only connections never own a lease, so losing one
    // cannot reap a worker whose push connection is still healthy.
    std::uint64_t owned_lease = 0;

    std::uint32_t type = 0;
    ConnBuffers buf;
    const std::uint32_t max_payload =
        wire::maxRequestBytes(params_.paramCount());
    const std::string &payload = buf.payload;
    bool proto_ok = true;
    while (proto_ok && !stopping_.load(std::memory_order_relaxed)) {
        if (!net::recvFrame(fd, wire::kMagic, max_payload, type,
                            buf.payload))
            break;
        switch (static_cast<wire::Type>(type)) {
        case wire::Type::Hello:
            handleHello(fd, payload, owned_lease, proto_ok);
            break;
        case wire::Type::Pull:
            handlePull(fd, buf, proto_ok);
            break;
        case wire::Type::Push:
            handlePush(fd, buf, proto_ok);
            break;
        case wire::Type::Heartbeat:
            handleHeartbeat(fd, payload, proto_ok);
            break;
        case wire::Type::Stats:
            handleStats(fd, proto_ok);
            break;
        case wire::Type::Bye: {
            // Bye carries the same {workerId} payload as Heartbeat.
            wire::Heartbeat bye;
            if (wire::decodeHeartbeat(bye, payload) &&
                leases_.leave(bye.workerId)) {
                FA3C_INFORM("dist: worker #", bye.workerId,
                            " left cleanly");
                if (owned_lease == bye.workerId)
                    owned_lease = 0;
            }
            proto_ok = false; // the peer is about to close anyway
            break;
        }
        default:
            FA3C_WARN("dist: unexpected message type ", type,
                      "; closing connection");
            proto_ok = false;
            break;
        }
    }

    if (owned_lease != 0 && leases_.reap(owned_lease)) {
        obs::metrics().count("dist", "lease_reaps");
        FA3C_WARN("dist: reaped lease #", owned_lease,
                  " (connection closed)");
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
        if (*it == fd) {
            connFds_.erase(it);
            break;
        }
    }
    endedConns_.push_back(conn_id);
}

void
PsServer::housekeeperMain()
{
    const auto interval = std::min<std::chrono::milliseconds>(
        std::max<std::chrono::milliseconds>(
            std::chrono::milliseconds(cfg_.leaseTtlMs / 4),
            std::chrono::milliseconds(10)),
        std::chrono::milliseconds(250));
    std::unique_lock<std::mutex> lock(doneMutex_);
    while (!stopping_.load(std::memory_order_relaxed)) {
        doneCv_.wait_for(lock, interval, [this] {
            return stopping_.load(std::memory_order_relaxed);
        });
        if (stopping_.load(std::memory_order_relaxed))
            break;
        lock.unlock();

        for (const LeaseTable::Lease &l : leases_.reapExpired()) {
            obs::metrics().count("dist", "lease_reaps");
            FA3C_WARN("dist: reaped lease #", l.id, " ('", l.name,
                      "') — heartbeat timeout");
        }
        if (cfg_.checkpointEverySteps > 0 &&
            !cfg_.checkpointPath.empty()) {
            const std::uint64_t steps = params_.globalSteps();
            if (steps - lastCheckpointSteps_ >=
                cfg_.checkpointEverySteps)
                writeCheckpoint();
        }

        lock.lock();
    }
}

} // namespace fa3c::dist
