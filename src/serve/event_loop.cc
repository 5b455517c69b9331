#include "serve/event_loop.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "obs/prometheus.hh"
#include "obs/span.hh"
#include "sim/logging.hh"

namespace fa3c::serve {

namespace {

/** epoll user-data ids for the two non-connection descriptors. */
constexpr std::uint64_t kWakeId = ~std::uint64_t{0};
constexpr std::uint64_t kListenId = ~std::uint64_t{0} - 1;

using net::setNoDelay;

} // namespace

/**
 * The mailbox scheduler workers drop completions into. shared_ptr
 * ownership by every in-flight callback keeps it alive past stop();
 * the eventfd write after stop() just bumps a counter nobody reads.
 */
struct EventLoopServer::CompletionBus
{
    int eventFd = -1;
    std::mutex mutex;
    std::vector<Completion> items;

    CompletionBus()
        : eventFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC))
    {
    }

    ~CompletionBus()
    {
        if (eventFd >= 0)
            ::close(eventFd);
    }

    void
    post(Completion &&c)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            items.push_back(std::move(c));
        }
        wake();
    }

    void
    wake() const
    {
        const std::uint64_t one = 1;
        (void)!::write(eventFd, &one, sizeof(one));
    }

    void
    drain(std::vector<Completion> &out)
    {
        std::uint64_t count = 0;
        (void)!::read(eventFd, &count, sizeof(count));
        std::lock_guard<std::mutex> lock(mutex);
        out.swap(items);
        items.clear();
    }
};

EventLoopServer::EventLoopServer(ReplicaRouter &router,
                                 const EventLoopConfig &cfg)
    : router_(router), cfg_(cfg),
      obsScratch_(tensor::Shape({router.network().config().inChannels,
                                 router.network().config().inHeight,
                                 router.network().config().inWidth})),
      bus_(std::make_shared<CompletionBus>()),
      telemetryReg_(
          obs::telemetry(),
          [this](obs::PromWriter &w) {
              w.gauge("frontend_connections",
                      static_cast<double>(activeConnections()),
                      "open event-loop connections");
              w.counter("frontend_accepted_total",
                        connectionsAccepted(),
                        "connections accepted by the event loop");
              w.counter("frontend_requests_total", requestsReceived(),
                        "wire requests decoded by the event loop");
          },
          "frontend",
          [this](std::string &detail) {
              detail = "connections=" +
                       std::to_string(activeConnections());
              return running_.load(std::memory_order_relaxed);
          })
{
}

EventLoopServer::~EventLoopServer()
{
    stop();
}

bool
EventLoopServer::start()
{
    if (listenFd_ >= 0)
        return true;
    if (bus_->eventFd < 0) {
        FA3C_WARN("serve: eventfd() failed");
        return false;
    }
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) {
        FA3C_WARN("serve: epoll_create1 failed: ",
                  std::strerror(errno));
        return false;
    }
    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0) {
        FA3C_WARN("serve: socket() failed: ", std::strerror(errno));
        ::close(epollFd_);
        epollFd_ = -1;
        return false;
    }
    int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    bool ok = ::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                          &addr.sin_addr) == 1;
    ok = ok &&
         ::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) == 0 &&
         ::listen(listenFd_, cfg_.backlog) == 0;
    if (!ok) {
        FA3C_WARN("serve: bind/listen on ", cfg_.bindAddress, ":",
                  cfg_.port, " failed: ", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        ::close(epollFd_);
        epollFd_ = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_ADD, bus_->eventFd, &ev);

    running_.store(true, std::memory_order_relaxed);
    loopThread_ = std::thread([this] { loopMain(); });
    return true;
}

void
EventLoopServer::stop()
{
    if (stopping_.exchange(true))
        return;
    running_.store(false, std::memory_order_relaxed);
    if (loopThread_.joinable()) {
        bus_->wake();
        loopThread_.join();
    }
    for (auto &[id, c] : conns_)
        ::close(c.fd);
    conns_.clear();
    active_.store(0, std::memory_order_relaxed);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
}

void
EventLoopServer::loopMain()
{
    std::array<epoll_event, 64> events;
    std::vector<Completion> done;
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            FA3C_WARN("serve: epoll_wait failed: ",
                      std::strerror(errno));
            return;
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            const std::uint32_t mask = events[i].events;
            if (id == kWakeId) {
                done.clear();
                bus_->drain(done);
                for (auto &c : done) {
                    auto it = conns_.find(c.conn);
                    if (it == conns_.end())
                        continue; // connection died first
                    // Next iteration re-finds, so a close is fine.
                    (void)finishSlot(it->second, c.seq, c.tag,
                                     std::move(c.resp));
                }
                continue;
            }
            if (id == kListenId) {
                acceptReady();
                continue;
            }
            // Connection events: the conn may have been closed by an
            // earlier event in this same batch — always re-find it.
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue;
            if (mask & (EPOLLERR | EPOLLHUP)) {
                closeConn(id);
                continue;
            }
            if (mask & EPOLLIN)
                readable(it->second);
            it = conns_.find(id);
            if (it != conns_.end() && (mask & EPOLLOUT)) {
                Conn &c = it->second;
                if (writable(c) && maybeRetire(c))
                    applyBackpressure(c);
            }
        }
    }
}

void
EventLoopServer::acceptReady()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or listener gone
        }
        setNoDelay(fd);
        const std::uint64_t id = nextConnId_++;
        Conn &c = conns_[id];
        c.fd = fd;
        c.id = id;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            conns_.erase(id);
            continue;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        active_.store(conns_.size(), std::memory_order_relaxed);
    }
}

void
EventLoopServer::readable(Conn &c)
{
    std::array<std::uint8_t, 64 * 1024> chunk;
    for (;;) {
        const ssize_t n = ::recv(c.fd, chunk.data(), chunk.size(), 0);
        if (n > 0) {
            c.in.append(chunk.data(), static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            // Half-close: the peer is done talking but may still be
            // listening — flush what we owe, then retire.
            c.readClosed = true;
            if (c.draining) {
                // A frame died mid-payload; its response can never be
                // matched, so drop the pending BadRequest.
                c.draining = false;
                c.drainBytes = 0;
            }
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(c.id);
        return;
    }
    if (!parseFrames(c))
        return; // conn closed and erased; c dangles
    if (maybeRetire(c))
        applyBackpressure(c);
}

bool
EventLoopServer::parseFrames(Conn &c)
{
    for (;;) {
        const std::size_t avail = c.in.avail();
        if (c.draining) {
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(avail, c.drainBytes));
            c.in.consume(take);
            c.drainBytes -= take;
            if (c.drainBytes > 0)
                break; // need more bytes to discard
            c.draining = false;
            // The drained frame answers in order like any other: no
            // later frame has been parsed yet, so its slot is next.
            const std::uint64_t seq = c.nextSeq++;
            c.slots.emplace_back();
            c.slots.back().recv = Clock::now();
            Response resp;
            resp.status = Status::RejectedBadRequest;
            // The inline flush can cascade (send failure, or a
            // half-closed peer retiring once this rejection was its
            // last owed response) into closeConn — stop parsing then.
            if (!finishSlot(c, seq, c.drainTag, std::move(resp)))
                return false;
            continue;
        }
        if (avail < wire::kRequestHeaderBytes)
            break;
        wire::RequestHeader h;
        if (!wire::decodeRequestHeader(c.in.data(), h)) {
            FA3C_WARN("serve: bad request magic; closing connection");
            closeConn(c.id);
            return false;
        }
        if (h.numel > cfg_.maxObsNumel) {
            // Refuse to sit in a multi-GB discard loop on the
            // claimant's schedule: oversize claims are a protocol
            // error, not a drainable bad request.
            FA3C_WARN("serve: request claims ", h.numel,
                      " obs floats (cap ", cfg_.maxObsNumel,
                      "); closing connection");
            closeConn(c.id);
            return false;
        }
        if (h.numel != obsScratch_.numel()) {
            // Wrong geometry (or absurd size): discard the payload
            // without ever buffering it, answer RejectedBadRequest.
            c.in.consume(wire::kRequestHeaderBytes);
            c.draining = true;
            c.drainBytes =
                static_cast<std::uint64_t>(h.numel) * sizeof(float);
            c.drainTag = h.tag;
            continue;
        }
        const std::size_t payload = obsScratch_.numel() * sizeof(float);
        if (avail < wire::kRequestHeaderBytes + payload)
            break; // frame split across reads; wait for the rest
        c.in.consume(wire::kRequestHeaderBytes);
        std::memcpy(obsScratch_.data().data(), c.in.data(), payload);
        c.in.consume(payload);

        const std::uint64_t seq = c.nextSeq++;
        c.slots.emplace_back();
        Conn::Slot &slot = c.slots.back();
        slot.recv = Clock::now();
        slot.span = wire::requestSpan(h);
        requests_.fetch_add(1, std::memory_order_relaxed);

        // The callback runs on a scheduler worker (or inline on a
        // rejection): it must only touch the bus, never the conn.
        auto bus = bus_;
        const std::uint64_t conn_id = c.id;
        const std::uint64_t tag = h.tag;
        router_.submitAsync(
            obsScratch_, std::chrono::microseconds(h.deadlineUs),
            slot.span, [bus, conn_id, seq, tag](Response &&resp) {
                Completion done;
                done.conn = conn_id;
                done.seq = seq;
                done.tag = tag;
                done.resp = std::move(resp);
                bus->post(std::move(done));
            });
    }
    // Reclaim consumed bytes; what remains is an incomplete frame.
    c.in.reclaim();
    return true;
}

bool
EventLoopServer::finishSlot(Conn &c, std::uint64_t seq,
                            std::uint64_t tag, Response &&resp)
{
    const std::uint64_t idx = seq - c.headSeq;
    if (idx >= c.slots.size())
        return true; // already flushed/abandoned (should not happen)
    Conn::Slot &slot = c.slots[static_cast<std::size_t>(idx)];
    if (slot.span.sampled) {
        const std::array<obs::TraceArg, 2> args{
            {{"tag", static_cast<double>(tag)},
             {"conn", static_cast<double>(c.id)}}};
        obs::emitSpan(slot.span, "serve.frontend", "frontend.request",
                      slot.recv, Clock::now(), args);
    }
    wire::encodeResponse(slot.bytes, tag, resp);
    slot.ready = true;
    if (idx == 0)
        return flushHead(c); // false: the flush closed the conn
    return true;
}

bool
EventLoopServer::flushHead(Conn &c)
{
    while (!c.slots.empty() && c.slots.front().ready) {
        auto &bytes = c.slots.front().bytes;
        c.out.insert(c.out.end(), bytes.begin(), bytes.end());
        c.slots.pop_front();
        ++c.headSeq;
    }
    if (!writable(c))
        return false;
    if (!maybeRetire(c))
        return false;
    applyBackpressure(c);
    return true;
}

bool
EventLoopServer::writable(Conn &c)
{
    while (c.outOff < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.outOff,
                   c.out.size() - c.outOff, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (!c.wantWrite) {
                    c.wantWrite = true;
                    updateInterest(c);
                }
                return true; // resume on EPOLLOUT
            }
            closeConn(c.id);
            return false;
        }
        c.outOff += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.outOff = 0;
    if (c.wantWrite) {
        c.wantWrite = false;
        updateInterest(c);
    }
    return true;
}

void
EventLoopServer::updateInterest(Conn &c)
{
    epoll_event ev{};
    ev.events = 0;
    if (!c.readParked && !c.readClosed)
        ev.events |= EPOLLIN;
    if (c.wantWrite)
        ev.events |= EPOLLOUT;
    ev.data.u64 = c.id;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void
EventLoopServer::applyBackpressure(Conn &c)
{
    const std::size_t pending = c.out.size() - c.outOff;
    if (!c.readParked && pending > cfg_.writeBufferCap) {
        // Slow reader: stop accepting its requests until it drains —
        // bounded memory, zero impact on every other connection.
        c.readParked = true;
        updateInterest(c);
    } else if (c.readParked && pending < cfg_.writeBufferCap / 2) {
        c.readParked = false;
        updateInterest(c);
    }
}

bool
EventLoopServer::maybeRetire(Conn &c)
{
    if (c.readClosed && c.slots.empty() && c.outOff >= c.out.size()) {
        closeConn(c.id);
        return false;
    }
    return true;
}

void
EventLoopServer::closeConn(std::uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second.fd,
                      nullptr);
    ::close(it->second.fd);
    conns_.erase(it);
    active_.store(conns_.size(), std::memory_order_relaxed);
}

} // namespace fa3c::serve
