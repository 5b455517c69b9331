#include "dist/ps_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "net/frame.hh"
#include "sim/logging.hh"

namespace fa3c::dist {

namespace {

/** A small encoded message as sendFrame parts. */
std::array<net::Part, 1>
onePart(const std::string &payload)
{
    return {std::as_bytes(std::span(payload))};
}

} // namespace

PsClient::~PsClient()
{
    close();
}

void
PsClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
PsClient::connect(const std::string &host, int port)
{
    close();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        FA3C_WARN("dist: bad ps address '", host, "'");
        ::close(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    net::setNoDelay(fd);
    fd_ = fd;
    return true;
}

bool
PsClient::request(wire::Type type, std::span<const net::Part> payload,
                  wire::Type want, std::size_t expect_count)
{
    if (fd_ < 0)
        return false;
    if (!net::sendFrame(fd_, wire::kMagic,
                        static_cast<std::uint32_t>(type), payload)) {
        close();
        return false;
    }
    std::uint32_t got = 0;
    if (!net::recvFrame(fd_, wire::kMagic,
                        wire::maxReplyBytes(expect_count), got,
                        reply_) ||
        got != static_cast<std::uint32_t>(want)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::hello(const wire::Hello &msg, wire::Welcome &out)
{
    std::string payload;
    wire::encodeHello(payload, msg);
    if (!request(wire::Type::Hello, onePart(payload),
                 wire::Type::Welcome) ||
        !wire::decodeWelcome(out, reply_)) {
        close();
        return false;
    }
    if (out.workerId == 0) {
        close(); // rejected; the server is closing too
        return false;
    }
    return true;
}

bool
PsClient::pull(wire::Params &out, std::span<float> theta,
               const wire::TraceCtx &trace)
{
    std::string payload;
    wire::Pull msg;
    msg.trace = trace;
    wire::encodePull(payload, msg);
    if (!request(wire::Type::Pull, onePart(payload), wire::Type::Params,
                 theta.size()) ||
        !wire::decodeParams(out, reply_, theta)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::push(const wire::Push &msg, wire::PushAck &out,
               std::span<float> theta)
{
    wire::Gather payload;
    wire::encodePush(payload, msg);
    if (!request(wire::Type::Push, payload.parts(),
                 wire::Type::PushAck, theta.size()) ||
        !wire::decodePushAck(out, reply_, theta)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::heartbeat(std::uint64_t worker_id, wire::HeartbeatAck &out)
{
    wire::Heartbeat hb;
    hb.workerId = worker_id;
    std::string payload;
    wire::encodeHeartbeat(payload, hb);
    if (!request(wire::Type::Heartbeat, onePart(payload),
                 wire::Type::HeartbeatAck) ||
        !wire::decodeHeartbeatAck(out, reply_)) {
        close();
        return false;
    }
    return true;
}

bool
PsClient::stats(wire::StatsReply &out)
{
    if (!request(wire::Type::Stats, {}, wire::Type::StatsReply) ||
        !wire::decodeStatsReply(out, reply_)) {
        close();
        return false;
    }
    return true;
}

void
PsClient::bye(std::uint64_t worker_id)
{
    if (fd_ < 0)
        return;
    // Bye reuses the Heartbeat payload shape ({workerId}); there is
    // no reply — the server releases the lease and we just close.
    wire::Heartbeat msg;
    msg.workerId = worker_id;
    std::string payload;
    wire::encodeHeartbeat(payload, msg);
    (void)net::sendFrame(fd_, wire::kMagic,
                         static_cast<std::uint32_t>(wire::Type::Bye),
                         payload.data(), payload.size());
    close();
}

} // namespace fa3c::dist
