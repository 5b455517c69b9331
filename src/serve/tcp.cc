#include "serve/tcp.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <vector>

#include "net/frame.hh"
#include "serve/wire.hh"

namespace fa3c::serve {

// Blocking socket I/O shared with every other TCP endpoint.
using net::readFull;
using net::setNoDelay;
using net::writeFull;

bool
TcpClient::connect(const std::string &host, std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    setNoDelay(fd_);
    return true;
}

bool
TcpClient::request(const tensor::Tensor &obs, std::uint32_t deadline_us,
                   Response &out)
{
    if (fd_ < 0)
        return false;
    // Every request carries a client-minted root context so the
    // server (and any router/replica hop behind it) parents its spans
    // under one fleet-wide trace_id.
    lastSpan_ = obs::rootSpan();
    const auto t_send = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> frame;
    wire::encodeRequest(frame, nextTag_++, deadline_us,
                        obs.data().data(), obs.numel(), lastSpan_);
    std::array<std::uint8_t, wire::kResponsePrefixBytes> prefix{};
    std::uint64_t tag = 0; // single in-flight request; not checked
    std::uint32_t num_probs = 0;
    bool ok = writeFull(fd_, frame.data(), frame.size()) &&
              readFull(fd_, prefix.data(), prefix.size()) &&
              wire::decodeResponsePrefix(prefix.data(), tag, out,
                                         num_probs) &&
              num_probs <= (1u << 20);
    if (ok) {
        out.policy.resize(num_probs);
        ok = num_probs == 0 ||
             readFull(fd_, out.policy.data(), num_probs * sizeof(float));
    }
    if (!ok) {
        // The frame boundary is lost; never reuse this stream.
        close();
        return false;
    }
    if (lastSpan_.sampled) {
        const std::array<obs::TraceArg, 1> args{
            {{"status", static_cast<double>(out.status)}}};
        obs::emitSpan(lastSpan_, "serve.client", "client.request",
                      t_send, std::chrono::steady_clock::now(), args);
    }
    return true;
}

void
TcpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace fa3c::serve
