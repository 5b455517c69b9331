/**
 * @file
 * Minimal blocking client for the serving wire format (serve/wire.hh)
 * that serve::EventLoopServer answers: one request in flight per
 * connection, so responses come back in request order. Clients
 * wanting concurrency open more connections — batching happens
 * server-side across all of them.
 */

#ifndef FA3C_SERVE_TCP_HH
#define FA3C_SERVE_TCP_HH

#include <cstdint>
#include <string>

#include "obs/span.hh"
#include "serve/request.hh"

namespace fa3c::serve {

/** Blocking wire client (tests, demo, bench). */
class TcpClient
{
  public:
    TcpClient() = default;
    ~TcpClient() { close(); }

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    /** Connect to @p host:@p port. @return false on failure. */
    bool connect(const std::string &host, std::uint16_t port);

    /**
     * Send one observation and block for the response.
     * @return false on a transport or framing error; the connection
     * is closed then, since its frame boundary is lost.
     */
    bool request(const tensor::Tensor &obs, std::uint32_t deadline_us,
                 Response &out);

    /**
     * The span context of the most recent request(): the client-side
     * root injected into the frame, so callers (and tests) can
     * correlate their own spans with the server side.
     */
    const obs::SpanContext &lastSpan() const { return lastSpan_; }

    void close();

    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::uint64_t nextTag_ = 1;
    obs::SpanContext lastSpan_;
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_TCP_HH
