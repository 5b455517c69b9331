/**
 * @file
 * Blocking client side of the dist wire protocol: one TCP connection
 * to a PsServer, one request/reply RPC at a time. WorkerRunner keeps
 * two of these — a push/pull connection owned by the training loop
 * and a heartbeat connection owned by the lease-renewal thread — and
 * tests / the CLI `verify` role use one directly.
 *
 * Every RPC returns false on transport or protocol failure and leaves
 * the connection in a dead state; the caller reconnects and re-Hellos
 * (the elastic-rejoin path) rather than trying to resynchronize a
 * half-spoken conversation.
 *
 * Push and Pull move the parameter vector without staging copies:
 * the gradients are sent in place from the caller's span, each reply
 * lands in one receive buffer the client reuses, and theta is
 * decoded from it straight into the caller's span once the reply has
 * validated. A reply may be no longer than the expected count allows
 * (wire::maxReplyBytes).
 */

#ifndef FA3C_DIST_PS_CLIENT_HH
#define FA3C_DIST_PS_CLIENT_HH

#include <cstdint>
#include <span>
#include <string>

#include "dist/wire.hh"
#include "net/frame.hh"

namespace fa3c::dist {

/** One blocking dist-protocol connection. */
class PsClient
{
  public:
    PsClient() = default;
    ~PsClient();

    PsClient(const PsClient &) = delete;
    PsClient &operator=(const PsClient &) = delete;

    /** Connect to @p host:@p port. Any previous connection closes. */
    bool connect(const std::string &host, int port);

    bool connected() const { return fd_ >= 0; }

    void close();

    /** Introduce this worker; false on rejection (Welcome.workerId ==
     * 0) as well as on transport failure. */
    bool hello(const wire::Hello &msg, wire::Welcome &out);

    /** Fetch the full parameter image into @p theta, whose size is
     * the expected count. @p trace rides on the frame so the PS can
     * parent its ps.pull span under the caller. */
    bool pull(wire::Params &out, std::span<float> theta,
              const wire::TraceCtx &trace = {});

    /** Push msg.grads; the ack's theta, if any, is decoded into
     * @p theta, whose size is the expected count. */
    bool push(const wire::Push &msg, wire::PushAck &out,
              std::span<float> theta);

    bool heartbeat(std::uint64_t worker_id, wire::HeartbeatAck &out);

    bool stats(wire::StatsReply &out);

    /** Release the lease; fire-and-forget, then closes. */
    void bye(std::uint64_t worker_id);

  private:
    int fd_ = -1;
    std::string reply_; ///< receive buffer, reused by every RPC

    /** Send one frame and receive one @p want-typed reply into
     * reply_; @p expect_count bounds the reply's length. */
    bool request(wire::Type type, std::span<const net::Part> payload,
                 wire::Type want, std::size_t expect_count = 0);
};

} // namespace fa3c::dist

#endif // FA3C_DIST_PS_CLIENT_HH
