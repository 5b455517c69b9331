/**
 * @file
 * The serving front-end: a non-blocking epoll server for the wire
 * format in serve/wire.hh. One loop thread multiplexes every
 * connection, so connection count does not cost a stack and a
 * scheduler entry each — the accept path is O(1) and a few thousand
 * mostly-idle clients are cheap.
 *
 * Per-connection state machine:
 *
 *  - **Read side** accumulates bytes until a full frame (header +
 *    observation payload) is present; frames split across any number
 *    of reads reassemble transparently. A wrong-geometry payload is
 *    discarded in a drain state (never buffered) and answered with
 *    RejectedBadRequest; a bad magic or a payload claiming more than
 *    maxObsNumel floats closes the connection.
 *  - **Submit** hands the observation to the backing PolicyServer or
 *    ReplicaRouter via submitAsync(); the completion callback posts
 *    the response onto an eventfd-backed completion bus that wakes
 *    the loop. Responses flush strictly in request order per
 *    connection (slots fill out of order, drain from the head), so
 *    pipelined clients can match responses positionally as well as
 *    by tag.
 *  - **Write side** buffers what the socket won't take and arms
 *    EPOLLOUT until drained. A slow reader only throttles itself:
 *    past writeBufferCap buffered bytes its EPOLLIN is parked (no new
 *    reads, no new requests, bounded memory) and unparked once the
 *    buffer drains below half the cap; every other connection keeps
 *    flowing.
 *  - **Half-close**: a peer that shut down its write side (recv 0)
 *    still receives every response already in flight before the
 *    connection is torn down.
 *
 * The completion bus is shared_ptr-held by every in-flight callback,
 * so completions that land after stop() write into live memory and
 * are simply dropped.
 */

#ifndef FA3C_SERVE_EVENT_LOOP_HH
#define FA3C_SERVE_EVENT_LOOP_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/wire.hh"

namespace fa3c::serve {

/** Epoll listener configuration. */
struct EventLoopConfig
{
    std::string bindAddress = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (read back via port())
    int backlog = 128;
    /** Frames claiming more observation floats than this close the
     * connection (protocol error — draining them would discard GBs on
     * the claimant's schedule); smaller wrong-geometry frames are
     * drained and answered RejectedBadRequest. */
    std::uint32_t maxObsNumel = 1u << 22;
    /** Park a connection's read side once this many response bytes
     * are buffered for it (slow-reader backpressure). */
    std::size_t writeBufferCap = 1u << 20;
};

/** Single-threaded epoll server over a PolicyServer or a fleet. */
class EventLoopServer
{
  public:
    /** Front a single in-process PolicyServer. */
    EventLoopServer(PolicyServer &server, const EventLoopConfig &cfg);

    /** Front a replica fleet; connection id is the session key, so
     * ConsistentHash pins each connection to a replica. */
    EventLoopServer(ReplicaRouter &router, const EventLoopConfig &cfg);

    ~EventLoopServer();

    EventLoopServer(const EventLoopServer &) = delete;
    EventLoopServer &operator=(const EventLoopServer &) = delete;

    /**
     * Bind, listen, and launch the loop thread.
     * @return false (with a warning) when setup fails.
     */
    bool start();

    /** Close the listener and every connection, join the loop. */
    void stop();

    /** The bound port (after start(); resolves ephemeral binds). */
    std::uint16_t port() const { return port_; }

    std::uint64_t connectionsAccepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    std::size_t activeConnections() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    std::uint64_t requestsReceived() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    /** Routed completion-callback signature shared by both backings. */
    using SubmitFn = std::function<void(
        const tensor::Tensor &, std::chrono::microseconds,
        std::uint64_t session, const obs::SpanContext &,
        std::function<void(Response &&)>)>;

    struct Completion
    {
        std::uint64_t conn = 0;
        std::uint64_t seq = 0;
        std::uint64_t tag = 0;
        Response resp;
    };

    /** Mutex+eventfd mailbox from scheduler workers to the loop. */
    struct CompletionBus;

    /** One connection's read/write state machine. */
    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0;
        net::RecvBuffer in; ///< frame reassembly across reads

        /** Ordered response slot: filled when its completion lands,
         * flushed only from the head. */
        struct Slot
        {
            bool ready = false;
            std::vector<std::uint8_t> bytes;
            obs::SpanContext span; ///< wire root span of the request
            Clock::time_point recv;
        };
        std::deque<Slot> slots;
        std::uint64_t headSeq = 0; ///< seq of slots.front()
        std::uint64_t nextSeq = 0;

        std::vector<std::uint8_t> out; ///< bytes awaiting the socket
        std::size_t outOff = 0;
        bool wantWrite = false; ///< EPOLLOUT currently armed
        bool readParked = false; ///< EPOLLIN dropped (backpressure)
        bool readClosed = false; ///< peer half-closed
        /** Wrong-geometry payload bytes still to discard; the pending
         * header's slot answers RejectedBadRequest once drained. */
        std::uint64_t drainBytes = 0;
        bool draining = false;
        std::uint64_t drainTag = 0;
    };

    EventLoopServer(const nn::A3cNetwork &net, SubmitFn submit,
                    const EventLoopConfig &cfg);

    void loopMain();
    void acceptReady();
    /** Drain the socket's readable bytes; may close the conn. */
    void readable(Conn &c);
    /** Parse every complete frame in c.in. Closes the conn itself on
     * protocol errors and on flush-path teardown. @return false when
     * the conn was closed — @p c dangles, don't touch it. */
    bool parseFrames(Conn &c);
    /** Fill slot @p seq and flush if it unblocked the head.
     * @return false when the flush closed the conn (@p c dangles). */
    bool finishSlot(Conn &c, std::uint64_t seq, std::uint64_t tag,
                    Response &&resp);
    /** Move ready head slots to the write buffer and push them to the
     * socket. @return false when the connection was closed. */
    bool flushHead(Conn &c);
    /** Push buffered bytes; @return false when the conn was closed. */
    bool writable(Conn &c);
    void updateInterest(Conn &c);
    void applyBackpressure(Conn &c);
    void closeConn(std::uint64_t id);
    /** Close if nothing remains to read or flush; false = closed. */
    bool maybeRetire(Conn &c);

    const nn::A3cNetwork &net_;
    SubmitFn submit_;
    EventLoopConfig cfg_;
    std::size_t wantNumel_ = 0;
    tensor::Tensor obsScratch_; ///< loop-thread-only staging tensor

    int epollFd_ = -1;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread loopThread_;
    std::shared_ptr<CompletionBus> bus_;
    std::unordered_map<std::uint64_t, Conn> conns_;
    std::uint64_t nextConnId_ = 1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::size_t> active_{0};
    std::atomic<std::uint64_t> requests_{0};
    /** Declared last: detaches before members the lambdas read die. */
    obs::TelemetryRegistration telemetryReg_;
};

} // namespace fa3c::serve

#endif // FA3C_SERVE_EVENT_LOOP_HH
