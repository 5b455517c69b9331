/**
 * @file
 * Length-prefix framing and byte-codec helpers shared by every TCP
 * endpoint in the tree: the serving front-end (serve/event_loop.*),
 * the blocking serve client (serve/tcp.*), and the distributed
 * training plane under src/dist. All integers little-endian, floats
 * IEEE-754 binary32; both ends are assumed little-endian hosts.
 *
 * Three layers live here:
 *
 *  - put/get: append/read trivially copyable values on byte buffers
 *    (the primitive every wire codec in the tree is built from);
 *  - readFull/writeFull/setNoDelay: blocking socket I/O that retries
 *    EINTR and never raises SIGPIPE;
 *  - Frame + RecvBuffer: a generic {magic, type, length}-headed
 *    message frame with blocking send/recv helpers, plus the
 *    reassembly buffer non-blocking loops use to parse frames that
 *    arrive split across reads.
 *
 * The serving wire format (serve/wire.hh) carries its own headers
 * rather than Frame's {magic, type, length}: it builds on the put/get
 * layer only.
 */

#ifndef FA3C_NET_FRAME_HH
#define FA3C_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fa3c::net {

/** Append a trivially copyable value to a byte buffer. */
template <typename T>
inline void
put(std::vector<std::uint8_t> &buf, T v)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&v);
    buf.insert(buf.end(), bytes, bytes + sizeof(T));
}

/** Read a trivially copyable value from a byte cursor. */
template <typename T>
inline T
get(const std::uint8_t *&p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
}

/** recv() exactly @p len bytes; false on EOF or a hard error. */
bool readFull(int fd, void *buf, std::size_t len);

/** send() exactly @p len bytes (MSG_NOSIGNAL: no SIGPIPE). */
bool writeFull(int fd, const void *buf, std::size_t len);

/** Disable Nagle batching on @p fd (best effort). */
void setNoDelay(int fd);

/**
 * Generic message frame: a fixed header followed by an opaque
 * payload. The magic names the protocol (each subsystem picks its
 * own), the type the message within it.
 *
 *     u32 magic
 *     u32 type
 *     u32 payload_len
 *     u8  payload[payload_len]
 */
struct FrameHeader
{
    std::uint32_t magic = 0;
    std::uint32_t type = 0;
    std::uint32_t payloadLen = 0;
};

inline constexpr std::size_t kFrameHeaderBytes = 3 * sizeof(std::uint32_t);

/** Append @p h to @p buf in wire order. */
inline void
encodeFrameHeader(std::vector<std::uint8_t> &buf, const FrameHeader &h)
{
    put<std::uint32_t>(buf, h.magic);
    put<std::uint32_t>(buf, h.type);
    put<std::uint32_t>(buf, h.payloadLen);
}

/** Decode kFrameHeaderBytes at @p p. */
inline FrameHeader
decodeFrameHeader(const std::uint8_t *p)
{
    FrameHeader h;
    h.magic = get<std::uint32_t>(p);
    h.type = get<std::uint32_t>(p);
    h.payloadLen = get<std::uint32_t>(p);
    return h;
}

/** Write one frame to @p fd (blocking). @return false on transport
 * failure. */
bool sendFrame(int fd, std::uint32_t magic, std::uint32_t type,
               const void *payload, std::size_t payload_len);

/**
 * Read one frame from @p fd (blocking).
 *
 * @param magic        Expected protocol magic; a mismatch fails.
 * @param max_payload  Reject frames claiming more than this (a
 *                     corrupt length must not drive a huge alloc).
 * @param type_out     The frame's message type.
 * @param payload_out  The frame's payload bytes.
 * @return false on EOF, transport error, bad magic, or oversize.
 */
bool recvFrame(int fd, std::uint32_t magic, std::uint32_t max_payload,
               std::uint32_t &type_out, std::string &payload_out);

/**
 * Reassembly buffer for non-blocking read loops: bytes are appended
 * as they arrive, parsers consume from the front, and reclaim()
 * compacts once parsing can make no further progress. Consumed bytes
 * are skipped by cursor, so per-frame parsing never memmoves.
 */
class RecvBuffer
{
  public:
    void
    append(const std::uint8_t *p, std::size_t n)
    {
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Unconsumed byte count. */
    std::size_t avail() const { return buf_.size() - off_; }

    /** Cursor to the first unconsumed byte. */
    const std::uint8_t *data() const { return buf_.data() + off_; }

    /** Advance the cursor past @p n parsed bytes. */
    void consume(std::size_t n) { off_ += n; }

    /** Drop consumed bytes; what remains is an incomplete frame. */
    void
    reclaim()
    {
        if (off_ == 0)
            return;
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(off_));
        off_ = 0;
    }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t off_ = 0;
};

} // namespace fa3c::net

#endif // FA3C_NET_FRAME_HH
