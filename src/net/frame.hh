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
 *    arrive split across reads. sendFrame gathers the header and the
 *    payload parts straight from the caller's memory with sendmsg,
 *    so a multi-megabyte payload is never copied into a frame buffer
 *    first.
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
#include <span>
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

/** One piece of a frame payload, borrowed until sendFrame returns. */
using Part = std::span<const std::byte>;

/** Most payload parts one sendFrame call gathers. */
inline constexpr std::size_t kMaxFrameParts = 7;

/**
 * Write one frame to @p fd (blocking): the header and the
 * concatenation of @p parts, gathered by sendmsg without an
 * intermediate copy. Partial writes and EINTR are retried; the send
 * never raises SIGPIPE. Zero-length parts are skipped, so an empty
 * payload sends a bare header.
 *
 * @return false on transport failure, more than kMaxFrameParts parts,
 *         or a payload longer than a u32 length can state.
 */
bool sendFrame(int fd, std::uint32_t magic, std::uint32_t type,
               std::span<const Part> parts);

/** sendFrame with one contiguous payload. */
inline bool
sendFrame(int fd, std::uint32_t magic, std::uint32_t type,
          const void *payload, std::size_t payload_len)
{
    const Part part(static_cast<const std::byte *>(payload),
                    payload_len);
    return sendFrame(fd, magic, type, std::span<const Part>(&part, 1));
}

/**
 * Read one frame from @p fd (blocking).
 *
 * @param magic        Expected protocol magic; a mismatch fails.
 * @param max_payload  Reject frames claiming more than this (a
 *                     corrupt length must not drive a huge alloc).
 *                     Checked before any payload byte is read or
 *                     any buffer grows.
 * @param type_out     The frame's message type.
 * @param payload_out  The frame's payload bytes. Reused: a caller
 *                     that passes the same string every time keeps
 *                     its capacity, so steady-state receives of
 *                     equal-sized frames allocate nothing.
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
