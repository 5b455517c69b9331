#include "net/frame.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <array>
#include <cerrno>
#include <limits>

namespace fa3c::net {

bool
readFull(int fd, void *buf, std::size_t len)
{
    auto *p = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFull(int fd, const void *buf, std::size_t len)
{
    auto *p = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
setNoDelay(int fd)
{
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one));
}

bool
sendFrame(int fd, std::uint32_t magic, std::uint32_t type,
          std::span<const Part> parts)
{
    if (parts.size() > kMaxFrameParts)
        return false;
    std::size_t payload_len = 0;
    for (const Part &p : parts)
        payload_len += p.size();
    if (payload_len > std::numeric_limits<std::uint32_t>::max())
        return false;

    // The same bytes encodeFrameHeader appends (host order, see the
    // file comment), built on the stack so a send never allocates.
    std::uint32_t header[3] = {magic, type,
                               static_cast<std::uint32_t>(payload_len)};
    static_assert(sizeof(header) == kFrameHeaderBytes);
    std::array<iovec, 1 + kMaxFrameParts> iov{};
    iov[0] = {header, sizeof(header)};
    std::size_t count = 1;
    for (const Part &p : parts)
        if (!p.empty())
            iov[count++] = {const_cast<std::byte *>(p.data()), p.size()};

    // sendmsg may stop anywhere, even inside a part: advance past
    // what was written and gather the rest.
    iovec *next = iov.data();
    while (count > 0) {
        msghdr msg{};
        msg.msg_iov = next;
        msg.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        auto left = static_cast<std::size_t>(n);
        while (count > 0 && left >= next->iov_len) {
            left -= next->iov_len;
            ++next;
            --count;
        }
        if (count > 0) {
            next->iov_base = static_cast<std::byte *>(next->iov_base) + left;
            next->iov_len -= left;
        }
    }
    return true;
}

bool
recvFrame(int fd, std::uint32_t magic, std::uint32_t max_payload,
          std::uint32_t &type_out, std::string &payload_out)
{
    std::uint8_t header[kFrameHeaderBytes];
    if (!readFull(fd, header, sizeof(header)))
        return false;
    const FrameHeader h = decodeFrameHeader(header);
    if (h.magic != magic || h.payloadLen > max_payload)
        return false;
    payload_out.resize(h.payloadLen);
    if (h.payloadLen > 0 &&
        !readFull(fd, payload_out.data(), h.payloadLen))
        return false;
    type_out = h.type;
    return true;
}

} // namespace fa3c::net
