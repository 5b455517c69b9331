/** @file
 * Tests of the shared net framing layer: put/get codec primitives,
 * frame header encode/decode, blocking sendFrame/recvFrame over a
 * socketpair (including the bad-magic and oversize rejections, and a
 * gathered send cut into partial writes and EINTRs), and the
 * RecvBuffer reassembly helper used by non-blocking loops.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hh"

using namespace fa3c;

namespace {

constexpr std::uint32_t kMagic = 0xABCD1234;

struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
};

std::atomic<int> interrupts{0};

void
countInterrupt(int)
{
    interrupts.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TEST(NetFrame, PutGetRoundTripMixedTypes)
{
    std::vector<std::uint8_t> buf;
    net::put<std::uint32_t>(buf, 0xDEADBEEF);
    net::put<std::uint64_t>(buf, 0x1122334455667788ull);
    net::put<float>(buf, 2.5f);
    net::put<std::uint8_t>(buf, 7);
    ASSERT_EQ(buf.size(), 4u + 8u + 4u + 1u);

    const std::uint8_t *p = buf.data();
    EXPECT_EQ(net::get<std::uint32_t>(p), 0xDEADBEEFu);
    EXPECT_EQ(net::get<std::uint64_t>(p), 0x1122334455667788ull);
    EXPECT_FLOAT_EQ(net::get<float>(p), 2.5f);
    EXPECT_EQ(net::get<std::uint8_t>(p), 7u);
    EXPECT_EQ(p, buf.data() + buf.size());
}

TEST(NetFrame, HeaderEncodeDecodeRoundTrip)
{
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 42;
    h.payloadLen = 1009;

    std::vector<std::uint8_t> buf;
    net::encodeFrameHeader(buf, h);
    ASSERT_EQ(buf.size(), net::kFrameHeaderBytes);

    const net::FrameHeader back = net::decodeFrameHeader(buf.data());
    EXPECT_EQ(back.magic, kMagic);
    EXPECT_EQ(back.type, 42u);
    EXPECT_EQ(back.payloadLen, 1009u);
}

TEST(NetFrame, SendRecvRoundTripsPayloads)
{
    SocketPair sp;
    const std::string payload = "the payload bytes \x01\x02\x00 end";

    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 3, payload.data(),
                               payload.size()));
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 4, nullptr, 0));

    std::uint32_t type = 0;
    std::string got;
    ASSERT_TRUE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
    EXPECT_EQ(type, 3u);
    EXPECT_EQ(got, payload);

    ASSERT_TRUE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
    EXPECT_EQ(type, 4u);
    EXPECT_TRUE(got.empty());
}

TEST(NetFrame, RecvRejectsWrongMagic)
{
    SocketPair sp;
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic + 1, 1, "x", 1));
    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
}

TEST(NetFrame, RecvRejectsOversizePayloadClaim)
{
    SocketPair sp;
    // A frame whose header claims more than max_payload must be
    // rejected before any allocation of that size happens.
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 1;
    h.payloadLen = 4096;
    std::vector<std::uint8_t> buf;
    net::encodeFrameHeader(buf, h);
    ASSERT_TRUE(net::writeFull(sp.fds[0], buf.data(), buf.size()));

    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1024, type, got));
}

TEST(NetFrame, RecvReportsEofCleanly)
{
    SocketPair sp;
    ::close(sp.fds[0]);
    sp.fds[0] = -1;
    std::uint32_t type = 0;
    std::string got;
    EXPECT_FALSE(net::recvFrame(sp.fds[1], kMagic, 1 << 20, type, got));
}

TEST(NetFrame, ReadWriteFullHandleLargeTransfers)
{
    // Larger than any socket buffer, so both sides must loop over
    // partial reads/writes; run them concurrently to avoid deadlock.
    SocketPair sp;
    std::vector<std::uint8_t> out(4 * 1024 * 1024);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);

    std::thread writer([&] {
        EXPECT_TRUE(net::writeFull(sp.fds[0], out.data(), out.size()));
    });
    std::vector<std::uint8_t> in(out.size());
    EXPECT_TRUE(net::readFull(sp.fds[1], in.data(), in.size()));
    writer.join();
    EXPECT_EQ(in, out);
}

TEST(NetFrame, GatherSendSurvivesPartialWritesAndInterrupts)
{
    // A ~1 MB payload in four parts, one of them empty, sent through
    // a shrunken send buffer to a reader that drains it in small
    // chunks, while a signal without SA_RESTART keeps interrupting
    // the blocked sendmsg: every call that had written something
    // returns short, and the ones that had not fail with EINTR.
    SocketPair sp;
    const int sndbuf = 4096;
    ASSERT_EQ(::setsockopt(sp.fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)),
              0);
    // A send that loses bytes must fail the test, not hang the reader.
    timeval stall{};
    stall.tv_sec = 5;
    ASSERT_EQ(::setsockopt(sp.fds[1], SOL_SOCKET, SO_RCVTIMEO, &stall,
                           sizeof(stall)),
              0);
    std::vector<std::uint8_t> head(29), run(1 << 20), tail(17);
    for (std::size_t i = 0; i < head.size(); ++i)
        head[i] = static_cast<std::uint8_t>(0xA0 + i);
    for (std::size_t i = 0; i < run.size(); ++i)
        run[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
    for (std::size_t i = 0; i < tail.size(); ++i)
        tail[i] = static_cast<std::uint8_t>(0x50 + i);
    const std::vector<net::Part> parts = {
        std::as_bytes(std::span(head)), net::Part(),
        std::as_bytes(std::span(run)), std::as_bytes(std::span(tail))};

    std::string payload;
    payload.append(head.begin(), head.end());
    payload.append(run.begin(), run.end());
    payload.append(tail.begin(), tail.end());
    std::vector<std::uint8_t> expected;
    net::encodeFrameHeader(
        expected, {kMagic, 7, static_cast<std::uint32_t>(payload.size())});
    expected.insert(expected.end(), payload.begin(), payload.end());

    struct sigaction action{};
    struct sigaction previous{};
    action.sa_handler = countInterrupt;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: sendmsg must see the signal
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
    interrupts.store(0);
    const pthread_t sender = ::pthread_self();
    std::atomic<bool> sending{true};
    std::thread interrupter([&] {
        while (sending.load()) {
            ::pthread_kill(sender, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    std::vector<std::uint8_t> drained;
    std::thread reader([&] {
        std::uint8_t chunk[1000];
        while (drained.size() < expected.size()) {
            const ssize_t n = ::recv(sp.fds[1], chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            drained.insert(drained.end(), chunk, chunk + n);
        }
    });
    const bool sent = net::sendFrame(sp.fds[0], kMagic, 7, parts);

    // The same frame again, parsed by recvFrame on the other end.
    bool parsed = false;
    std::uint32_t type = 0;
    std::string got;
    reader.join();
    std::thread parser([&] {
        parsed = net::recvFrame(sp.fds[1], kMagic, 2 << 20, type, got);
    });
    const bool resent = net::sendFrame(sp.fds[0], kMagic, 7, parts);
    parser.join();
    sending.store(false);
    interrupter.join();
    ::sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_TRUE(sent);
    EXPECT_TRUE(resent);
    EXPECT_GT(interrupts.load(), 0);
    EXPECT_TRUE(drained == expected) << "drained " << drained.size()
                                     << " of " << expected.size()
                                     << " bytes, or different bytes";
    EXPECT_TRUE(parsed);
    EXPECT_EQ(type, 7u);
    EXPECT_TRUE(got == payload);
}

TEST(NetFrame, EmptyGatherSendsABareHeader)
{
    SocketPair sp;
    const std::vector<net::Part> empty_parts = {net::Part(), net::Part()};
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 5, empty_parts));
    ASSERT_TRUE(net::sendFrame(sp.fds[0], kMagic, 6,
                               std::span<const net::Part>()));
    ::close(sp.fds[0]);
    sp.fds[0] = -1;

    // Exactly two headers and nothing else, each a valid empty frame.
    std::vector<std::uint8_t> all(64);
    std::size_t have = 0;
    for (ssize_t n; (n = ::recv(sp.fds[1], all.data() + have,
                                all.size() - have, 0)) > 0;)
        have += static_cast<std::size_t>(n);
    ASSERT_EQ(have, 2 * net::kFrameHeaderBytes);
    const net::FrameHeader first = net::decodeFrameHeader(all.data());
    const net::FrameHeader second =
        net::decodeFrameHeader(all.data() + net::kFrameHeaderBytes);
    EXPECT_EQ(first.magic, kMagic);
    EXPECT_EQ(first.type, 5u);
    EXPECT_EQ(first.payloadLen, 0u);
    EXPECT_EQ(second.type, 6u);
    EXPECT_EQ(second.payloadLen, 0u);
}

TEST(NetFrame, RecvBufferParsesSplitFrames)
{
    // One frame delivered a few bytes at a time through RecvBuffer,
    // the way a non-blocking loop sees it.
    std::vector<std::uint8_t> stream;
    net::FrameHeader h;
    h.magic = kMagic;
    h.type = 9;
    h.payloadLen = 5;
    net::encodeFrameHeader(stream, h);
    const char *body = "hello";
    stream.insert(stream.end(), body, body + 5);

    net::RecvBuffer rb;
    bool parsed = false;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        rb.append(&stream[i], 1);
        if (rb.avail() < net::kFrameHeaderBytes)
            continue;
        const net::FrameHeader got = net::decodeFrameHeader(rb.data());
        if (rb.avail() < net::kFrameHeaderBytes + got.payloadLen) {
            rb.reclaim();
            continue;
        }
        EXPECT_EQ(got.magic, kMagic);
        EXPECT_EQ(got.type, 9u);
        const std::string payload(
            reinterpret_cast<const char *>(rb.data()) +
                net::kFrameHeaderBytes,
            got.payloadLen);
        EXPECT_EQ(payload, "hello");
        rb.consume(net::kFrameHeaderBytes + got.payloadLen);
        parsed = true;
    }
    EXPECT_TRUE(parsed);
    EXPECT_EQ(rb.avail(), 0u);
    rb.reclaim();
    EXPECT_EQ(rb.avail(), 0u);
}

TEST(NetFrame, RecvBufferConsumeAcrossMultipleFrames)
{
    net::RecvBuffer rb;
    std::vector<std::uint8_t> stream;
    for (std::uint32_t t = 1; t <= 3; ++t) {
        net::FrameHeader h;
        h.magic = kMagic;
        h.type = t;
        h.payloadLen = 1;
        net::encodeFrameHeader(stream, h);
        stream.push_back(static_cast<std::uint8_t>('a' + t));
    }
    rb.append(stream.data(), stream.size());

    for (std::uint32_t t = 1; t <= 3; ++t) {
        ASSERT_GE(rb.avail(), net::kFrameHeaderBytes + 1);
        const net::FrameHeader h = net::decodeFrameHeader(rb.data());
        EXPECT_EQ(h.type, t);
        EXPECT_EQ(rb.data()[net::kFrameHeaderBytes],
                  static_cast<std::uint8_t>('a' + t));
        rb.consume(net::kFrameHeaderBytes + 1);
    }
    EXPECT_EQ(rb.avail(), 0u);
}
