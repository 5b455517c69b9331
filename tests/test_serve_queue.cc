/** @file Admission control, ordering, and batch formation of RequestQueue. */

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "serve/request_queue.hh"

using namespace fa3c;
using namespace fa3c::serve;
using namespace std::chrono_literals;

namespace {

Request
makeRequest(std::uint64_t id,
            Clock::time_point deadline = kNoDeadline)
{
    Request r;
    r.id = id;
    r.enqueue = Clock::now();
    r.deadline = deadline;
    return r;
}

} // namespace

TEST(ServeQueue, RejectsWhenDepthExceeded)
{
    RequestQueue queue({.maxDepth = 2, .edf = true});
    EXPECT_EQ(queue.admit(makeRequest(1)), Status::Ok);
    EXPECT_EQ(queue.admit(makeRequest(2)), Status::Ok);
    EXPECT_EQ(queue.admit(makeRequest(3)), Status::RejectedQueueFull);
    EXPECT_EQ(queue.depth(), 2u);
}

TEST(ServeQueue, RejectsExpiredAndInfeasibleDeadlines)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    // A deadline already in the past is dead on arrival.
    EXPECT_EQ(queue.admit(makeRequest(1, Clock::now() - 1ms)),
              Status::RejectedDeadline);
    // With a 1 s per-request service estimate, a 1 ms budget behind
    // one queued request is infeasible.
    EXPECT_EQ(queue.admit(makeRequest(2)), Status::Ok);
    queue.noteServiceTime(1e6);
    EXPECT_EQ(queue.admit(makeRequest(3, Clock::now() + 1ms)),
              Status::RejectedDeadline);
    // A generous budget still clears the estimate.
    EXPECT_EQ(queue.admit(makeRequest(4, Clock::now() + 10s)),
              Status::Ok);
}

TEST(ServeQueue, ExpiredEntriesDoNotCountTowardAdmission)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    // Three requests expire while queued (admitted while the service
    // estimate was still zero, so their tight deadlines cleared).
    ASSERT_EQ(queue.admit(makeRequest(1, Clock::now() + 1ms)),
              Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(2, Clock::now() + 1ms)),
              Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(3, Clock::now() + 1ms)),
              Status::Ok);
    std::this_thread::sleep_for(5ms);
    queue.noteServiceTime(50'000.0); // 50 ms per request
    // Only the fresh request itself is pending service: the wait
    // estimate is 1 x 50 ms, so a 150 ms budget is feasible. Counting
    // the three expired entries (4 x 50 ms = 200 ms) would wrongly
    // reject a request the scheduler would serve immediately.
    EXPECT_EQ(queue.admit(makeRequest(4, Clock::now() + 150ms)),
              Status::Ok);
}

TEST(ServeQueue, ExpiredAccountingSurvivesPopBatch)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    // Two requests expire while queued; a feasibility-checked admit
    // then observes them as expired (the purge), and popBatch drains
    // them. The expired-entry bookkeeping must return to zero with
    // the queue, or later admissions would over- or under-estimate
    // the wait.
    ASSERT_EQ(queue.admit(makeRequest(1, Clock::now() + 1ms)),
              Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(2, Clock::now() + 1ms)),
              Status::Ok);
    std::this_thread::sleep_for(5ms);
    queue.noteServiceTime(50'000.0); // 50 ms per request
    EXPECT_EQ(queue.admit(makeRequest(3, Clock::now() + 150ms)),
              Status::Ok);
    std::vector<Request> out;
    std::vector<Request> expired;
    ASSERT_TRUE(queue.popBatch(4, out, expired));
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(expired.size(), 2u);
    EXPECT_EQ(queue.depth(), 0u);
    // Empty queue again: only the request itself is pending, so a
    // 150 ms budget clears the 50 ms estimate. A stale expired count
    // in either direction skews the estimate and flips this verdict.
    EXPECT_EQ(queue.admit(makeRequest(4, Clock::now() + 150ms)),
              Status::Ok);
    out.clear();
    expired.clear();
    ASSERT_TRUE(queue.popBatch(4, out, expired));
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(expired.empty());
}

TEST(ServeQueue, PopsEarliestDeadlineFirst)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    const auto now = Clock::now();
    ASSERT_EQ(queue.admit(makeRequest(1, now + 30s)), Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(2, now + 10s)), Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(3)), Status::Ok); // no deadline
    ASSERT_EQ(queue.admit(makeRequest(4, now + 20s)), Status::Ok);

    std::vector<Request> out;
    std::vector<Request> expired;
    ASSERT_TRUE(queue.popBatch(4, out, expired));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(expired.empty());
    EXPECT_EQ(out[0].id, 2u);
    EXPECT_EQ(out[1].id, 4u);
    EXPECT_EQ(out[2].id, 1u);
    EXPECT_EQ(out[3].id, 3u); // deadline-less requests sort last
}

TEST(ServeQueue, FifoModePreservesArrivalOrder)
{
    RequestQueue queue({.maxDepth = 16, .edf = false});
    const auto now = Clock::now();
    ASSERT_EQ(queue.admit(makeRequest(1, now + 30s)), Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(2, now + 10s)), Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(3, now + 20s)), Status::Ok);

    std::vector<Request> out;
    std::vector<Request> expired;
    ASSERT_TRUE(queue.popBatch(3, out, expired));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[1].id, 2u);
    EXPECT_EQ(out[2].id, 3u);
}

TEST(ServeQueue, ExpiredRequestsAreSeparated)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    // Admission only rejects deadlines that are already infeasible at
    // push time; this one expires while it sits in the queue.
    ASSERT_EQ(queue.admit(makeRequest(1, Clock::now() + 2ms)),
              Status::Ok);
    ASSERT_EQ(queue.admit(makeRequest(2)), Status::Ok);
    std::this_thread::sleep_for(5ms);

    std::vector<Request> out;
    std::vector<Request> expired;
    ASSERT_TRUE(queue.popBatch(4, out, expired));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, 2u);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 1u);
}

TEST(ServeQueue, MaxBatchIsRespected)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    for (std::uint64_t i = 1; i <= 5; ++i)
        ASSERT_EQ(queue.admit(makeRequest(i)), Status::Ok);

    std::vector<Request> out;
    std::vector<Request> expired;
    ASSERT_TRUE(queue.popBatch(2, out, expired));
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(queue.depth(), 3u);
}

TEST(ServeQueue, PartialBatchReturnsWithoutWaiting)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    ASSERT_EQ(queue.admit(makeRequest(1)), Status::Ok);
    std::thread late([&queue] {
        std::this_thread::sleep_for(200ms);
        (void)queue.admit(makeRequest(2));
    });
    std::vector<Request> out;
    std::vector<Request> expired;
    const auto t0 = Clock::now();
    ASSERT_TRUE(queue.popBatch(2, out, expired));
    EXPECT_LT(Clock::now() - t0, 50ms);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, 1u);

    // The next pop blocks until the late request arrives.
    out.clear();
    ASSERT_TRUE(queue.popBatch(2, out, expired));
    late.join();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, 2u);
    EXPECT_TRUE(expired.empty());
}

TEST(ServeQueue, CloseDrainsThenSignalsShutdown)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    ASSERT_EQ(queue.admit(makeRequest(1)), Status::Ok);
    queue.close();
    EXPECT_EQ(queue.admit(makeRequest(2)), Status::RejectedClosed);

    std::vector<Request> out;
    std::vector<Request> expired;
    EXPECT_TRUE(queue.popBatch(4, out, expired));
    EXPECT_EQ(out.size(), 1u);
    out.clear();
    EXPECT_FALSE(queue.popBatch(4, out, expired));
}

TEST(ServeQueue, CloseWakesBlockedPopper)
{
    RequestQueue queue({.maxDepth = 16, .edf = true});
    std::thread closer([&queue] {
        std::this_thread::sleep_for(10ms);
        queue.close();
    });
    std::vector<Request> out;
    std::vector<Request> expired;
    EXPECT_FALSE(queue.popBatch(4, out, expired));
    closer.join();
}

TEST(ServeQueue, ServiceEstimateIsSmoothed)
{
    RequestQueue queue({.maxDepth = 4, .edf = true});
    EXPECT_EQ(queue.serviceEstimateUs(), 0.0);
    queue.noteServiceTime(100.0);
    EXPECT_DOUBLE_EQ(queue.serviceEstimateUs(), 100.0);
    queue.noteServiceTime(200.0);
    EXPECT_DOUBLE_EQ(queue.serviceEstimateUs(),
                     0.8 * 100.0 + 0.2 * 200.0);
}
