/**
 * @file
 * Fork-join pool tests. The central invariant: every task of every
 * job runs exactly once, and run() does not return before all of its
 * own tasks finished — even under rapid back-to-back jobs, where a
 * worker woken for job N may arrive only after N completed and N+1
 * was published (the stale-worker window; claims are
 * generation-checked so such a worker must touch nothing).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels/threadpool.hh"
#include "sim/logging.hh"

using fa3c::nn::kernels::kernelThreads;
using fa3c::nn::kernels::parallelFor;

namespace {

TEST(NnThreadpool, RunsEveryTaskOnce)
{
    std::vector<std::atomic<int>> counts(64);
    for (auto &c : counts)
        c.store(0);
    parallelFor(64, [&](int t) {
        counts[static_cast<std::size_t>(t)].fetch_add(1);
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(NnThreadpool, ZeroAndSingleTask)
{
    std::atomic<int> ran{0};
    parallelFor(0, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
    parallelFor(1, [&](int t) {
        EXPECT_EQ(t, 0);
        ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 1);
}

/**
 * Back-to-back jobs with small, varying task counts maximize the
 * window where a worker wakes for a job that already completed while
 * the next one is being published. The per-job exactly-once check
 * catches both symptoms of a stale claim: a task of the new job
 * stolen through the old (destroyed) function object never increments
 * its counter, and a spurious completion lets run() return with some
 * counter still 0.
 */
TEST(NnThreadpool, BackToBackJobsStayIsolated)
{
    constexpr int kJobs = 4000;
    constexpr int kMaxTasks = 7;
    std::vector<std::atomic<int>> counts(kMaxTasks);
    for (int j = 0; j < kJobs; ++j) {
        const int tasks = 2 + j % (kMaxTasks - 1);
        for (int t = 0; t < tasks; ++t)
            counts[static_cast<std::size_t>(t)].store(0);
        {
            // Scoped like the real GEMM callers: the job's function
            // object dies as soon as parallelFor returns, so any
            // stale dereference is a use-after-free (visible under
            // ASAN, and as a miscount here).
            const std::function<void(int)> fn = [&](int t) {
                counts[static_cast<std::size_t>(t)].fetch_add(1);
            };
            parallelFor(tasks, fn);
        }
        for (int t = 0; t < tasks; ++t)
            ASSERT_EQ(counts[static_cast<std::size_t>(t)].load(), 1)
                << "job " << j << " task " << t;
    }
}

/** Concurrent submitters take the inline path; totals must still add
 *  up (each task of each caller's job exactly once). */
TEST(NnThreadpool, ConcurrentCallersRunInline)
{
    constexpr int kCallers = 4;
    constexpr int kJobsPerCaller = 200;
    constexpr int kTasks = 16;
    std::atomic<long> total{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back([&] {
            for (int j = 0; j < kJobsPerCaller; ++j)
                parallelFor(kTasks,
                            [&](int) { total.fetch_add(1); });
        });
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(total.load(),
              static_cast<long>(kCallers) * kJobsPerCaller * kTasks);
}

TEST(NnThreadpool, WidthIsAtLeastOne)
{
    EXPECT_GE(kernelThreads(), 1);
}

/**
 * A width far above the core count is clamped to the hardware thread
 * count with a warning. kernelThreads() caches its first read, so the
 * check runs in a re-executed child that sets the variable before the
 * first call. The child never calls parallelFor, so no pool (and no
 * thread) is ever built.
 */
TEST(NnThreadpoolDeathTest, EnvWidthClampsToHardwareThreads)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    EXPECT_EXIT(
        {
            fa3c::sim::setLogLevel(fa3c::sim::LogLevel::Warn);
            ::setenv("FA3C_KERNEL_THREADS", "1000000", 1);
            std::exit(kernelThreads() == cores ? 0 : 1);
        },
        ::testing::ExitedWithCode(0),
        "FA3C_KERNEL_THREADS=1000000 exceeds");
}

} // namespace
