#include "nn/kernels/threadpool.hh"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/kernel_threads.hh"

namespace fa3c::nn::kernels {

namespace {

int
resolveThreads()
{
    if (const int width = sim::kernelThreadsFromEnv(); width > 0)
        return width;
    const unsigned half = std::thread::hardware_concurrency() / 2;
    return static_cast<int>(half < 1 ? 1 : (half > 4 ? 4 : half));
}

/**
 * Fork-join pool: the submitting thread publishes a job under the
 * pool mutex, wakes the workers, claims tasks alongside them via an
 * atomic cursor, and waits for the completion count. Workers park on
 * the condition variable between jobs.
 *
 * The cursor packs (generation, next task index) into one 64-bit
 * atomic, and a claim is a CAS that only succeeds while the cursor
 * still carries the claimer's generation. A worker that captured job
 * N but stalls until job N+1 is published therefore cannot claim one
 * of N+1's tasks through N's (now dangling) function pointer, nor
 * bump N+1's completion count for work it never did: its CAS sees a
 * different generation and the worker goes back to sleep. A
 * successful claim conversely pins the job alive — run() cannot
 * return (and let the caller destroy the std::function) until that
 * task's done_ increment lands.
 */
class Pool
{
  public:
    explicit Pool(int width)
    {
        for (int i = 0; i < width - 1; ++i)
            workers_.emplace_back([this] { workerMain(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    void
    run(int tasks, const std::function<void(int)> &fn)
    {
        std::uint64_t gen;
        {
            std::lock_guard<std::mutex> lk(m_);
            fn_ = &fn;
            taskCount_ = tasks;
            gen = ++gen_;
            done_.store(0, std::memory_order_relaxed);
            // Publishing the new generation in the cursor invalidates
            // every outstanding claim attempt from older jobs; done_
            // was safely reset above because the previous run() only
            // returned once all of its claims had drained.
            cursor_.store((gen & 0xffffffffu) << 32,
                          std::memory_order_release);
        }
        cv_.notify_all();
        drain(&fn, tasks, gen);
        std::unique_lock<std::mutex> lk(m_);
        doneCv_.wait(lk, [&] {
            return done_.load(std::memory_order_acquire) == tasks;
        });
        fn_ = nullptr;
    }

  private:
    void
    drain(const std::function<void(int)> *fn, int tasks,
          std::uint64_t gen)
    {
        gen &= 0xffffffffu; // cursor carries the low 32 bits only
        std::uint64_t cur = cursor_.load(std::memory_order_acquire);
        for (;;) {
            if ((cur >> 32) != gen)
                return; // a newer job owns the cursor; ours is done
            const int t = static_cast<int>(cur & 0xffffffffu);
            if (t >= tasks)
                return;
            if (!cursor_.compare_exchange_weak(
                    cur,
                    (gen << 32) | static_cast<std::uint32_t>(t + 1),
                    std::memory_order_acq_rel,
                    std::memory_order_acquire))
                continue;
            // A successful claim pins the job alive: run() cannot
            // return (and destroy fn) until this task's done_ lands.
            (*fn)(t);
            if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                tasks) {
                std::lock_guard<std::mutex> lk(m_);
                doneCv_.notify_one();
            }
            cur = cursor_.load(std::memory_order_acquire);
        }
    }

    void
    workerMain()
    {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(int)> *fn;
            int tasks;
            {
                std::unique_lock<std::mutex> lk(m_);
                cv_.wait(lk, [&] { return stop_ || gen_ != seen; });
                if (stop_)
                    return;
                seen = gen_;
                fn = fn_;
                tasks = taskCount_;
            }
            if (fn != nullptr)
                drain(fn, tasks, seen);
        }
    }

    std::mutex m_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> workers_;
    const std::function<void(int)> *fn_ = nullptr;
    int taskCount_ = 0;
    std::uint64_t gen_ = 0;
    bool stop_ = false;
    /// (generation << 32) | next-task-index; claims CAS the low half
    /// and are rejected once the high half moves past their job. The
    /// 32-bit generation wraps after 2^32 jobs; a worker would have
    /// to sleep across that entire span for ABA, which the cv wakeup
    /// per job makes unreachable in practice.
    std::atomic<std::uint64_t> cursor_{0};
    std::atomic<int> done_{0};
};

std::mutex &
poolGate()
{
    static std::mutex gate;
    return gate;
}

Pool &
pool()
{
    static Pool p(kernelThreads());
    return p;
}

} // namespace

int
kernelThreads()
{
    static const int n = resolveThreads();
    return n;
}

void
parallelFor(int tasks, const std::function<void(int)> &fn)
{
    if (tasks <= 1 || kernelThreads() <= 1) {
        for (int t = 0; t < tasks; ++t)
            fn(t);
        return;
    }
    std::unique_lock<std::mutex> lk(poolGate(), std::try_to_lock);
    if (!lk.owns_lock()) {
        // Another thread owns the pool; inline is both correct and
        // the better schedule (the callers are already parallel).
        for (int t = 0; t < tasks; ++t)
            fn(t);
        return;
    }
    pool().run(tasks, fn);
}

} // namespace fa3c::nn::kernels
