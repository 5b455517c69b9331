/**
 * @file
 * Latency sampler for the nn.kernel.* histograms, the one per-kernel
 * timing signal. Shared by the CPU backends' translation units
 * (fast_cpu_backend.cc, quant_backend.cc); bench_nn_kernels
 * calibrates its cost. No public header includes it.
 */

#ifndef FA3C_RL_KERNEL_TIMER_HH
#define FA3C_RL_KERNEL_TIMER_HH

#include <chrono>

#include "obs/metrics.hh"

namespace fa3c::rl {

/**
 * Times the enclosing scope into nn.kernel.<name> only while metrics
 * are enabled, so the fast path pays one relaxed atomic load when
 * observability is off.
 */
class KernelTimer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit KernelTimer(const char *name)
        : name_(name), enabled_(obs::metrics().enabled())
    {
        if (enabled_)
            start_ = Clock::now();
    }

    ~KernelTimer()
    {
        if (!enabled_)
            return;
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      start_)
                .count();
        obs::metrics().sample("nn.kernel", name_, us);
    }

    KernelTimer(const KernelTimer &) = delete;
    KernelTimer &operator=(const KernelTimer &) = delete;

  private:
    const char *name_;
    bool enabled_;
    Clock::time_point start_;
};

} // namespace fa3c::rl

#endif // FA3C_RL_KERNEL_TIMER_HH
