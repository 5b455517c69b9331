#include "obs/slo.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "obs/env_value.hh"
#include "sim/logging.hh"

namespace fa3c::obs {

SloMonitor::SloMonitor(Config cfg)
    : cfg_(std::move(cfg)),
      sliceDur_(std::max(cfg_.windowSec, 1e-3) /
                std::max(cfg_.slices, 1)),
      ring_(static_cast<std::size_t>(std::max(cfg_.slices, 1))),
      clock_([] { return std::chrono::steady_clock::now(); })
{
}

SloMonitor::Config
SloMonitor::configFromEnv(Config cfg)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (const char *w = std::getenv("FA3C_SLO_WINDOW_SEC"); w && *w)
        cfg.windowSec = parseEnvValue("FA3C_SLO_WINDOW_SEC", w, 1e-3, kInf)
                            .value_or(cfg.windowSec);
    if (const char *b = std::getenv("FA3C_SLO_MISS_BUDGET"); b && *b)
        cfg.missBudget = parseEnvValue("FA3C_SLO_MISS_BUDGET", b, 1e-9, 1.0)
                             .value_or(cfg.missBudget);
    return cfg;
}

void
SloMonitor::setClock(
    std::function<std::chrono::steady_clock::time_point()> clock)
{
    std::lock_guard<std::mutex> lock(mutex_);
    clock_ = std::move(clock);
}

void
SloMonitor::expireStaleLocked(
    std::chrono::steady_clock::time_point now) const
{
    const auto window = std::chrono::duration<double>(cfg_.windowSec);
    for (auto &slice : ring_) {
        if (slice.active && now - slice.start > window)
            slice = Slice{};
    }
}

SloMonitor::Slice &
SloMonitor::currentSliceLocked()
{
    const auto now = clock_();
    expireStaleLocked(now);
    Slice *slice = &ring_[current_];
    if (slice->active && now - slice->start >= sliceDur_) {
        current_ = (current_ + 1) % ring_.size();
        slice = &ring_[current_];
        *slice = Slice{};
    }
    if (!slice->active) {
        slice->active = true;
        slice->start = now;
    }
    return *slice;
}

void
SloMonitor::recordServed(double totalUs, bool deadlineMiss)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slice &slice = currentSliceLocked();
    slice.latencyUs.sample(totalUs);
    ++slice.served;
    if (deadlineMiss)
        ++slice.missed;
}

void
SloMonitor::recordTimedOut()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slice &slice = currentSliceLocked();
    ++slice.timedOut;
    ++slice.missed;
}

void
SloMonitor::recordRejected()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++currentSliceLocked().rejected;
}

SloMonitor::Snapshot
SloMonitor::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    expireStaleLocked(clock_());
    Snapshot snap;
    sim::Distribution merged;
    for (const auto &slice : ring_) {
        if (!slice.active)
            continue;
        merged.merge(slice.latencyUs);
        snap.served += slice.served;
        snap.missed += slice.missed;
        snap.timedOut += slice.timedOut;
        snap.rejected += slice.rejected;
    }
    snap.p50Us = merged.percentile(50.0);
    snap.p95Us = merged.percentile(95.0);
    snap.p99Us = merged.percentile(99.0);
    const std::uint64_t attempts = snap.served + snap.timedOut;
    if (attempts > 0)
        snap.missRatio = static_cast<double>(snap.missed) /
                         static_cast<double>(attempts);
    snap.burn = snap.missRatio / std::max(cfg_.missBudget, 1e-9);
    if (snap.burn > 1.0) {
        if (!breached_) {
            breached_ = true;
            FA3C_WARN("slo[", cfg_.name, "]: budget breach, burn=",
                      snap.burn, " missRatio=", snap.missRatio,
                      " budget=", cfg_.missBudget, " window=",
                      cfg_.windowSec, "s p99=", snap.p99Us, "us");
        }
    } else {
        breached_ = false;
    }
    return snap;
}

} // namespace fa3c::obs
