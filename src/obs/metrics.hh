/**
 * @file
 * Metrics snapshot/export layer.
 *
 * A MetricsRegistry aggregates sim::StatGroups from all over the
 * stack — live groups owned by components (registered by pointer,
 * snapshotted when they unregister), plus registry-owned groups fed
 * through the thread-safe count()/sample() helpers — and serializes
 * everything to one JSON document: every counter, and every
 * distribution with count/mean/min/max/stddev and p50/p95/p99 from
 * the histogram.
 *
 * The global registry is enabled by FA3C_METRICS_JSON=<path>; the
 * file is written at process exit and, when FA3C_METRICS_FLUSH_SEC is
 * set, re-written from a background thread that often, so snapshots
 * keep landing even when no instrumented code runs. Every write is an
 * atomic temp-file-plus-rename, never a truncated JSON.
 * All instrumentation helpers are cheap no-ops while disabled.
 */

#ifndef FA3C_OBS_METRICS_HH
#define FA3C_OBS_METRICS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace fa3c::obs {

/** Thread-safe registry of StatGroups with JSON export. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Fast check instrumentation sites use to skip all work. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /** Where the JSON lands at exit / on periodic flush ("" = off). */
    void setExportPath(std::string path);

    /**
     * Launch a background thread that snapshots the registry to the
     * export path every @p seconds (a long-lived serve process
     * flushes even when no instrumentation site runs). Idempotent;
     * <= 0 stops the thread instead.
     */
    void startPeriodicFlush(double seconds);

    /** Join the periodic-flush thread (also run by the destructor). */
    void stopPeriodicFlush();

    /**
     * Register a live group owned by the caller. @p group must stay
     * valid until unregisterGroup() is called with the returned
     * (possibly uniquified) name.
     */
    std::string registerGroup(const std::string &name,
                              const sim::StatGroup *group);

    /** Drop a live group, retaining its final snapshot for export. */
    void unregisterGroup(const std::string &name);

    /** Bump a counter in a registry-owned group (no-op if disabled). */
    void count(const std::string &group, const std::string &name,
               std::uint64_t delta = 1);

    /** Sample a distribution in a registry-owned group (no-op if
     * disabled). */
    void sample(const std::string &group, const std::string &name,
                double v);

    /**
     * Register @p hook to run at the start of every snapshot
     * (snapshotJson / forEachGroup / periodic flush) while the
     * registry lock is held. Bridges use this to sync externally
     * owned data (the sim::perf() counter banks) into live StatGroups
     * just before they are read, so exports always see current
     * values. Hooks MUST NOT call back into the registry (the lock is
     * held); they should only mutate StatGroups they themselves
     * registered. Hooks are skipped in flushBestEffort()
     * (the signal-handler path must stay minimal).
     */
    void addSnapshotHook(std::function<void()> hook);

    /** The full registry as a JSON document. */
    std::string snapshotJson() const;

    /**
     * Visit every group (live, registry-owned, and retained — the
     * latter with the same "@N" suffixing the JSON export uses) under
     * the registry lock. @p fn must not call back into the registry.
     */
    void forEachGroup(
        const std::function<void(const std::string &,
                                 const sim::StatGroup &)> &fn) const;

    /**
     * Serialize to @p path; returns false on I/O failure. The write
     * goes through a same-directory temp file renamed into place, so
     * a crash mid-write never leaves a truncated document behind.
     */
    bool writeTo(const std::string &path) const;

    /**
     * Write the export file now if the lock is free (signal-handler
     * path: skips rather than deadlocks when a flush is in flight).
     */
    bool flushBestEffort() const;

    /** Groups currently visible (live + owned + retained). */
    std::size_t groupCount() const;

  private:
    mutable std::mutex mutex_;
    std::atomic<bool> enabled_{false};
    std::string exportPath_;
    std::map<std::string, const sim::StatGroup *> live_;
    std::map<std::string, sim::StatGroup> owned_;
    std::vector<std::pair<std::string, sim::StatGroup>> retained_;
    std::vector<std::function<void()>> snapshotHooks_;
    int uniq_ = 0;

    // Periodic-flush thread state (flusherMutex_ only guards these;
    // it is never held together with mutex_).
    std::mutex flusherMutex_;
    std::condition_variable flusherCv_;
    std::thread flusher_;
    double flusherSec_ = 0.0;
    bool flusherStop_ = false;

    std::string snapshotJsonLocked() const;
    void flusherMain();
};

/**
 * RAII registration of a component-owned StatGroup with the global
 * registry: registers on construction (when metrics are enabled),
 * unregisters — retaining a final snapshot — on destruction.
 */
class ScopedMetricsGroup
{
  public:
    ScopedMetricsGroup(MetricsRegistry &registry,
                       const std::string &name,
                       const sim::StatGroup *group);
    ~ScopedMetricsGroup();

    ScopedMetricsGroup(const ScopedMetricsGroup &) = delete;
    ScopedMetricsGroup &operator=(const ScopedMetricsGroup &) = delete;

  private:
    MetricsRegistry *registry_ = nullptr;
    std::string name_;
};

/**
 * The process-wide registry, configured on first use from
 * FA3C_METRICS_JSON / FA3C_METRICS_FLUSH_SEC. Its destructor (at
 * process exit) writes the export file.
 */
MetricsRegistry &metrics();

} // namespace fa3c::obs

#endif // FA3C_OBS_METRICS_HH
