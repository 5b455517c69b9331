/**
 * @file
 * Chrome trace-event JSON writer (the format Perfetto and
 * chrome://tracing consume).
 *
 * Two clock domains coexist in one file:
 *  - simulated time: sim::Tick (picoseconds) converted to trace
 *    microseconds, emitted by the platform/DRAM/agent-driver models;
 *  - host wall-clock: microseconds since the writer was created,
 *    emitted by the RL training loops via the RAII TraceSpan.
 *
 * Every simulation run can claim its own trace process (pid) so
 * back-to-back measurements that each start at tick 0 do not overlap
 * in the viewer; host events live on a dedicated "host" process.
 *
 * Enable globally by setting FA3C_TRACE=<path>; all instrumentation
 * sites are no-ops when tracing is off (trace() returns nullptr).
 * The writer caps the event count (8 M by default); past the cap
 * events are dropped (and counted in both the trace footer and the
 * `trace.dropped_events` metric) rather than growing the file without
 * bound.
 */

#ifndef FA3C_OBS_TRACE_HH
#define FA3C_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "sim/types.hh"

namespace fa3c::obs {

/** A named numeric argument attached to a trace event. */
using TraceArg = std::pair<const char *, double>;

/** Thread-safe trace-event JSON file writer. */
class TraceWriter
{
  public:
    /**
     * Opens @p path for writing; check ok() afterwards. Events past
     * @p max_events are dropped.
     */
    explicit TraceWriter(const std::string &path,
                         std::uint64_t max_events = 8'000'000);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** True when the output file opened successfully. */
    bool ok() const { return static_cast<bool>(out_); }

    /**
     * Register a new trace process and emit its process_name
     * metadata.
     *
     * @return The pid to use for subsequent events.
     */
    int newProcess(const std::string &name);

    /** Route subsequent sim-clock events to @p pid. */
    void setSimProcess(int pid);

    /** The pid sim-clock events currently target. */
    int simProcess() const;

    /**
     * Emit a complete ("X") event on @p track of the current sim
     * process. Tracks are materialized as named threads on first use.
     */
    void completeEvent(const std::string &track, const std::string &name,
                       sim::Tick start, sim::Tick end,
                       std::span<const TraceArg> args = {});

    /** Emit a counter ("C") event on the current sim process. */
    void counterEvent(const std::string &counter, sim::Tick ts,
                      double value);

    /** Microseconds of host wall-clock since this writer was made. */
    double hostNowUs() const;

    /**
     * CLOCK_REALTIME unix microseconds captured at construction,
     * alongside the steady-clock epoch that event timestamps are
     * relative to. tools/trace_merge uses it (corrected by the
     * handshake clock offset below) to place this file's events on a
     * shared fleet timeline.
     */
    double startUnixUs() const { return startUnixUs_; }

    /**
     * Record this host's estimated wall-clock offset versus the fleet
     * reference (positive = this clock runs ahead), typically
     * measured from a handshake timestamp exchange. Written into the
     * trace footer for tools/trace_merge.
     */
    void setClockOffsetUs(double offset_us);

    /** Human label for this process in merged traces (footer). */
    void setProcessLabel(const std::string &label);

    /** @p tp on this writer's host-microsecond timeline. */
    double hostUsAt(std::chrono::steady_clock::time_point tp) const;

    /** Emit a complete event on the host process (wall-clock µs). */
    void hostCompleteEvent(const std::string &track,
                           const std::string &name, double start_us,
                           double end_us);

    /** Host complete event with args and an explicit category. */
    void hostCompleteEvent(const std::string &track,
                           const std::string &name, double start_us,
                           double end_us,
                           std::span<const TraceArg> args,
                           const char *cat = "host");

    std::uint64_t eventsWritten() const;
    std::uint64_t eventsDropped() const;

    /** Flush buffered output to disk (the file stays open). */
    void flush();

    /**
     * Finalize the JSON now if the lock is free (signal-handler path:
     * skips rather than deadlocks when an emit is in flight). Later
     * events are dropped; the destructor close becomes a no-op.
     */
    void closeBestEffort();

  private:
    mutable std::mutex mutex_;
    std::ofstream out_;
    std::chrono::steady_clock::time_point epoch_;
    double startUnixUs_ = 0.0;
    double clockOffsetUs_ = 0.0;
    int osPid_ = 0;
    std::string processLabel_;
    std::uint64_t maxEvents_;
    std::uint64_t written_ = 0;
    std::uint64_t dropped_ = 0;
    bool firstEvent_ = true;
    bool closed_ = false;
    int nextPid_ = 0;
    int hostPid_ = 0;
    int simPid_ = 0;
    std::map<int, int> nextTid_;
    std::map<std::pair<int, std::string>, int> tids_;

    int newProcessLocked(const std::string &name);
    int tidForLocked(int pid, const std::string &track);
    void emitLocked(const std::string &event_json);
    void closeLocked();

    static double toUs(sim::Tick t)
    {
        return static_cast<double>(t) / 1e6; // ps -> µs
    }
};

/**
 * RAII host wall-clock span: opens at construction, emits a complete
 * event on destruction. No-op when @p writer is null, so it can wrap
 * code paths unconditionally.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceWriter *writer, std::string track, std::string name)
        : writer_(writer), track_(std::move(track)),
          name_(std::move(name)),
          startUs_(writer_ ? writer_->hostNowUs() : 0.0)
    {
    }

    /** Span against the global writer (FA3C_TRACE). */
    TraceSpan(std::string track, std::string name);

    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceWriter *writer_;
    std::string track_;
    std::string name_;
    double startUs_;
};

/**
 * Scoped sim-process switch: events between construction and
 * destruction land on a fresh named trace process. No-op when
 * @p writer is null.
 */
class TraceProcessScope
{
  public:
    TraceProcessScope(TraceWriter *writer, const std::string &name);
    ~TraceProcessScope();

    TraceProcessScope(const TraceProcessScope &) = delete;
    TraceProcessScope &operator=(const TraceProcessScope &) = delete;

  private:
    TraceWriter *writer_;
    int savedPid_ = 0;
};

/**
 * The process-wide trace writer, created on first use from the
 * FA3C_TRACE environment variable.
 *
 * @return nullptr when tracing is disabled.
 */
TraceWriter *trace();

} // namespace fa3c::obs

#endif // FA3C_OBS_TRACE_HH
