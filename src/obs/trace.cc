#include "obs/trace.hh"

#include <cstdlib>
#include <memory>
#include <sstream>

#include "obs/export_guard.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace fa3c::obs {

TraceWriter::TraceWriter(const std::string &path,
                         std::uint64_t max_events)
    : epoch_(std::chrono::steady_clock::now()),
      startUnixUs_(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())),
      osPid_(static_cast<int>(::getpid())), maxEvents_(max_events)
{
    ensureParentDir(path);
    out_.open(path, std::ios::trunc);
    if (!out_) {
        FA3C_WARN("FA3C_TRACE: cannot open '", path,
                  "' for writing; tracing disabled");
        return;
    }
    out_ << "{\"traceEvents\":[";
    std::lock_guard<std::mutex> lock(mutex_);
    hostPid_ = newProcessLocked("host (wall clock)");
    simPid_ = newProcessLocked("sim");
}

TraceWriter::~TraceWriter()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closeLocked();
}

void
TraceWriter::closeLocked()
{
    if (closed_ || !out_)
        return;
    closed_ = true;
    out_ << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         << "\"droppedEvents\":" << dropped_
         << ",\"pid\":" << osPid_
         << ",\"traceStartUnixUs\":" << jsonNumber(startUnixUs_)
         << ",\"clockOffsetUs\":" << jsonNumber(clockOffsetUs_)
         << ",\"processLabel\":\"" << jsonEscape(processLabel_)
         << "\"}}\n";
    out_.flush();
}

void
TraceWriter::setClockOffsetUs(double offset_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    clockOffsetUs_ = offset_us;
}

void
TraceWriter::setProcessLabel(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    processLabel_ = label;
}

int
TraceWriter::newProcess(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return newProcessLocked(name);
}

int
TraceWriter::newProcessLocked(const std::string &name)
{
    const int pid = nextPid_++;
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\""
       << jsonEscape(name) << "\"}}";
    emitLocked(os.str());
    return pid;
}

void
TraceWriter::setSimProcess(int pid)
{
    std::lock_guard<std::mutex> lock(mutex_);
    simPid_ = pid;
}

int
TraceWriter::simProcess() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return simPid_;
}

int
TraceWriter::tidForLocked(int pid, const std::string &track)
{
    const auto key = std::make_pair(pid, track);
    auto it = tids_.find(key);
    if (it != tids_.end())
        return it->second;
    const int tid = nextTid_[pid]++;
    tids_.emplace(key, tid);
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << jsonEscape(track) << "\"}}";
    emitLocked(os.str());
    return tid;
}

void
TraceWriter::emitLocked(const std::string &event_json)
{
    if (!out_ || closed_)
        return;
    if (written_ >= maxEvents_) {
        ++dropped_;
        metrics().count("trace", "dropped_events");
        return;
    }
    if (!firstEvent_)
        out_ << ",\n";
    firstEvent_ = false;
    out_ << event_json;
    ++written_;
}

void
TraceWriter::completeEvent(const std::string &track,
                           const std::string &name, sim::Tick start,
                           sim::Tick end, std::span<const TraceArg> args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int pid = simPid_;
    const int tid = tidForLocked(pid, track);
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"cat\":\"sim\",\"name\":\"" << jsonEscape(name)
       << "\",\"ts\":" << jsonNumber(toUs(start))
       << ",\"dur\":" << jsonNumber(toUs(end - start));
    if (!args.empty()) {
        os << ",\"args\":{";
        bool first = true;
        for (const auto &[k, v] : args) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << jsonEscape(k) << "\":" << jsonNumber(v);
        }
        os << '}';
    }
    os << '}';
    emitLocked(os.str());
}

void
TraceWriter::counterEvent(const std::string &counter, sim::Tick ts,
                          double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"ph\":\"C\",\"pid\":" << simPid_ << ",\"name\":\""
       << jsonEscape(counter) << "\",\"ts\":" << jsonNumber(toUs(ts))
       << ",\"args\":{\"value\":" << jsonNumber(value) << "}}";
    emitLocked(os.str());
}

double
TraceWriter::hostNowUs() const
{
    return hostUsAt(std::chrono::steady_clock::now());
}

double
TraceWriter::hostUsAt(std::chrono::steady_clock::time_point tp) const
{
    return std::chrono::duration<double, std::micro>(tp - epoch_)
        .count();
}

void
TraceWriter::hostCompleteEvent(const std::string &track,
                               const std::string &name, double start_us,
                               double end_us)
{
    hostCompleteEvent(track, name, start_us, end_us, {}, "host");
}

void
TraceWriter::hostCompleteEvent(const std::string &track,
                               const std::string &name, double start_us,
                               double end_us,
                               std::span<const TraceArg> args,
                               const char *cat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int tid = tidForLocked(hostPid_, track);
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"pid\":" << hostPid_ << ",\"tid\":" << tid
       << ",\"cat\":\"" << jsonEscape(cat) << "\",\"name\":\""
       << jsonEscape(name) << "\",\"ts\":" << jsonNumber(start_us)
       << ",\"dur\":" << jsonNumber(end_us - start_us);
    if (!args.empty()) {
        os << ",\"args\":{";
        bool first = true;
        for (const auto &[k, v] : args) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << jsonEscape(k) << "\":" << jsonNumber(v);
        }
        os << '}';
    }
    os << '}';
    emitLocked(os.str());
}

std::uint64_t
TraceWriter::eventsWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return written_;
}

std::uint64_t
TraceWriter::eventsDropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
TraceWriter::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    out_.flush();
}

void
TraceWriter::closeBestEffort()
{
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock())
        return;
    closeLocked();
}

TraceSpan::TraceSpan(std::string track, std::string name)
    : TraceSpan(trace(), std::move(track), std::move(name))
{
}

TraceSpan::~TraceSpan()
{
    if (writer_)
        writer_->hostCompleteEvent(track_, name_, startUs_,
                                   writer_->hostNowUs());
}

TraceProcessScope::TraceProcessScope(TraceWriter *writer,
                                     const std::string &name)
    : writer_(writer)
{
    if (!writer_)
        return;
    savedPid_ = writer_->simProcess();
    writer_->setSimProcess(writer_->newProcess(name));
}

TraceProcessScope::~TraceProcessScope()
{
    if (writer_)
        writer_->setSimProcess(savedPid_);
}

TraceWriter *
trace()
{
    static std::unique_ptr<TraceWriter> global =
        []() -> std::unique_ptr<TraceWriter> {
        const char *raw = std::getenv("FA3C_TRACE");
        if (!raw || !*raw)
            return nullptr;
        auto writer =
            std::make_unique<TraceWriter>(expandPathTokens(raw));
        if (!writer->ok())
            return nullptr;
        notifyTraceStarted(*writer);
        return writer;
    }();
    return global.get();
}

} // namespace fa3c::obs
