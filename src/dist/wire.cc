#include "dist/wire.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sim/logging.hh"
#include "sim/serial.hh"

namespace fa3c::dist::wire {

namespace {

// Fixed-field bytes around each message's f32 run; the u32 count
// prefix is part of the head.
constexpr std::size_t kParamsHeadBytes = 8 + 8 + 1 + 4;
constexpr std::size_t kPushHeadBytes = 8 + 8 + 8 + 1 + 4;
constexpr std::size_t kTraceCtxBytes = 8 + 8 + 1;
constexpr std::size_t kPushAckHeadBytes = 1 + 1 + 8 + 8 + 8 + 4;
// Largest reply without a run (StatsReply; Welcome is 52 bytes,
// HeartbeatAck 2).
constexpr std::size_t kStatsReplyBytes = 7 * 8 + 4;

static_assert(kPushHeadBytes <= sizeof(Gather::head) &&
              kPushAckHeadBytes <= sizeof(Gather::head) &&
              kParamsHeadBytes <= sizeof(Gather::head) &&
              kTraceCtxBytes <= sizeof(Gather::tail));

std::uint32_t
clampU32(std::size_t n)
{
    return static_cast<std::uint32_t>(std::min<std::size_t>(
        n, std::numeric_limits<std::uint32_t>::max()));
}

/** Appends fixed fields to a Gather's head or tail array. */
class FieldWriter
{
  public:
    explicit FieldWriter(std::span<std::byte> out) : out_(out) {}

    template <typename T>
    FieldWriter &
    put(T v)
    {
        FA3C_ASSERT(sizeof(T) <= out_.size() - size_,
                    "dist wire: fixed fields overflow the gather head");
        std::memcpy(out_.data() + size_, &v, sizeof(T));
        size_ += sizeof(T);
        return *this;
    }

    std::size_t size() const { return size_; }

  private:
    std::span<std::byte> out_;
    std::size_t size_ = 0;
};

/** Encode a run's count prefix and borrow the run into @p out. */
void
putRun(FieldWriter &w, Gather &out, std::span<const float> run)
{
    w.put(static_cast<std::uint32_t>(run.size()));
    out.run = run;
}

/** Validated position of a decoded f32 run inside its payload. */
struct RunView
{
    const char *bytes = nullptr;
    std::uint32_t count = 0;
};

/** Step over a run; its count must be exactly 0 or @p expect. */
bool
readRun(sim::ByteReader &r, std::size_t expect, RunView &run)
{
    return r.read(run.count) &&
           (run.count == 0 || run.count == expect) &&
           r.view(std::size_t{run.count} * sizeof(float), run.bytes);
}

/** Copy a validated run into @p dest (sized to the expected count);
 * @return the span the decoded message keeps. */
std::span<const float>
copyRun(const RunView &run, std::span<float> dest)
{
    if (run.count == 0)
        return {};
    std::memcpy(dest.data(), run.bytes, run.count * sizeof(float));
    return dest.first(run.count);
}

/** Decode must consume the whole payload: trailing bytes mean a
 * mismatched or corrupt frame. */
bool
finish(const sim::ByteReader &r)
{
    return r.ok() && r.remaining() == 0;
}

void
writeTraceCtx(sim::ByteWriter &w, const TraceCtx &t)
{
    w.write(t.traceId);
    w.write(t.spanId);
    w.write(t.sampled);
}

bool
readTraceCtx(sim::ByteReader &r, TraceCtx &t)
{
    return r.read(t.traceId) && r.read(t.spanId) && r.read(t.sampled);
}

} // namespace

std::uint32_t
maxRequestBytes(std::size_t count)
{
    return clampU32(kPushHeadBytes + count * sizeof(float) +
                    kTraceCtxBytes);
}

std::uint32_t
maxReplyBytes(std::size_t count)
{
    static_assert(kParamsHeadBytes <= kPushAckHeadBytes);
    return clampU32(std::max(kStatsReplyBytes,
                             kPushAckHeadBytes + count * sizeof(float)));
}

std::uint32_t
layoutCrc(const std::vector<nn::ParamSet::Segment> &layout)
{
    sim::ByteWriter w;
    for (const auto &seg : layout) {
        w.writeBlob(seg.name);
        w.write(static_cast<std::uint64_t>(seg.offset));
        w.write(static_cast<std::uint64_t>(seg.count));
    }
    return sim::crc32(w.bytes().data(), w.size());
}

void
encodeHello(std::string &out, const Hello &m)
{
    sim::ByteWriter w;
    w.writeBlob(m.workerName);
    w.write(m.paramCount);
    w.write(m.layoutCrc);
    w.write(m.clientUnixUs);
    out = w.bytes();
}

bool
decodeHello(Hello &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return r.readBlob(m.workerName) && r.read(m.paramCount) &&
           r.read(m.layoutCrc) && r.read(m.clientUnixUs) && finish(r);
}

void
encodeWelcome(std::string &out, const Welcome &m)
{
    sim::ByteWriter w;
    w.write(m.workerId);
    w.write(m.leaseTtlMs);
    w.write(m.version);
    w.write(m.steps);
    w.write(m.totalSteps);
    w.write(m.maxStaleness);
    w.write(m.serverUnixUs);
    out = w.bytes();
}

bool
decodeWelcome(Welcome &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return r.read(m.workerId) && r.read(m.leaseTtlMs) &&
           r.read(m.version) && r.read(m.steps) &&
           r.read(m.totalSteps) && r.read(m.maxStaleness) &&
           r.read(m.serverUnixUs) && finish(r);
}

void
encodePull(std::string &out, const Pull &m)
{
    sim::ByteWriter w;
    writeTraceCtx(w, m.trace);
    out = w.bytes();
}

bool
decodePull(Pull &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return readTraceCtx(r, m.trace) && finish(r);
}

void
encodeParams(Gather &out, const Params &m)
{
    FieldWriter w(out.head);
    w.put(m.version).put(m.steps).put(m.stop);
    putRun(w, out, m.theta);
    out.headLen = w.size();
    out.tailLen = 0;
}

bool
decodeParams(Params &m, std::string_view payload,
             std::span<float> theta)
{
    sim::ByteReader r(payload);
    Params got;
    RunView run;
    if (!(r.read(got.version) && r.read(got.steps) && r.read(got.stop) &&
          readRun(r, theta.size(), run) && finish(r)))
        return false;
    got.theta = copyRun(run, theta);
    m = got;
    return true;
}

void
encodePush(Gather &out, const Push &m)
{
    FieldWriter w(out.head);
    w.put(m.workerId).put(m.baseVersion).put(m.steps).put(m.wantParams);
    putRun(w, out, m.grads);
    out.headLen = w.size();
    FieldWriter t(out.tail);
    t.put(m.trace.traceId).put(m.trace.spanId).put(m.trace.sampled);
    out.tailLen = t.size();
}

bool
decodePush(Push &m, std::string_view payload, std::span<float> grads)
{
    sim::ByteReader r(payload);
    Push got;
    RunView run;
    if (!(r.read(got.workerId) && r.read(got.baseVersion) &&
          r.read(got.steps) && r.read(got.wantParams) &&
          readRun(r, grads.size(), run) && readTraceCtx(r, got.trace) &&
          finish(r)))
        return false;
    got.grads = copyRun(run, grads);
    m = got;
    return true;
}

void
encodePushAck(Gather &out, const PushAck &m)
{
    FieldWriter w(out.head);
    w.put(m.accepted).put(m.stop).put(m.version).put(m.steps).put(
        m.staleness);
    putRun(w, out, m.theta);
    out.headLen = w.size();
    out.tailLen = 0;
}

bool
decodePushAck(PushAck &m, std::string_view payload,
              std::span<float> theta)
{
    sim::ByteReader r(payload);
    PushAck got;
    RunView run;
    if (!(r.read(got.accepted) && r.read(got.stop) &&
          r.read(got.version) && r.read(got.steps) &&
          r.read(got.staleness) && readRun(r, theta.size(), run) &&
          finish(r)))
        return false;
    got.theta = copyRun(run, theta);
    m = got;
    return true;
}

void
encodeHeartbeat(std::string &out, const Heartbeat &m)
{
    sim::ByteWriter w;
    w.write(m.workerId);
    out = w.bytes();
}

bool
decodeHeartbeat(Heartbeat &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return r.read(m.workerId) && finish(r);
}

void
encodeHeartbeatAck(std::string &out, const HeartbeatAck &m)
{
    sim::ByteWriter w;
    w.write(m.known);
    w.write(m.stop);
    out = w.bytes();
}

bool
decodeHeartbeatAck(HeartbeatAck &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return r.read(m.known) && r.read(m.stop) && finish(r);
}

void
encodeStatsReply(std::string &out, const StatsReply &m)
{
    sim::ByteWriter w;
    w.write(m.version);
    w.write(m.steps);
    w.write(m.totalSteps);
    w.write(m.activeLeases);
    w.write(m.joined);
    w.write(m.reaped);
    w.write(m.pushes);
    w.write(m.pushRejects);
    out = w.bytes();
}

bool
decodeStatsReply(StatsReply &m, std::string_view payload)
{
    sim::ByteReader r(payload);
    return r.read(m.version) && r.read(m.steps) &&
           r.read(m.totalSteps) && r.read(m.activeLeases) &&
           r.read(m.joined) && r.read(m.reaped) && r.read(m.pushes) &&
           r.read(m.pushRejects) && finish(r);
}

} // namespace fa3c::dist::wire
