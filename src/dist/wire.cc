#include "dist/wire.hh"

#include "sim/serial.hh"

namespace fa3c::dist::wire {

namespace {

void
writeFloats(sim::ByteWriter &w, const std::vector<float> &v)
{
    w.write(static_cast<std::uint32_t>(v.size()));
    if (!v.empty())
        w.writeRaw(v.data(), v.size() * sizeof(float));
}

/** Read a float run; the count must be exactly 0 or @p expect. */
bool
readFloats(sim::ByteReader &r, std::vector<float> &v,
           std::size_t expect)
{
    std::uint32_t count = 0;
    if (!r.read(count))
        return false;
    if (count != 0 && count != expect)
        return false;
    if (static_cast<std::size_t>(count) * sizeof(float) >
        r.remaining())
        return false;
    v.resize(count);
    return count == 0 ||
           r.readRaw(v.data(), count * sizeof(float));
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
layoutCrc(const nn::ParamSet &params)
{
    sim::ByteWriter w;
    for (const auto &seg : params.segments()) {
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
encodeParams(std::string &out, const Params &m)
{
    sim::ByteWriter w;
    w.write(m.version);
    w.write(m.steps);
    w.write(m.stop);
    writeFloats(w, m.theta);
    out = w.bytes();
}

bool
decodeParams(Params &m, std::string_view payload,
             std::size_t expect_count)
{
    sim::ByteReader r(payload);
    return r.read(m.version) && r.read(m.steps) && r.read(m.stop) &&
           readFloats(r, m.theta, expect_count) && finish(r);
}

void
encodePush(std::string &out, const Push &m)
{
    sim::ByteWriter w;
    w.write(m.workerId);
    w.write(m.baseVersion);
    w.write(m.steps);
    w.write(m.wantParams);
    writeFloats(w, m.grads);
    writeTraceCtx(w, m.trace);
    out = w.bytes();
}

bool
decodePush(Push &m, std::string_view payload, std::size_t expect_count)
{
    sim::ByteReader r(payload);
    return r.read(m.workerId) && r.read(m.baseVersion) &&
           r.read(m.steps) && r.read(m.wantParams) &&
           readFloats(r, m.grads, expect_count) &&
           readTraceCtx(r, m.trace) && finish(r);
}

void
encodePushAck(std::string &out, const PushAck &m)
{
    sim::ByteWriter w;
    w.write(m.accepted);
    w.write(m.stop);
    w.write(m.version);
    w.write(m.steps);
    w.write(m.staleness);
    writeFloats(w, m.theta);
    out = w.bytes();
}

bool
decodePushAck(PushAck &m, std::string_view payload,
              std::size_t expect_count)
{
    sim::ByteReader r(payload);
    return r.read(m.accepted) && r.read(m.stop) &&
           r.read(m.version) && r.read(m.steps) &&
           r.read(m.staleness) &&
           readFloats(r, m.theta, expect_count) && finish(r);
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
