#include "rl/checkpoint.hh"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/metrics.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/serial.hh"

namespace fa3c::rl {

namespace {

constexpr std::uint32_t checkpointMagic = 0xFA3CC4B7;

/** Refuse files whose payload would exceed this, before reading them
 * (a corrupt or hostile file must not drive a multi-gigabyte
 * allocation). */
constexpr std::uint32_t maxPayloadBytes = 1u << 30;

struct ImageHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t payloadSize;
    std::uint32_t payloadCrc;
};

std::string
checkpointToImage(const TrainingCheckpoint &ckpt)
{
    sim::ByteWriter payload;
    payload.writeBlob(ckpt.algorithm);
    payload.write(ckpt.globalSteps);
    payload.write(ckpt.updates);
    payload.write(ckpt.refreshes);
    payload.write(ckpt.updatesSinceRefresh);
    payload.write(ckpt.trainerRng);
    payload.write(
        static_cast<std::uint8_t>(ckpt.hasAgentState ? 1 : 0));

    // theta and g share one layout, so one table describes both.
    FA3C_ASSERT(ckpt.theta.sameLayout(ckpt.rmspropG),
                "checkpoint theta and g layouts differ");
    payload.write(
        static_cast<std::uint32_t>(ckpt.theta.segments().size()));
    for (const auto &seg : ckpt.theta.segments()) {
        payload.writeBlob(seg.name);
        payload.write(static_cast<std::uint32_t>(seg.count));
    }
    payload.writeRaw(ckpt.theta.flat().data(), ckpt.theta.sizeBytes());
    payload.writeRaw(ckpt.rmspropG.flat().data(),
                     ckpt.rmspropG.sizeBytes());

    payload.write(
        static_cast<std::uint32_t>(ckpt.agentStates.size()));
    for (const std::string &blob : ckpt.agentStates)
        payload.writeBlob(blob);
    payload.write(static_cast<std::uint32_t>(ckpt.scoreTail.size()));
    for (const EpisodeRecord &rec : ckpt.scoreTail) {
        payload.write(rec.globalStep);
        payload.write(rec.score);
        payload.write(static_cast<std::int32_t>(rec.agentId));
    }

    ImageHeader header{checkpointMagic, kCheckpointVersion,
                       static_cast<std::uint32_t>(payload.size()),
                       sim::crc32(payload.bytes().data(),
                                  payload.size())};
    sim::ByteWriter image;
    image.write(header);
    image.writeRaw(payload.bytes().data(), payload.size());
    return image.bytes();
}

/**
 * Validate @p image and parse it into a staging checkpoint whose
 * parameter sets are shaped like @p ckpt's; commit into @p ckpt only
 * when every section parses.
 */
bool
checkpointFromImage(TrainingCheckpoint &ckpt, std::string_view image)
{
    sim::ByteReader reader(image);
    ImageHeader header{};
    if (!reader.read(header) || header.magic != checkpointMagic ||
        header.version != kCheckpointVersion ||
        header.payloadSize != reader.remaining())
        return false;
    if (sim::crc32(image.data() + sizeof(ImageHeader),
                   header.payloadSize) != header.payloadCrc)
        return false;

    FA3C_ASSERT(ckpt.theta.sameLayout(ckpt.rmspropG),
                "checkpoint theta and g layouts differ");
    TrainingCheckpoint staged;
    staged.theta = ckpt.theta;       // adopt the destination layouts
    staged.rmspropG = ckpt.rmspropG; // (values overwritten below)

    std::uint8_t has_agent_state = 0;
    std::uint32_t count = 0;
    if (!reader.readBlob(staged.algorithm) ||
        !reader.read(staged.globalSteps) ||
        !reader.read(staged.updates) ||
        !reader.read(staged.refreshes) ||
        !reader.read(staged.updatesSinceRefresh) ||
        !reader.read(staged.trainerRng) ||
        !reader.read(has_agent_state) || !reader.read(count) ||
        count != staged.theta.segments().size())
        return false;
    staged.hasAgentState = has_agent_state != 0;
    for (const auto &seg : staged.theta.segments()) {
        std::string name;
        std::uint32_t words = 0;
        if (!reader.readBlob(name) || name != seg.name ||
            !reader.read(words) || words != seg.count)
            return false;
    }
    if (!reader.readRaw(staged.theta.flat().data(),
                        staged.theta.sizeBytes()) ||
        !reader.readRaw(staged.rmspropG.flat().data(),
                        staged.rmspropG.sizeBytes()))
        return false;

    if (!reader.read(count) || count > reader.remaining())
        return false;
    staged.agentStates.resize(count);
    for (std::string &blob : staged.agentStates)
        if (!reader.readBlob(blob))
            return false;

    constexpr std::size_t record_bytes =
        sizeof(std::uint64_t) + sizeof(double) + sizeof(std::int32_t);
    if (!reader.read(count) || count > reader.remaining() / record_bytes)
        return false;
    staged.scoreTail.resize(count);
    for (EpisodeRecord &rec : staged.scoreTail) {
        std::int32_t agent = 0;
        if (!reader.read(rec.globalStep) || !reader.read(rec.score) ||
            !reader.read(agent))
            return false;
        rec.agentId = agent;
    }
    if (reader.remaining() != 0)
        return false;

    ckpt = std::move(staged);
    return true;
}

void
countCheckpointMetric(const char *name)
{
    if (obs::MetricsRegistry &m = obs::metrics(); m.enabled())
        m.count("rl.checkpoint", name, 1);
}

volatile std::sig_atomic_t g_signalRequest = 0;

extern "C" void
checkpointSignalHandler(int)
{
    g_signalRequest = 1;
}

} // namespace

bool
saveCheckpointToFile(const TrainingCheckpoint &ckpt,
                     const std::string &path)
{
    const auto start = std::chrono::steady_clock::now();
    const std::string image = checkpointToImage(ckpt);
    const std::string tmp = path + ".tmp";

    bool ok = false;
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (os) {
            os.write(image.data(),
                     static_cast<std::streamsize>(image.size()));
            os.flush();
            ok = static_cast<bool>(os);
        }
    }
    if (ok && fault::fire(fault::Point::CheckpointWrite)) {
        FA3C_WARN("fault fired: checkpoint write to ", path,
                  " failed before the rename");
        ok = false;
    }
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        countCheckpointMetric("save_failures");
        return false;
    }

    if (obs::MetricsRegistry &m = obs::metrics(); m.enabled()) {
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        m.count("rl.checkpoint", "saves", 1);
        m.sample("rl.checkpoint", "bytes",
                 static_cast<double>(image.size()));
        m.sample("rl.checkpoint", "save_sec", sec);
    }
    FA3C_INFORM("checkpoint: wrote ", image.size(), " bytes to ", path,
                " at step ", ckpt.globalSteps);
    return true;
}

bool
loadCheckpointFromFile(TrainingCheckpoint &ckpt,
                       const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        countCheckpointMetric("load_failures");
        return false;
    }
    // Size the read from the file, and refuse a file larger than any
    // valid image before allocating for it.
    const std::streamoff size = is.tellg();
    std::string image;
    bool ok = size >= 0 && static_cast<std::uint64_t>(size) <=
                               sizeof(ImageHeader) + maxPayloadBytes;
    if (ok) {
        image.resize(static_cast<std::size_t>(size));
        is.seekg(0);
        ok = static_cast<bool>(is.read(image.data(), size));
    }
    if (ok) {
        fault::maybeCorrupt(image);
        ok = checkpointFromImage(ckpt, image);
    }
    if (!ok) {
        FA3C_WARN("checkpoint: rejected corrupt or mismatched image ",
                  path, " (", size, " bytes)");
        countCheckpointMetric("load_failures");
        return false;
    }
    countCheckpointMetric("loads");
    FA3C_INFORM("checkpoint: restored ", path, " at step ",
                ckpt.globalSteps, " (", ckpt.algorithm, ")");
    return true;
}

void
installCheckpointSignalHandler()
{
    std::signal(SIGINT, checkpointSignalHandler);
    std::signal(SIGTERM, checkpointSignalHandler);
#ifdef SIGUSR1
    std::signal(SIGUSR1, checkpointSignalHandler);
#endif
}

bool
consumeCheckpointRequest()
{
    if (!g_signalRequest)
        return false;
    g_signalRequest = 0;
    return true;
}

void
requestCheckpoint()
{
    g_signalRequest = 1;
}

} // namespace fa3c::rl
