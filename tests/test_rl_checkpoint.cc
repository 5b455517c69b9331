/** @file
 * Tests of crash-safe training checkpoints: image round trips,
 * bit-exact synchronous resume, corruption rejection with the
 * in-memory state intact, the bounded file read, fault injection, and
 * the per-trainer checkpoint/restore wiring.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "env/games.hh"
#include "rl/a3c.hh"
#include "rl/checkpoint.hh"
#include "rl/ga3c.hh"
#include "rl/paac.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/serial.hh"

using namespace fa3c;
using namespace fa3c::rl;

namespace {

A3cTrainer::SessionFactory
pongSessions(const nn::NetConfig &net_cfg, std::uint64_t seed)
{
    return [net_cfg, seed](int agent_id) {
        env::SessionConfig cfg;
        cfg.frameStack = net_cfg.inChannels;
        cfg.obsHeight = net_cfg.inHeight;
        cfg.obsWidth = net_cfg.inWidth;
        cfg.maxEpisodeFrames = 600;
        return std::make_unique<env::AtariSession>(
            env::makePong(seed + static_cast<std::uint64_t>(agent_id)),
            cfg, seed * 7 + static_cast<std::uint64_t>(agent_id));
    };
}

A3cTrainer::BackendFactory
referenceBackends(const nn::A3cNetwork &net)
{
    return [&net](int) { return std::make_unique<ReferenceBackend>(net); };
}

/** Stop after exactly @p routines agent routines. */
std::function<bool()>
afterRoutines(int routines)
{
    auto count = std::make_shared<int>(0);
    return [count, routines]() { return (*count)++ >= routines; };
}

struct TempFile
{
    explicit TempFile(const char *name)
        : path(std::string("/tmp/") + name)
    {
        std::remove(path.c_str());
    }
    ~TempFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

TrainingCheckpoint
shapedCheckpoint(const nn::A3cNetwork &net)
{
    TrainingCheckpoint ckpt;
    ckpt.theta = net.makeParams();
    ckpt.rmspropG = net.makeParams();
    return ckpt;
}

/** True when @p a and @p b hold the same layout and the same bits. */
bool
sameWords(const nn::ParamSet &a, const nn::ParamSet &b)
{
    return a.sameLayout(b) &&
           std::memcmp(a.flat().data(), b.flat().data(),
                       a.sizeBytes()) == 0;
}

/** True when every field of @p a equals @p b's, parameters bit for
 * bit. */
bool
sameCheckpoint(const TrainingCheckpoint &a, const TrainingCheckpoint &b)
{
    const auto same_record = [](const EpisodeRecord &x,
                                const EpisodeRecord &y) {
        return x.globalStep == y.globalStep && x.score == y.score &&
               x.agentId == y.agentId;
    };
    return a.algorithm == b.algorithm && sameWords(a.theta, b.theta) &&
           sameWords(a.rmspropG, b.rmspropG) &&
           a.globalSteps == b.globalSteps && a.updates == b.updates &&
           a.refreshes == b.refreshes &&
           a.updatesSinceRefresh == b.updatesSinceRefresh &&
           std::memcmp(&a.trainerRng, &b.trainerRng,
                       sizeof(a.trainerRng)) == 0 &&
           a.hasAgentState == b.hasAgentState &&
           a.agentStates == b.agentStates &&
           std::ranges::equal(a.scoreTail, b.scoreTail, same_record);
}

/** A checkpoint with every field set, parameters from @p seed. */
TrainingCheckpoint
filledCheckpoint(const nn::A3cNetwork &net, std::uint64_t seed)
{
    sim::Rng rng(seed);
    TrainingCheckpoint ckpt = shapedCheckpoint(net);
    ckpt.algorithm = "a3c";
    net.initParams(ckpt.theta, rng);
    net.initParams(ckpt.rmspropG, rng);
    ckpt.globalSteps = 12345 + seed;
    ckpt.updates = 7;
    ckpt.refreshes = 3;
    ckpt.updatesSinceRefresh = 2;
    ckpt.trainerRng = sim::Rng(seed * 11).state();
    ckpt.hasAgentState = true;
    ckpt.agentStates = {"agent-zero-state", "agent-one-state"};
    ckpt.scoreTail = {{100, 1.5, 0}, {220, -2.0, 1}};
    return ckpt;
}

/** Read a whole checkpoint file into a byte string. */
std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return std::move(buf).str();
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** This process's peak resident set so far, in KiB. */
long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

} // namespace

TEST(Fault, FiresExactlyOnTheArmedHit)
{
    fault::reset();
    EXPECT_FALSE(fault::fire(fault::Point::KillAgent)); // disarmed
    fault::arm(fault::Point::KillAgent, 3);
    EXPECT_FALSE(fault::fire(fault::Point::KillAgent));
    EXPECT_FALSE(fault::fire(fault::Point::KillAgent));
    EXPECT_TRUE(fault::fire(fault::Point::KillAgent));
    EXPECT_FALSE(fault::fire(fault::Point::KillAgent)); // one-shot
    fault::reset();
    EXPECT_FALSE(fault::fire(fault::Point::KillAgent));
}

TEST(Fault, MaybeCorruptFlipsExactlyOneArmedBit)
{
    fault::reset();
    std::string image(32, '\0');
    fault::maybeCorrupt(image); // disarmed: no change
    EXPECT_EQ(image, std::string(32, '\0'));

    fault::arm(fault::Point::CheckpointBitflip, 1, /*bit=*/19);
    fault::maybeCorrupt(image);
    EXPECT_EQ(image[2], static_cast<char>(1u << 3)); // bit 19
    image[2] = '\0';
    EXPECT_EQ(image, std::string(32, '\0'));
    fault::reset();
}

TEST(Checkpoint, FileRoundTripPreservesEverything)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    const TrainingCheckpoint original = filledCheckpoint(net, 3);

    TempFile file("fa3c_test_ckpt_roundtrip.bin");
    ASSERT_TRUE(saveCheckpointToFile(original, file.path));

    TrainingCheckpoint restored = shapedCheckpoint(net);
    ASSERT_TRUE(loadCheckpointFromFile(restored, file.path));
    EXPECT_TRUE(sameWords(original.theta, restored.theta));
    EXPECT_TRUE(sameWords(original.rmspropG, restored.rmspropG));
    EXPECT_TRUE(sameCheckpoint(original, restored));
    // The trainer rng stream continues identically.
    sim::Rng a(1), b(1);
    a.setState(original.trainerRng);
    b.setState(restored.trainerRng);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());

    // theta and g are stored once each, after one segment table: the
    // file is the 16-byte header, the fixed fields, the table, both
    // word arrays, and the agent-state and score sections.
    std::size_t bytes = 16 + 4 + original.algorithm.size() +
                        4 * sizeof(std::uint64_t) +
                        sizeof(sim::RngState) + 1 + 4;
    for (const auto &seg : original.theta.segments())
        bytes += 4 + seg.name.size() + 4;
    bytes += 2 * original.theta.sizeBytes() + 4;
    for (const std::string &blob : original.agentStates)
        bytes += 4 + blob.size();
    bytes += 4 + original.scoreTail.size() *
                     (sizeof(std::uint64_t) + sizeof(double) + 4);
    EXPECT_EQ(slurp(file.path).size(), bytes);
}

TEST(Checkpoint, CorruptImageRejectedWithStateIntact)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TempFile file("fa3c_test_ckpt_corrupt.bin");
    ASSERT_TRUE(saveCheckpointToFile(filledCheckpoint(net, 5), file.path));
    const std::string image = slurp(file.path);

    // A sentinel destination that must come through every failed load
    // completely untouched: theta, g and every other field.
    TrainingCheckpoint pristine = filledCheckpoint(net, 17);
    pristine.algorithm = "sentinel";

    const auto expect_rejected = [&](const std::string &bytes,
                                     const char *what, std::size_t at) {
        spill(file.path, bytes);
        TrainingCheckpoint dst = pristine;
        EXPECT_FALSE(loadCheckpointFromFile(dst, file.path))
            << what << " " << at;
        EXPECT_TRUE(sameCheckpoint(dst, pristine)) << what << " " << at;
    };

    // Flip one bit at 97 spread offsets across the header, the fixed
    // fields, the segment table, theta, g and the tail sections, plus
    // the last byte.
    const std::size_t flip_stride =
        std::max<std::size_t>(std::size_t{1}, image.size() / 97);
    for (std::size_t off = 0; off < image.size(); off += flip_stride) {
        std::string corrupt = image;
        corrupt[off] ^= 0x04;
        expect_rejected(corrupt, "offset", off);
    }
    std::string last = image;
    last.back() ^= 0x10;
    expect_rejected(last, "offset", image.size() - 1);

    // Truncate at 31 spread lengths, plus one byte short.
    const std::size_t cut_stride =
        std::max<std::size_t>(std::size_t{1}, image.size() / 31);
    for (std::size_t keep = 0; keep < image.size(); keep += cut_stride)
        expect_rejected(image.substr(0, keep), "kept", keep);
    expect_rejected(image.substr(0, image.size() - 1), "kept",
                    image.size() - 1);
}

TEST(Checkpoint, UnloadableFilesLeaveDestinationUntouched)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TrainingCheckpoint pristine = filledCheckpoint(net, 23);
    pristine.algorithm = "sentinel";
    const auto expect_refused = [&](const std::string &path,
                                    const char *what) {
        TrainingCheckpoint dst = pristine;
        EXPECT_FALSE(loadCheckpointFromFile(dst, path)) << what;
        EXPECT_TRUE(sameCheckpoint(dst, pristine)) << what;
    };

    // A path that does not exist.
    TempFile missing("fa3c_test_ckpt_missing.bin");
    expect_refused(missing.path, "missing file");

    // A sparse file one byte larger than any valid image, whose header
    // claims that much payload: refused from its size, before the
    // loader allocates for or reads it.
    TempFile huge("fa3c_test_ckpt_huge.bin");
    ASSERT_TRUE(saveCheckpointToFile(pristine, huge.path));
    std::string header = slurp(huge.path).substr(0, 16);
    constexpr std::uint32_t over = (1u << 30) + 1;
    std::memcpy(header.data() + 8, &over, sizeof(over));
    spill(huge.path, header);
    std::filesystem::resize_file(huge.path, 16 + std::uintmax_t{over});
    const long rss_before = peakRssKb();
    expect_refused(huge.path, "file over the bound");
    EXPECT_LT(peakRssKb() - rss_before, 256 * 1024)
        << "the oversized file was read into memory";

    // A valid checkpoint of another layout (4 actions into 3).
    nn::A3cNetwork wider(nn::NetConfig::tiny(4));
    TempFile other("fa3c_test_ckpt_layout.bin");
    ASSERT_TRUE(saveCheckpointToFile(filledCheckpoint(wider, 29),
                                     other.path));
    TrainingCheckpoint probe = shapedCheckpoint(wider);
    ASSERT_TRUE(loadCheckpointFromFile(probe, other.path));
    expect_refused(other.path, "layout mismatch");
}

namespace {

/** A small valid on-disk checkpoint to mutilate. */
std::string
validImage(const nn::A3cNetwork &net, const std::string &path)
{
    sim::Rng rng(5);
    TrainingCheckpoint ckpt = shapedCheckpoint(net);
    ckpt.algorithm = "a3c";
    net.initParams(ckpt.theta, rng);
    ckpt.globalSteps = 777;
    EXPECT_TRUE(saveCheckpointToFile(ckpt, path));
    return slurp(path);
}

} // namespace

// The image CRC covers the payload only, not the header, so a bumped
// version field leaves a perfectly valid CRC behind: this test pins
// down the version check as its own rejection path rather than a
// side effect of checksum failure.
TEST(Checkpoint, WrongVersionHeaderRejected)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TempFile file("fa3c_test_ckpt_version.bin");
    std::string image = validImage(net, file.path);
    ASSERT_GT(image.size(), 16u);

    // ImageHeader layout: magic@0, version@4, payloadSize@8, crc@12.
    image[4] = static_cast<char>(image[4] + 1);
    spill(file.path, image);

    TrainingCheckpoint dst = shapedCheckpoint(net);
    dst.algorithm = "sentinel";
    EXPECT_FALSE(loadCheckpointFromFile(dst, file.path));
    EXPECT_EQ(dst.algorithm, "sentinel");
}

// A table whose word counts disagree with the destination's but sum to
// the same total, under a valid CRC: only the table check can refuse
// it, since every later section still parses.
TEST(Checkpoint, SegmentTableMismatchRejectedUnderValidCrc)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TempFile file("fa3c_test_ckpt_table.bin");
    std::string image = validImage(net, file.path);

    // Each table entry is the name blob followed by its u32 count;
    // move one word from conv1.b to conv1.w.
    const auto count_at = [&](const std::string &name) {
        const std::size_t at = image.find(name);
        EXPECT_NE(at, std::string::npos) << name;
        return at + name.size();
    };
    const auto bump = [&](std::size_t at, std::int32_t delta) {
        std::uint32_t count = 0;
        std::memcpy(&count, image.data() + at, sizeof(count));
        count += static_cast<std::uint32_t>(delta);
        std::memcpy(image.data() + at, &count, sizeof(count));
    };
    bump(count_at("conv1.w"), 1);
    bump(count_at("conv1.b"), -1);
    const std::uint32_t crc =
        sim::crc32(image.data() + 16, image.size() - 16);
    std::memcpy(image.data() + 12, &crc, sizeof(crc));
    spill(file.path, image);

    TrainingCheckpoint pristine = filledCheckpoint(net, 31);
    TrainingCheckpoint dst = pristine;
    EXPECT_FALSE(loadCheckpointFromFile(dst, file.path));
    EXPECT_TRUE(sameCheckpoint(dst, pristine));
}

TEST(Checkpoint, FlippedCrcFieldRejected)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TempFile file("fa3c_test_ckpt_crcfield.bin");
    std::string image = validImage(net, file.path);
    ASSERT_GT(image.size(), 16u);

    // Payload untouched; only the stored CRC32 disagrees with it.
    image[12] = static_cast<char>(image[12] ^ 0xFF);
    spill(file.path, image);

    TrainingCheckpoint dst = shapedCheckpoint(net);
    dst.globalSteps = 42;
    EXPECT_FALSE(loadCheckpointFromFile(dst, file.path));
    EXPECT_EQ(dst.globalSteps, 42u);
}

// A fully intact, valid header whose payloadSize claims more bytes
// than the file holds — the short-read must be detected, not read as
// garbage.
TEST(Checkpoint, TruncatedPayloadWithValidHeaderRejected)
{
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    TempFile file("fa3c_test_ckpt_shortpayload.bin");
    const std::string image = validImage(net, file.path);
    ASSERT_GT(image.size(), 64u);

    spill(file.path, image.substr(0, 16 + (image.size() - 16) / 2));

    TrainingCheckpoint dst = shapedCheckpoint(net);
    EXPECT_FALSE(loadCheckpointFromFile(dst, file.path));
}

TEST(Checkpoint, WriteFaultLeavesPreviousCheckpointValid)
{
    fault::reset();
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    sim::Rng rng(7);
    TrainingCheckpoint first = shapedCheckpoint(net);
    first.algorithm = "a3c";
    net.initParams(first.theta, rng);
    first.globalSteps = 100;

    TempFile file("fa3c_test_ckpt_write_fault.bin");
    ASSERT_TRUE(saveCheckpointToFile(first, file.path));

    TrainingCheckpoint second = first;
    second.globalSteps = 200;
    fault::arm(fault::Point::CheckpointWrite, 1);
    EXPECT_FALSE(saveCheckpointToFile(second, file.path));
    fault::reset();

    // The failed write must not have torn the previous file.
    TrainingCheckpoint restored = shapedCheckpoint(net);
    ASSERT_TRUE(loadCheckpointFromFile(restored, file.path));
    EXPECT_EQ(restored.globalSteps, 100u);
}

TEST(Checkpoint, BitflipFaultRejectsOnLoad)
{
    fault::reset();
    nn::A3cNetwork net(nn::NetConfig::tiny(3));
    sim::Rng rng(9);
    TrainingCheckpoint ckpt = shapedCheckpoint(net);
    ckpt.algorithm = "a3c";
    net.initParams(ckpt.theta, rng);

    TempFile file("fa3c_test_ckpt_bitflip.bin");
    ASSERT_TRUE(saveCheckpointToFile(ckpt, file.path));

    fault::arm(fault::Point::CheckpointBitflip, 1, /*bit=*/2000);
    TrainingCheckpoint dst = shapedCheckpoint(net);
    EXPECT_FALSE(loadCheckpointFromFile(dst, file.path));
    fault::reset();
    // Disarmed, the same file loads fine.
    ASSERT_TRUE(loadCheckpointFromFile(dst, file.path));
}

TEST(Checkpoint, SignalRequestIsConsumedOnce)
{
    EXPECT_FALSE(consumeCheckpointRequest());
    requestCheckpoint();
    EXPECT_TRUE(consumeCheckpointRequest());
    EXPECT_FALSE(consumeCheckpointRequest());
}

TEST(A3cCheckpoint, SynchronousResumeIsBitExact)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 1'000'000; // routine counters stop the runs
    cfg.async = false;
    cfg.seed = 9;

    // Reference: one uninterrupted run of 12 routines.
    A3cTrainer straight(net, cfg, referenceBackends(net),
                        pongSessions(net_cfg, 21));
    straight.run(afterRoutines(12));

    // Interrupted: 6 routines (three whole round-robin rounds for 2
    // agents), checkpoint, restore into a *fresh* trainer, 6 more.
    A3cTrainer before(net, cfg, referenceBackends(net),
                      pongSessions(net_cfg, 21));
    before.run(afterRoutines(6));
    const TrainingCheckpoint ckpt = before.checkpoint();
    ASSERT_TRUE(ckpt.hasAgentState);

    A3cTrainer after(net, cfg, referenceBackends(net),
                     pongSessions(net_cfg, 21));
    ASSERT_TRUE(after.restore(ckpt));
    EXPECT_EQ(after.globalParams().globalSteps(),
              before.globalParams().globalSteps());
    after.run(afterRoutines(6));

    EXPECT_EQ(after.globalParams().globalSteps(),
              straight.globalParams().globalSteps());
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(
                        straight.globalParams().theta(),
                        after.globalParams().theta()),
                    0.0f);
    EXPECT_EQ(after.scores().size(), straight.scores().size());
}

TEST(A3cCheckpoint, FileRoundTripViaResumeFromFile)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    TempFile file("fa3c_test_ckpt_a3c.bin");
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 100;
    cfg.async = false;
    cfg.seed = 4;
    cfg.checkpointPath = file.path;

    // run() writes the end-of-run image the second trainer resumes.
    A3cTrainer first(net, cfg, referenceBackends(net),
                     pongSessions(net_cfg, 33));
    first.run();

    A3cTrainer second(net, cfg, referenceBackends(net),
                      pongSessions(net_cfg, 33));
    ASSERT_TRUE(second.resumeFromFile());
    EXPECT_EQ(second.globalParams().globalSteps(),
              first.globalParams().globalSteps());
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(
                        first.globalParams().theta(),
                        second.globalParams().theta()),
                    0.0f);
}

TEST(A3cCheckpoint, PeriodicCheckpointWrittenDuringRun)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    TempFile file("fa3c_test_ckpt_periodic.bin");
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 200;
    cfg.async = false;
    cfg.seed = 6;
    cfg.checkpointPath = file.path;
    cfg.checkpointEverySteps = 50;

    // Read the file mid-run, once the run is past its second period
    // (writes land just after steps 50 and 100), so the image found
    // is a periodic one rather than the end-of-run image.
    A3cTrainer trainer(net, cfg, referenceBackends(net),
                       pongSessions(net_cfg, 44));
    TrainingCheckpoint ckpt = shapedCheckpoint(net);
    bool loaded = false;
    std::uint64_t read_at = 0;
    trainer.run([&] {
        const std::uint64_t now = trainer.globalParams().globalSteps();
        if (read_at == 0 && now >= 120) {
            read_at = now;
            loaded = loadCheckpointFromFile(ckpt, file.path);
        }
        return false;
    });

    ASSERT_TRUE(loaded);
    EXPECT_EQ(ckpt.algorithm, "a3c");
    EXPECT_GE(ckpt.globalSteps, 50u);
    EXPECT_LT(ckpt.globalSteps, read_at);
}

TEST(A3cCheckpoint, RunEndsWithImageOfEveryAgent)
{
    // With a checkpoint path and no period, the one image is the one
    // run() writes when it ends: on stop_early in sync mode, on the
    // budget in async mode. No agent runs then, so it carries every
    // agent's state, and a fresh trainer restored from it holds the
    // same state.
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    for (const bool async : {false, true}) {
        SCOPED_TRACE(async ? "async" : "sync");
        TempFile file("fa3c_test_ckpt_final.bin");
        A3cConfig cfg;
        cfg.numAgents = 2;
        cfg.totalSteps = async ? 300 : 1'000'000;
        cfg.async = async;
        cfg.seed = 12;
        cfg.checkpointPath = file.path;

        A3cTrainer trainer(net, cfg, referenceBackends(net),
                           pongSessions(net_cfg, 90));
        if (async)
            trainer.run();
        else
            trainer.run(afterRoutines(7));

        ASSERT_TRUE(std::filesystem::exists(file.path));
        TrainingCheckpoint ckpt = shapedCheckpoint(net);
        ASSERT_TRUE(loadCheckpointFromFile(ckpt, file.path));
        EXPECT_EQ(ckpt.globalSteps, trainer.globalParams().globalSteps());
        EXPECT_TRUE(ckpt.hasAgentState);
        EXPECT_EQ(ckpt.agentStates.size(), 2u);

        A3cTrainer fresh(net, cfg, referenceBackends(net),
                         pongSessions(net_cfg, 90));
        ASSERT_TRUE(fresh.restore(ckpt));
        EXPECT_EQ(nn::ParamSet::maxAbsDiff(trainer.globalParams().theta(),
                                           fresh.globalParams().theta()),
                  0.0f);
        // The restored agents hold the run's final rng and session
        // state, so the restored trainer's own image matches.
        EXPECT_EQ(fresh.checkpoint().agentStates, ckpt.agentStates);
    }
}

namespace {

constexpr std::uint64_t kSignalBudget = 2000;

/**
 * Death-test child: install the training signal handlers, then run a
 * sync trainer with a checkpoint path whose stop_early raises @p sig
 * on its sixth call, after the fifth routine. @return 0 when the run and
 * its file behave as @p sig asks: SIGINT/SIGTERM stop the run within
 * one routine, below the budget, with the stopping step on file;
 * SIGUSR1 writes an image at the next routine boundary and the run
 * goes on to its budget.
 */
int
signalChild(int sig)
{
    sim::setLogLevel(sim::LogLevel::Warn);
    installCheckpointSignalHandler();
    TempFile file("fa3c_test_ckpt_signal.bin");
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = kSignalBudget;
    cfg.async = false;
    cfg.seed = 15;
    cfg.checkpointPath = file.path;
    A3cTrainer trainer(net, cfg, referenceBackends(net),
                       pongSessions(net_cfg, 95));

    int calls = 0;
    std::uint64_t raised_at = 0;
    bool usr1_checked = false;
    bool usr1_image = false;
    trainer.run([&] {
        const std::uint64_t now = trainer.globalParams().globalSteps();
        if (++calls == 6) {
            raised_at = now;
            std::raise(sig);
        } else if (raised_at > 0 && now > raised_at && !usr1_checked) {
            // The first call after the next routine: a SIGUSR1 image
            // has landed at this step.
            usr1_checked = true;
            TrainingCheckpoint mid = shapedCheckpoint(net);
            usr1_image = loadCheckpointFromFile(mid, file.path) &&
                         mid.globalSteps == now;
        }
        return false;
    });

    const std::uint64_t steps = trainer.globalParams().globalSteps();
    TrainingCheckpoint ckpt = shapedCheckpoint(net);
    if (raised_at == 0 || !loadCheckpointFromFile(ckpt, file.path) ||
        ckpt.globalSteps != steps)
        return 1;
    if (sig == SIGUSR1)
        return usr1_image && steps >= kSignalBudget ? 0 : 1;
    const std::uint64_t one_routine = static_cast<std::uint64_t>(cfg.tMax);
    return steps < kSignalBudget && steps <= raised_at + one_routine ? 0
                                                                     : 1;
}

} // namespace

TEST(A3cCheckpointDeathTest, StopSignalEndsRunWithItsImage)
{
    // Signal dispositions and the stop flag are process-wide, so each
    // signal is raised in a fresh child.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(std::exit(signalChild(SIGTERM)),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(std::exit(signalChild(SIGINT)),
                ::testing::ExitedWithCode(0), "");
}

TEST(A3cCheckpointDeathTest, Usr1CheckpointsAndTrainingGoesOn)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(std::exit(signalChild(SIGUSR1)),
                ::testing::ExitedWithCode(0), "");
}

TEST(A3cCheckpoint, RestoreRejectsWrongAlgorithmAndAgentCount)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    A3cConfig cfg;
    cfg.numAgents = 2;
    cfg.totalSteps = 50;
    cfg.async = false;
    cfg.seed = 8;
    A3cTrainer trainer(net, cfg, referenceBackends(net),
                       pongSessions(net_cfg, 55));
    trainer.run();
    TrainingCheckpoint ckpt = trainer.checkpoint();

    nn::ParamSet theta_before = net.makeParams();
    theta_before.copyFrom(trainer.globalParams().theta());

    TrainingCheckpoint wrong_algo = ckpt;
    wrong_algo.algorithm = "paac";
    EXPECT_FALSE(trainer.restore(wrong_algo));

    TrainingCheckpoint wrong_agents = ckpt;
    wrong_agents.agentStates.push_back("extra");
    EXPECT_FALSE(trainer.restore(wrong_agents));

    // Neither failed restore touched the parameters.
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(
                        theta_before, trainer.globalParams().theta()),
                    0.0f);
}

TEST(PaacCheckpoint, ResumeContinuesBitExactPerBatch)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    PaacConfig cfg;
    cfg.numEnvs = 2;
    cfg.totalSteps = 1'000'000;
    cfg.seed = 3;

    auto batches = [](int n) {
        auto count = std::make_shared<int>(0);
        return [count, n]() { return (*count)++ >= n; };
    };

    PaacTrainer straight(net, cfg, referenceBackends(net),
                         pongSessions(net_cfg, 70));
    straight.run(batches(8));

    PaacTrainer before(net, cfg, referenceBackends(net),
                       pongSessions(net_cfg, 70));
    before.run(batches(4));
    const TrainingCheckpoint ckpt = before.checkpoint();
    EXPECT_EQ(ckpt.algorithm, "paac");

    PaacTrainer after(net, cfg, referenceBackends(net),
                      pongSessions(net_cfg, 70));
    ASSERT_TRUE(after.restore(ckpt));
    EXPECT_EQ(after.updatesApplied(), before.updatesApplied());
    after.run(batches(4));

    EXPECT_EQ(after.globalParams().globalSteps(),
              straight.globalParams().globalSteps());
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(
                        straight.globalParams().theta(),
                        after.globalParams().theta()),
                    0.0f);
}

TEST(Ga3cCheckpoint, RestoreResumesFromCapturedStep)
{
    const nn::NetConfig net_cfg = nn::NetConfig::tiny(3);
    nn::A3cNetwork net(net_cfg);
    Ga3cConfig cfg;
    cfg.numEnvs = 2;
    cfg.totalSteps = 300;
    cfg.seed = 5;

    Ga3cTrainer first(net, cfg, referenceBackends(net),
                      pongSessions(net_cfg, 80));
    first.run();
    const TrainingCheckpoint ckpt = first.checkpoint();
    EXPECT_EQ(ckpt.algorithm, "ga3c");

    Ga3cTrainer second(net, cfg, referenceBackends(net),
                       pongSessions(net_cfg, 80));
    ASSERT_TRUE(second.restore(ckpt));
    EXPECT_EQ(second.globalParams().globalSteps(),
              first.globalParams().globalSteps());
    EXPECT_EQ(second.updatesApplied(), first.updatesApplied());
    EXPECT_EQ(second.predictorRefreshes(), first.predictorRefreshes());
    EXPECT_FLOAT_EQ(nn::ParamSet::maxAbsDiff(
                        first.globalParams().theta(),
                        second.globalParams().theta()),
                    0.0f);
    // A restored trainer trains onward.
    Ga3cConfig more = cfg;
    more.totalSteps = 400;
    Ga3cTrainer third(net, more, referenceBackends(net),
                      pongSessions(net_cfg, 80));
    ASSERT_TRUE(third.restore(ckpt));
    third.run();
    EXPECT_GE(third.globalParams().globalSteps(), 400u);
}
