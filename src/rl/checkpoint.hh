/**
 * @file
 * Crash-safe training checkpoints.
 *
 * A training run's recoverable state is exactly what the paper's
 * RMSProp module keeps next to the global model in DRAM plus the
 * host-side loop state: {theta, the per-parameter g statistics, the
 * global step counter, the RNG streams, per-agent environment state,
 * and the score-log tail}. This module serializes that whole set as
 * one versioned, CRC32-checked image and writes it atomically (temp
 * file + rename), so a crash at any instant leaves either the old
 * checkpoint or the new one — never a torn file.
 *
 * The image is a 16-byte header (magic, version, payload size, payload
 * CRC32) and one payload: the algorithm name, the step, update and
 * refresh counters, the trainer rng, the agent-state flag, then one
 * segment table (u32 count; each segment's name blob and u32 word
 * count) shared by theta and g, theta's raw words, g's raw words, the
 * agent-state blobs and the score-log tail. theta and g are stored
 * once each, as the paper's DRAM holds them.
 *
 * Loading is staged: the image is read and validated in full (CRC,
 * version, segment table against the destination layout, section
 * structure) before any destination object is touched, so a
 * truncated, bit-flipped or mismatched checkpoint is rejected with the
 * caller's in-memory state intact.
 *
 * File writes and loads run through the fa3c::fault hooks
 * (checkpoint-write failure, bit-flip on load) and export
 * latency/size/failure metrics through the obs registry under
 * "rl.checkpoint".
 */

#ifndef FA3C_RL_CHECKPOINT_HH
#define FA3C_RL_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/params.hh"
#include "rl/score_log.hh"
#include "sim/rng.hh"

namespace fa3c::rl {

/** Current checkpoint image version (2: theta and g stored as raw
 * words after one shared segment table). */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/** Episodes retained in a checkpoint's score-log tail (the paper's
 * Figure 12 smooths over 1,000 episodes, so resume keeps the moving
 * average seamless across the restart). */
inline constexpr std::size_t kScoreTailMax = 1000;

/**
 * Everything needed to resume a training run.
 *
 * The two parameter sets must be shaped by the caller (via
 * A3cNetwork::makeParams(), one layout for both) before saving or
 * loading; their layout is validated against the stored segment
 * table.
 */
struct TrainingCheckpoint
{
    /** Producing algorithm ("a3c", "paac", "ga3c"); restore rejects
     * a checkpoint from a different trainer type. */
    std::string algorithm;
    nn::ParamSet theta;
    nn::ParamSet rmspropG;
    std::uint64_t globalSteps = 0;
    /** Updates applied to the global parameters (the store's
     * version). */
    std::uint64_t updates = 0;
    /** GA3C predictor refresh counters. */
    std::uint64_t refreshes = 0;
    std::uint64_t updatesSinceRefresh = 0;
    /** Trainer-level action-sampling stream (PAAC/GA3C). */
    sim::RngState trainerRng{};
    /**
     * Whether per-agent state (rngs + session blobs) was captured.
     * Checkpoints taken while asynchronous agent threads are running
     * carry only the consistent global state; resume then restarts
     * the agents from fresh seeds, which is crash-consistent but not
     * bit-exact. Synchronous (async=false) checkpoints always carry
     * agent state and resume bit-identically.
     */
    bool hasAgentState = false;
    /** One opaque state image per agent/environment slot (the agent's
     * action-sampling rng where it has one, plus the full session +
     * game state). */
    std::vector<std::string> agentStates;
    std::vector<EpisodeRecord> scoreTail;
};

/**
 * Write @p ckpt to @p path atomically and export save metrics.
 * Honors the CheckpointWrite fault hook (the write then fails before
 * the rename and the previous checkpoint survives).
 */
bool saveCheckpointToFile(const TrainingCheckpoint &ckpt,
                          const std::string &path);

/**
 * Read @p path (honoring the CheckpointBitflip fault hook) and
 * validate-then-commit into @p ckpt, whose theta/rmspropG must already
 * have the network's layout.
 *
 * @return false — with @p ckpt untouched — when the file is missing,
 *         larger than the 1 GiB payload bound plus header (refused
 *         before it is read), fails the CRC, has another version, or
 *         stores a different parameter layout.
 */
bool loadCheckpointFromFile(TrainingCheckpoint &ckpt,
                            const std::string &path);

/**
 * Install the training signal handlers. SIGUSR1 requests a checkpoint
 * and training continues; SIGINT and SIGTERM request a stop, so the
 * run ends at its next routine boundary and writes its end-of-run
 * checkpoint. The handlers only set lock-free atomic flags, which the
 * trainer polls between routines (consumeCheckpointRequest(),
 * stopRequested()) and acts on from normal context. Idempotent.
 */
void installCheckpointSignalHandler();

/** True once per checkpoint request; clears the request flag. */
bool consumeCheckpointRequest();

/** Set the request flag directly (tests, embedding applications). */
void requestCheckpoint();

/** True once SIGINT or SIGTERM has arrived; the flag stays set. */
bool stopRequested();

} // namespace fa3c::rl

#endif // FA3C_RL_CHECKPOINT_HH
