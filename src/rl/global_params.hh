/**
 * @file
 * The one global parameter store of A3C.
 *
 * Holds the global theta plus the shared RMSProp statistics g (one g
 * word per parameter, exactly what the paper's RMSProp module keeps in
 * DRAM next to the global model), the global step counter, and a
 * version counter (updates applied). Agents snapshot theta into their
 * local copies (the "parameter sync" task) and apply gradients through
 * the RMSProp update with a linearly annealed learning rate.
 *
 * Every trainer uses this store: the in-process A3C, PAAC and GA3C
 * trainers share one directly, and dist::PsServer owns one behind the
 * wire, applying each push through applyPush(). One mutex guards
 * theta and g, so an update, a snapshot and a checkpoint each see
 * exactly one version, never half of an update.
 */

#ifndef FA3C_RL_GLOBAL_PARAMS_HH
#define FA3C_RL_GLOBAL_PARAMS_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "nn/a3c_network.hh"
#include "nn/params.hh"
#include "nn/rmsprop.hh"
#include "rl/param_service.hh"

namespace fa3c::rl {

/** Thread-safe global theta + shared RMSProp state. */
class GlobalParams : public ParamService
{
  public:
    /**
     * @param net            Network defining the parameter layout.
     * @param rmsprop        Constant rho / epsilon.
     * @param initial_lr     eta at step 0.
     * @param anneal_steps   Steps over which eta decays linearly to 0
     *                       (0 disables annealing).
     */
    GlobalParams(const nn::A3cNetwork &net,
                 const nn::RmspropConfig &rmsprop, float initial_lr,
                 std::uint64_t anneal_steps);

    /** Initialize theta from @p rng (fan-in uniform), zero g. */
    void initialize(sim::Rng &rng);

    std::size_t paramCount() const { return theta_.size(); }

    /** The segment table. The layout never changes, so this and
     * sameLayout() need no lock and copy no values. */
    const std::vector<nn::ParamSet::Segment> &
    layout() const
    {
        return theta_.segments();
    }

    /** True when @p p has the store's layout. */
    bool
    sameLayout(const nn::ParamSet &p) const
    {
        return theta_.sameLayout(p);
    }

    /** Parameter sync: copy the current global theta into @p local. */
    void snapshot(nn::ParamSet &local) override;

    /** Copy the current theta into @p out (resized to paramCount).
     * @return The version of the copy. */
    std::uint64_t snapshot(std::vector<float> &out) const;

    /**
     * Apply a gradient batch via shared RMSProp.
     *
     * @param grads          Summed gradients of one training task.
     * @param steps_consumed Environment steps that produced them
     *                       (advances the step counter used for lr
     *                       annealing).
     */
    void applyGradients(const nn::ParamSet &grads,
                        std::uint64_t steps_consumed) override;

    /** What one applyPush() did, read in its critical section. */
    struct PushResult
    {
        bool applied = false;
        std::uint64_t staleness = 0; ///< version - base at arrival
        std::uint64_t version = 0;   ///< after the push; labels theta
        std::uint64_t steps = 0;     ///< step counter after the push
    };

    /**
     * The parameter server's apply path, as one critical section:
     * measure the staleness of @p grads against @p base_version,
     * apply them as applyGradients() does when the staleness is at
     * most @p max_staleness and @p grads has paramCount words (pass
     * an empty span to refuse a push), then copy theta into
     * @p theta_out when it is not null. The returned version is that
     * of the copied theta.
     */
    PushResult applyPush(std::span<const float> grads,
                         std::uint64_t steps_consumed,
                         std::uint64_t base_version,
                         std::uint64_t max_staleness,
                         std::vector<float> *theta_out);

    /** Total environment steps consumed so far. */
    std::uint64_t
    globalSteps() const override
    {
        return globalSteps_.load(std::memory_order_relaxed);
    }

    /** Updates applied so far (one per applyGradients/applied push;
     * checkpoints store it as `updates`). */
    std::uint64_t
    version() const
    {
        return version_.load(std::memory_order_relaxed);
    }

    /** Advance the step counter without an update (trainers whose
     * updates are decoupled from stepping, e.g. GA3C). */
    void
    addSteps(std::uint64_t steps)
    {
        globalSteps_.fetch_add(steps, std::memory_order_relaxed);
    }

    /** The learning rate that the next update will use. */
    float currentLearningRate() const;

    /**
     * Mutex-held copy of the global theta. Every cross-thread read
     * (checkpointing, tests, policy-lag probes) goes through this or
     * snapshot(); there is deliberately no raw reference accessor, so
     * a concurrent update can never be observed half-applied.
     */
    nn::ParamSet theta() const;

    /**
     * Consistent snapshot of the full recoverable state — theta, the
     * RMSProp g statistics, the step counter and the version — under
     * the update mutex, so the image is coherent even while other
     * threads are applying gradients.
     *
     * @p theta_out and @p g_out must have the network's layout.
     */
    void checkpoint(nn::ParamSet &theta_out, nn::ParamSet &g_out,
                    std::uint64_t &steps_out,
                    std::uint64_t &version_out) const;

    /** Restore an image taken by checkpoint(). */
    void restore(const nn::ParamSet &theta, const nn::ParamSet &g,
                 std::uint64_t steps, std::uint64_t version);

  private:
    const nn::A3cNetwork &net_;
    nn::RmspropConfig rmsprop_;
    float initialLr_;
    std::uint64_t annealSteps_;
    std::atomic<std::uint64_t> globalSteps_{0};
    std::atomic<std::uint64_t> version_{0};
    mutable std::mutex mutex_;
    nn::ParamSet theta_;
    nn::ParamSet rmspropG_;

    /** One RMSProp update plus the counters; mutex_ held. */
    void applyLocked(std::span<const float> grads,
                     std::uint64_t steps_consumed);
};

} // namespace fa3c::rl

#endif // FA3C_RL_GLOBAL_PARAMS_HH
