/**
 * @file
 * The parameter-plane seam of an A3C agent.
 *
 * An agent's routine touches shared parameters at exactly three
 * points: it pulls a fresh theta (the parameter-sync task), it pushes
 * the gradients of one training task, and it reads the global step
 * counter for score bookkeeping and annealing. ParamService is that
 * contract as an interface, so the same agent code trains against
 *
 *  - rl::GlobalParams: the in-process shared theta + RMSProp of the
 *    classic single-process A3C trainers, and
 *  - dist::RemoteParams: a cached view of the GlobalParams a
 *    parameter server owns, reached over TCP (src/dist/), where
 *    applyGradients becomes a gradient push and snapshot serves the
 *    last pulled version.
 */

#ifndef FA3C_RL_PARAM_SERVICE_HH
#define FA3C_RL_PARAM_SERVICE_HH

#include <cstdint>

#include "nn/params.hh"

namespace fa3c::rl {

/** Where an agent syncs parameters from and pushes gradients to. */
class ParamService
{
  public:
    virtual ~ParamService() = default;

    /** Parameter sync: copy the current theta into @p local. */
    virtual void snapshot(nn::ParamSet &local) = 0;

    /**
     * Apply (or ship) the summed gradients of one training task.
     *
     * @param grads          Gradient set in the network layout.
     * @param steps_consumed Environment steps that produced them.
     */
    virtual void applyGradients(const nn::ParamSet &grads,
                                std::uint64_t steps_consumed) = 0;

    /** Total environment steps consumed globally (may be stale for
     * remote implementations). */
    virtual std::uint64_t globalSteps() const = 0;
};

} // namespace fa3c::rl

#endif // FA3C_RL_PARAM_SERVICE_HH
