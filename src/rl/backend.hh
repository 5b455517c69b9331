/**
 * @file
 * The DNN compute backend an A3C agent talks to.
 *
 * In the paper an agent offloads its inference and training tasks to
 * the FA3C board (or to a GPU) while softmax and the objective-
 * function gradient stay on the host. The DnnBackend interface is the
 * software seam at exactly that boundary: agents hand observations /
 * delta-objectives across it, and implementations decide where the
 * layer math happens (reference CPU library, or the FA3C functional
 * datapath model).
 */

#ifndef FA3C_RL_BACKEND_HH
#define FA3C_RL_BACKEND_HH

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "nn/a3c_network.hh"
#include "nn/params.hh"
#include "tensor/tensor.hh"

namespace fa3c::nn {
struct QuantizedModel; // nn/quant_params.hh
}

namespace fa3c::rl {

/**
 * Executes the inference (FW) and training (BW + GC) tasks of one
 * agent. Implementations may keep per-agent scratch state but must
 * not share mutable state across agents.
 */
class DnnBackend
{
  public:
    virtual ~DnnBackend() = default;

    /** The network geometry this backend computes. */
    virtual const nn::A3cNetwork &network() const = 0;

    /**
     * Called once after every parameter-sync task, before the
     * routine's forward passes. Backends that stage parameters in
     * device-side layouts (the FA3C datapath keeps FW/BW layout
     * images) rebuild them here instead of on every task.
     */
    virtual void onParamSync(const nn::ParamSet &params) { (void)params; }

    /**
     * True when this backend can stage a pre-built quantized weight
     * image via onQuantSync instead of deriving one itself. The
     * serving scheduler uses this to hand every worker the image the
     * registry quantized once at publish time.
     */
    virtual bool wantsQuantized() const { return false; }

    /**
     * Parameter sync with a pre-quantized image of the same params
     * (built by nn::quantizeModel, shared across workers). The
     * default ignores the image and falls back to onParamSync, so
     * callers may use this entry point unconditionally.
     */
    virtual void
    onQuantSync(const nn::ParamSet &params,
                std::shared_ptr<const nn::QuantizedModel> quant)
    {
        (void)quant;
        onParamSync(params);
    }

    /**
     * Inference task: forward propagation.
     *
     * @param params Local parameter snapshot.
     * @param obs    Observation [C, H, W].
     * @param act    Activation cache (the feature maps FA3C parks in
     *               off-chip DRAM for the later training task).
     */
    virtual void forward(const nn::ParamSet &params,
                         const tensor::Tensor &obs,
                         nn::A3cNetwork::Activations &act) = 0;

    /**
     * Training task for one sample: backward propagation and gradient
     * computation, accumulating into @p grads.
     *
     * @param g_out Gradient of the objective w.r.t. the FC4 outputs
     *              (the host-computed delta-objective).
     */
    virtual void backward(const nn::ParamSet &params,
                          const nn::A3cNetwork::Activations &act,
                          const tensor::Tensor &g_out,
                          nn::ParamSet &grads) = 0;

    /**
     * Batched inference: forward-propagate several observations under
     * one parameter set (the lock-step PAAC rollout and the GA3C
     * predictor serve all their environments at once).
     *
     * The default runs the single-sample forward per observation, so
     * every backend supports the call; backends with batch-efficient
     * kernels (FastCpuBackend) override it to amortize layout
     * transforms and weight loads across the batch. Implementations
     * must produce exactly the same activations as per-sample
     * forward() calls.
     *
     * @param obs  Observations; obs.size() == acts.size().
     * @param acts Per-sample activation caches (overwritten).
     */
    virtual void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
    {
        for (std::size_t i = 0; i < obs.size(); ++i)
            forward(params, *obs[i], *acts[i]);
    }
};

/** Backend running the golden reference layer implementations. */
class ReferenceBackend : public DnnBackend
{
  public:
    explicit ReferenceBackend(const nn::A3cNetwork &net) : net_(net) {}

    const nn::A3cNetwork &network() const override { return net_; }

    void
    forward(const nn::ParamSet &params, const tensor::Tensor &obs,
            nn::A3cNetwork::Activations &act) override
    {
        net_.forward(params, obs, act);
    }

    void
    backward(const nn::ParamSet &params,
             const nn::A3cNetwork::Activations &act,
             const tensor::Tensor &g_out, nn::ParamSet &grads) override
    {
        net_.backward(params, act, g_out, grads);
    }

  private:
    const nn::A3cNetwork &net_;
};

/**
 * The CPU backends a trainer config can name directly (the FA3C
 * datapath backend lives above this library and is injected through a
 * BackendFactory instead).
 */
enum class BackendKind
{
    Reference, ///< golden layer library (nn/layers.cc)
    FastCpu,   ///< blocked im2col/GEMM kernels (nn/kernels/)
    Int8,      ///< int8 weights/activations, per-channel scales
};

/** Construct a backend of @p kind over @p net (which must outlive it). */
std::unique_ptr<DnnBackend> makeDnnBackend(BackendKind kind,
                                           const nn::A3cNetwork &net);

/**
 * Parse a CLI-style backend name: "reference", "fast" or "int8".
 * Panics on anything else.
 */
BackendKind backendKindFromName(const std::string &name);

/** Parse a CLI-style backend name; std::nullopt on unknown names. */
std::optional<BackendKind>
tryBackendKindFromName(const std::string &name);

/** The CLI-style name of @p kind. */
const char *backendKindName(BackendKind kind);

} // namespace fa3c::rl

#endif // FA3C_RL_BACKEND_HH
