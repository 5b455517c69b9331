/**
 * @file
 * The A3C network from Table 1 of the paper:
 *
 *     input [4 x 84 x 84]
 *     Conv1 16 filters 8x8 stride 4  -> ReLU
 *     Conv2 32 filters 4x4 stride 2  -> ReLU
 *     FC3   2592 -> 256              -> ReLU
 *     FC4   256  -> (|A| + 1)
 *
 * The last layer carries the |A| action logits (softmax is computed on
 * the host, as in FA3C) and one linear value output. In hardware the
 * FC4 output is padded to 32 lanes, which is the figure Table 1
 * reports.
 */

#ifndef FA3C_NN_A3C_NETWORK_HH
#define FA3C_NN_A3C_NETWORK_HH

#include <span>
#include <string>
#include <vector>

#include "nn/layers.hh"
#include "nn/params.hh"
#include "sim/rng.hh"
#include "tensor/tensor.hh"

namespace fa3c::nn {

/** Structural configuration of the A3C network. */
struct NetConfig
{
    int inChannels = 4;   ///< stacked frames
    int inHeight = 84;
    int inWidth = 84;
    int conv1Filters = 16;
    int conv1Kernel = 8;
    int conv1Stride = 4;
    int conv2Filters = 32;
    int conv2Kernel = 4;
    int conv2Stride = 2;
    int fcSize = 256;
    int numActions = 4;
    /** FC4 output width in hardware (Table 1 pads to 32 lanes). */
    int fc4HardwareLanes = 32;

    /** The exact configuration of the paper (Table 1). */
    static NetConfig atari(int num_actions);

    /**
     * A scaled-down network for fast tests and examples:
     * 4x21x21 input (84/4 pooled), 8/16 filters, 64-wide FC.
     */
    static NetConfig tiny(int num_actions);
};

/**
 * The reference A3C network: owns the layer geometry, builds parameter
 * sets, and runs FW / BW / GC using the golden layer implementations.
 *
 * The network itself is stateless; parameters and activations are
 * passed explicitly so one network object can serve many agents.
 */
class A3cNetwork
{
  public:
    explicit A3cNetwork(const NetConfig &cfg);

    const NetConfig &config() const { return cfg_; }
    const ConvSpec &conv1() const { return conv1_; }
    const ConvSpec &conv2() const { return conv2_; }
    const FcSpec &fc3() const { return fc3_; }
    const FcSpec &fc4() const { return fc4_; }

    /** Total trainable parameters. */
    std::size_t paramCount() const;

    /** Output width of FC4: numActions + 1 (value head). */
    int outSize() const { return cfg_.numActions + 1; }

    /** A zeroed parameter set with this network's layout. */
    ParamSet makeParams() const;

    /** Initialize with fan-in-scaled uniform weights, zero biases. */
    void initParams(ParamSet &params, sim::Rng &rng) const;

    /**
     * All intermediate activations of one forward pass, one copy of
     * each.
     *
     * FA3C stores these feature maps in off-chip DRAM between the
     * inference task and the following training task; the cache is the
     * software analogue. FC3 reads conv2Act in place: a row-major
     * [C, H, W] map already is its input vector.
     */
    struct Activations
    {
        Tensor input;    ///< [C, H, W]
        Tensor conv1Pre; ///< pre-ReLU conv1 output
        Tensor conv1Act; ///< post-ReLU
        Tensor conv2Pre;
        Tensor conv2Act; ///< also FC3's input vector
        Tensor fc3Pre;
        Tensor fc3Act;
        Tensor out;      ///< [numActions + 1]
    };

    /** Allocate an activation cache with the right shapes. */
    Activations makeActivations() const;

    /**
     * Forward propagation (the inference task).
     *
     * @param params Parameters to use (an agent's local theta).
     * @param obs    Input observation [C, H, W].
     * @param act    Output activations (overwritten).
     */
    void forward(const ParamSet &params, const Tensor &obs,
                 Activations &act) const;

    /**
     * Backward propagation + gradient computation (the training task).
     *
     * @param params Parameters used by the FW pass.
     * @param act    Activations cached by forward().
     * @param g_out  Gradient of the objective w.r.t. the FC4 outputs
     *               (the "delta objective" the host sends to FA3C).
     * @param grads  Parameter gradients, accumulated (not zeroed).
     *
     * Note: backward propagation into the network input is skipped
     * (the input is the game screen; no earlier layer needs it).
     */
    void backward(const ParamSet &params, const Activations &act,
                  const Tensor &g_out, ParamSet &grads) const;

    /** The action-logit slice of the FC4 output. */
    std::span<const float> policyLogits(const Activations &act) const;

    /** The value-head output. */
    float value(const Activations &act) const;

    /** One row of Table 1. */
    struct LayerInfo
    {
        std::string name;
        std::size_t paramCount;   ///< weights + biases ("-" when 0)
        std::size_t outputCount;  ///< output feature count
    };

    /** The Table 1 rows for this configuration. */
    std::vector<LayerInfo> layerTable() const;

  private:
    NetConfig cfg_;
    ConvSpec conv1_;
    ConvSpec conv2_;
    FcSpec fc3_;
    FcSpec fc4_;
};

} // namespace fa3c::nn

#endif // FA3C_NN_A3C_NETWORK_HH
