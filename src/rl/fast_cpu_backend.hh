/**
 * @file
 * DnnBackend built on the blocked im2col/GEMM kernel library.
 *
 * Produces the same results as ReferenceBackend up to float
 * reassociation (the GEMM sums filter taps in the same (i, kr, kc)
 * order as the golden loops, but register blocking can change which
 * partial sums share a register) while running several times faster:
 *
 *  - convolutions go through an im2col patch matrix and a
 *    register-blocked axpy-form GEMM that autovectorizes without
 *    -ffast-math;
 *  - the FC layers read the canonical W[O][I] rows of the ParamSet
 *    through the GEMM's transposing load (gemmAccBT, the software
 *    form of the FA3C datapath's TLU, which derives the second layout
 *    while loading), and conv2's backward reads conv2.w through the
 *    transposed-A GEMM, so no weight image is staged on a parameter
 *    sync and forward/backward always see the current parameters.
 *    forward() runs the FC layers as an M = 1 GEMM and
 *    forwardBatch() as one M = batch GEMM, so the PAAC rollout, the
 *    GA3C predictor, and the serving scheduler read the FC weights
 *    once per batch instead of once per request, bit-identically to
 *    forward(). Heads narrower than kernels::kSmallFcMaxOut run a
 *    dot kernel over the same rows.
 *
 * The kernel pool's second core takes the independent work of one
 * call, as FA3C's paired CUs do: forwardBatch() splits the batch's
 * conv trunks into contiguous sample ranges, one per pool task, a
 * batched FC GEMM large enough to pay for the handoff is split by
 * column strips (kernels::stripTasks), and backward() runs fc3's
 * gradient (a memory-bound rank-1 update) beside the compute-bound
 * chain from fc3's BW down to conv1's gradient. A batch too small to
 * repay the handoff (kernels::splitTasks; the tiny test nets'
 * trunks) stays on the caller. Each output element is still computed
 * by one task in the same order, so results do not depend on the
 * pool width.
 *
 * Each instance owns its scratch buffers, so it is single-agent like
 * every other DnnBackend; trainers construct one per agent.
 */

#ifndef FA3C_RL_FAST_CPU_BACKEND_HH
#define FA3C_RL_FAST_CPU_BACKEND_HH

#include <functional>
#include <vector>

#include "rl/backend.hh"

namespace fa3c::rl {

/** Backend running the fast kernel library (nn/kernels/). */
class FastCpuBackend : public DnnBackend
{
  public:
    explicit FastCpuBackend(const nn::A3cNetwork &net);

    const nn::A3cNetwork &network() const override { return net_; }

    void forward(const nn::ParamSet &params, const tensor::Tensor &obs,
                 nn::A3cNetwork::Activations &act) override;

    void backward(const nn::ParamSet &params,
                  const nn::A3cNetwork::Activations &act,
                  const tensor::Tensor &g_out,
                  nn::ParamSet &grads) override;

    void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
        override;

  protected:
    // Protected rather than private: QuantCpuBackend derives from
    // this class to inherit the fp32 training path (backward), and
    // shares the batch staging buffers and the sample split.

    /**
     * Pool tasks a batch of @p bsz conv trunks splits into: one per
     * pool thread, at most one per sample, and none below the
     * kernels::splitTasks work floor (a tiny net's small batches
     * stay inline).
     */
    int sampleTasks(int bsz) const;

    /**
     * Runs trunk(task, s) for every sample s of a batch of @p bsz,
     * split across the kernel pool: task t of T = sampleTasks(bsz)
     * takes samples [bsz·t/T, bsz·(t+1)/T) in order. Each sample is
     * computed whole by one task, so the split never changes a
     * result; @p task selects that task's scratch.
     */
    void splitSamples(int bsz,
                      const std::function<void(int, int)> &trunk) const;

    const nn::A3cNetwork &net_;

    /**
     * FC4 heads narrower than kernels::kSmallFcMaxOut run the
     * canonical-row dot-product kernel (fcForwardSmallBatch) instead
     * of the GEMM.
     */
    const bool fc4Small_;

    // Per-agent scratch: one im2col/im2row patch matrix (sized for the
    // larger conv) plus the backward-pass gradient tensors, allocated
    // once since the geometry is fixed.
    std::vector<float> colScratch_;
    /// One more patch matrix per extra conv-trunk task of
    /// forwardBatch (task 0 uses colScratch_), made on first use.
    std::vector<std::vector<float>> taskCols_;
    tensor::Tensor gFc3Act_;
    tensor::Tensor gFc3Pre_;
    tensor::Tensor gConv2Flat_;
    tensor::Tensor gConv2Act_;
    tensor::Tensor gConv2Pre_;
    tensor::Tensor gConv1Act_;
    tensor::Tensor gConv1Pre_;

    // Batch staging buffers for forwardBatch (grown on demand).
    std::vector<float> batchIn_;  ///< [B][fc3.in]  flattened conv2 maps
    std::vector<float> batchMid_; ///< [B][fc3.out] fc3 pre-activations
    std::vector<float> batchAct_; ///< [B][fc3.out] post-ReLU
    std::vector<float> batchOut_; ///< [B][fc4.out]

  private:
    /**
     * Conv trunk of one forward pass (shared by both entry points),
     * on the patch matrix @p cols.
     */
    void forwardConvs(const nn::ParamSet &params,
                      const tensor::Tensor &obs,
                      nn::A3cNetwork::Activations &act,
                      std::span<float> cols);
};

} // namespace fa3c::rl

#endif // FA3C_RL_FAST_CPU_BACKEND_HH
