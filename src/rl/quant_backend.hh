/**
 * @file
 * Quantized inference backend (BackendKind::Int8).
 *
 * Forward passes run on a staged int8 weight image
 * (nn::QuantizedModel): dynamic symmetric activation quantization
 * (per tensor, scale maxabs/127) against per-output-channel int8
 * weights, exact int32 accumulation (AVX2 pmaddwd or the scalar
 * twin), then fp32 dequantize + bias. Both conv layers run an int8
 * im2row/qgemm pipeline; fc3 runs the batched qgemm; a small fc4 head
 * runs int8 dot products over canonical rows.
 *
 * forwardBatch splits the batch's int8 conv trunks across the kernel
 * pool by sample, through the same helper and with the same ranges
 * as FastCpuBackend, each task on its own int8 scratch; fc3's qgemm
 * splits by panel strips under the shared kernels::stripTasks gate.
 *
 * The image arrives either pre-built via onQuantSync (serving:
 * ModelRegistry quantizes once per publish and shares it across
 * workers) or is derived locally in onParamSync (trainers). Training
 * itself stays fp32: backward() is inherited from FastCpuBackend, so
 * GA3C can run a quantized predictor against fp32 learners — the
 * same inference/training precision split FA3C uses in hardware.
 *
 * Results are bit-identical across ISA levels, batch sizes and
 * thread counts (integer math is exact, dequantization order is
 * fixed per element); they differ from fp32 only by the quantization
 * itself, which the parity tests bound.
 */

#ifndef FA3C_RL_QUANT_BACKEND_HH
#define FA3C_RL_QUANT_BACKEND_HH

#include <cstdint>
#include <vector>

#include "nn/quant_params.hh"
#include "rl/fast_cpu_backend.hh"

namespace fa3c::rl {

/** Quantized-inference backend; see file comment. */
class QuantCpuBackend : public FastCpuBackend
{
  public:
    explicit QuantCpuBackend(const nn::A3cNetwork &net);

    bool wantsQuantized() const override { return true; }

    /** Re-derives the quantized image locally (trainer path). */
    void onParamSync(const nn::ParamSet &params) override;

    /** Adopts a pre-built image (serving path, shared per publish). */
    void onQuantSync(
        const nn::ParamSet &params,
        std::shared_ptr<const nn::QuantizedModel> quant) override;

    void forward(const nn::ParamSet &params, const tensor::Tensor &obs,
                 nn::A3cNetwork::Activations &act) override;

    void
    forwardBatch(const nn::ParamSet &params,
                 std::span<const tensor::Tensor *const> obs,
                 std::span<nn::A3cNetwork::Activations *const> acts)
        override;

  private:
    /** Int8 scratch of one conv-trunk task. */
    struct TrunkScratch
    {
        std::vector<std::int8_t> img8;   ///< quantized input feature map
        std::vector<std::int8_t> rows8;  ///< int8 patch rows (im2row8)
        std::vector<std::int32_t> acc32; ///< integer accumulators
    };

    /** Quantize locally when forward arrives before any sync. */
    void ensureQuant(const nn::ParamSet &params);

    /** One int8 conv layer: quantize -> im2row8 -> qgemm -> dequant. */
    void convLayerInt8(const nn::ConvSpec &spec,
                       const nn::QuantizedModel::Int8Panels &qw,
                       std::span<const float> bias, const float *in,
                       float *outPre, TrunkScratch &scratch);

    /** Int8 conv trunk writing the standard activation tensors. */
    void convTrunkInt8(const nn::ParamSet &params,
                       const tensor::Tensor &obs,
                       nn::A3cNetwork::Activations &act,
                       TrunkScratch &scratch);

    /** Batched int8 FC: out[s][o] = deq(qgemm) + bias[o]. */
    void fcBatchInt8(const nn::FcSpec &spec,
                     const nn::QuantizedModel::Int8Panels &qw,
                     std::span<const float> bias, int bsz,
                     const float *in, float *out);

    /** Small-head int8 FC via per-row dot products. */
    void fcSmallInt8(const nn::FcSpec &spec,
                     const nn::QuantizedModel::Int8Rows &qw,
                     std::span<const float> bias, int bsz,
                     const float *in, float *out);

    /** The FC stack shared by forward and forwardBatch. */
    void fcStack(const nn::ParamSet &params, int bsz,
                 std::span<nn::A3cNetwork::Activations *const> acts);

    std::shared_ptr<const nn::QuantizedModel> quant_;

    // Int8 scratch (per-backend, like the fp32 scratch in the base).
    std::vector<TrunkScratch> trunks_; ///< one per conv-trunk task
    std::vector<std::int32_t> acc32_;  ///< FC integer accumulators
    std::vector<std::int8_t> qrows_; ///< quantized activation rows
    std::vector<float> sx_;          ///< per-sample activation scales
};

} // namespace fa3c::rl

#endif // FA3C_RL_QUANT_BACKEND_HH
