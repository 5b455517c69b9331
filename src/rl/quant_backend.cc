#include "rl/quant_backend.hh"

#include <algorithm>

#include "nn/kernels/im2col.hh"
#include "nn/kernels/quant.hh"
#include "nn/kernels/threadpool.hh"
#include "rl/kernel_timer.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

namespace {

/** Dynamic per-tensor activation scale (dequant sx, inverse 127/m). */
struct ActScale
{
    float sx;
    float inv;
};

ActScale
actScale(const float *x, std::size_t n)
{
    const float m = nn::kernels::rowMaxAbs(x, n);
    return {m / 127.0f, m > 0.0f ? 127.0f / m : 0.0f};
}

} // namespace

QuantCpuBackend::QuantCpuBackend(const nn::A3cNetwork &net)
    : FastCpuBackend(net)
{
}

void
QuantCpuBackend::onParamSync(const nn::ParamSet &params)
{
    quant_ = std::make_shared<const nn::QuantizedModel>(
        nn::quantizeModel(net_, params));
}

void
QuantCpuBackend::onQuantSync(
    const nn::ParamSet &params,
    std::shared_ptr<const nn::QuantizedModel> quant)
{
    if (!quant) {
        // The publisher built no image: derive it locally like a
        // trainer would.
        onParamSync(params);
        return;
    }
    quant_ = std::move(quant);
}

void
QuantCpuBackend::ensureQuant(const nn::ParamSet &params)
{
    if (!quant_)
        onParamSync(params);
}

void
QuantCpuBackend::convLayerInt8(const nn::ConvSpec &spec,
                               const nn::QuantizedModel::Int8Panels &qw,
                               std::span<const float> bias,
                               const float *in, float *outPre,
                               TrunkScratch &scratch)
{
    KernelTimer t("conv_fw_q8");
    const int O = spec.outChannels;
    const int pos = static_cast<int>(nn::kernels::patchCount(spec));
    const int taps = static_cast<int>(nn::kernels::patchSize(spec));
    const std::size_t inCount = static_cast<std::size_t>(spec.inChannels) *
                                static_cast<std::size_t>(spec.inHeight) *
                                static_cast<std::size_t>(spec.inWidth);

    const ActScale s = actScale(in, inCount);
    scratch.img8.resize(inCount);
    nn::kernels::quantizeRowU(static_cast<int>(inCount), in, s.inv,
                              scratch.img8.data());

    const std::size_t stride =
        static_cast<std::size_t>(nn::kernels::qrowStride(taps));
    scratch.rows8.resize(static_cast<std::size_t>(pos) * stride);
    nn::kernels::im2row8(spec, scratch.img8.data(), scratch.rows8.data());

    // acc[pos][O] = rows8 * wT panels, exact int32.
    std::vector<std::int32_t> &acc = scratch.acc32;
    acc.assign(static_cast<std::size_t>(pos) * static_cast<std::size_t>(O),
               0);
    nn::kernels::qgemmAccPanels(pos, O, taps, scratch.rows8.data(),
                                static_cast<int>(stride),
                                qw.panels.data(), acc.data(), O);

    // Dequantize and transpose to the canonical [O][OH*OW] map.
    for (int o = 0; o < O; ++o) {
        const float so = qw.scale[static_cast<std::size_t>(o)] * s.sx;
        const float bo = bias[static_cast<std::size_t>(o)];
        float *dst = outPre + static_cast<std::size_t>(o) *
                                  static_cast<std::size_t>(pos);
        for (int p = 0; p < pos; ++p)
            dst[p] = static_cast<float>(
                         acc[static_cast<std::size_t>(p) *
                                 static_cast<std::size_t>(O) +
                             static_cast<std::size_t>(o)]) *
                         so +
                     bo;
    }
}

void
QuantCpuBackend::convTrunkInt8(const nn::ParamSet &params,
                               const tensor::Tensor &obs,
                               nn::A3cNetwork::Activations &act,
                               TrunkScratch &scratch)
{
    act.input = obs;
    convLayerInt8(net_.conv1(), quant_->conv1, params.view("conv1.b"),
                  act.input.data().data(), act.conv1Pre.data().data(),
                  scratch);
    nn::reluForward(act.conv1Pre, act.conv1Act);
    convLayerInt8(net_.conv2(), quant_->conv2, params.view("conv2.b"),
                  act.conv1Act.data().data(), act.conv2Pre.data().data(),
                  scratch);
    nn::reluForward(act.conv2Pre, act.conv2Act);
}

std::size_t
QuantCpuBackend::quantizeRows(int bsz, int inF, const float *in)
{
    const std::size_t stride =
        static_cast<std::size_t>(nn::kernels::qrowStride(inF));
    qrows_.assign(static_cast<std::size_t>(bsz) * stride, 0);
    sx_.resize(static_cast<std::size_t>(bsz));
    for (int s = 0; s < bsz; ++s) {
        const float *row =
            in + static_cast<std::size_t>(s) *
                     static_cast<std::size_t>(inF);
        const ActScale sc =
            actScale(row, static_cast<std::size_t>(inF));
        sx_[static_cast<std::size_t>(s)] = sc.sx;
        nn::kernels::quantizeRowU(inF, row, sc.inv,
                                  qrows_.data() +
                                      static_cast<std::size_t>(s) *
                                          stride);
    }
    return stride;
}

void
QuantCpuBackend::fcBatchInt8(const nn::FcSpec &spec,
                             const nn::QuantizedModel::Int8Panels &qw,
                             std::span<const float> bias, int bsz,
                             const float *in, float *out)
{
    KernelTimer t("fc_fw_q8");
    const int inF = spec.inFeatures;
    const int outF = spec.outFeatures;
    const std::size_t stride = quantizeRows(bsz, inF, in);

    acc32_.assign(static_cast<std::size_t>(bsz) *
                      static_cast<std::size_t>(outF),
                  0);

    // One M = batch qgemm, split by panel strips across the
    // pool when the layer is wide enough. Integer accumulation is
    // exact, so the split never changes results.
    const int strips =
        (outF + nn::kernels::kQuantPanelWidth - 1) /
        nn::kernels::kQuantPanelWidth;
    // The qgemm runs 4-7x the fp32 GEMM's multiply-adds per second
    // (bench_nn_kernels' fc3 rows), so its work counts a quarter in
    // the shared gate.
    const int tasks = nn::kernels::stripTasks(
        bsz, strips, static_cast<long long>(bsz) * outF * inF / 4);
    const std::size_t stripBytes =
        static_cast<std::size_t>(nn::kernels::kQuantPanelWidth) * stride;
    nn::kernels::parallelFor(tasks, [&](int task) {
        const int s0 = strips * task / tasks;
        const int s1 = strips * (task + 1) / tasks;
        const int n0 = s0 * nn::kernels::kQuantPanelWidth;
        const int n1 =
            std::min(outF, s1 * nn::kernels::kQuantPanelWidth);
        if (n1 <= n0)
            return;
        nn::kernels::qgemmAccPanels(
            bsz, n1 - n0, inF, qrows_.data(),
            static_cast<int>(stride),
            qw.panels.data() + static_cast<std::size_t>(s0) *
                                   stripBytes,
            acc32_.data() + n0, outF);
    });

    for (int s = 0; s < bsz; ++s) {
        const float sxs = sx_[static_cast<std::size_t>(s)];
        const std::int32_t *acc =
            acc32_.data() + static_cast<std::size_t>(s) *
                                static_cast<std::size_t>(outF);
        float *dst = out + static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(outF);
        for (int o = 0; o < outF; ++o)
            dst[o] = static_cast<float>(acc[o]) *
                         (qw.scale[static_cast<std::size_t>(o)] * sxs) +
                     bias[static_cast<std::size_t>(o)];
    }
}

void
QuantCpuBackend::fcSmallInt8(const nn::FcSpec &spec,
                             const nn::QuantizedModel::Int8Rows &qw,
                             std::span<const float> bias, int bsz,
                             const float *in, float *out)
{
    KernelTimer t("fc_fw_q8");
    const int outF = spec.outFeatures;
    const std::size_t stride = quantizeRows(bsz, spec.inFeatures, in);
    for (int s = 0; s < bsz; ++s) {
        const std::int8_t *qrow =
            qrows_.data() + static_cast<std::size_t>(s) * stride;
        const float sxs = sx_[static_cast<std::size_t>(s)];
        float *dst = out + static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(outF);
        for (int o = 0; o < outF; ++o) {
            const std::int32_t acc = nn::kernels::qdot(
                static_cast<int>(stride), qrow,
                qw.rows.data() + static_cast<std::size_t>(o) * stride);
            dst[o] = static_cast<float>(acc) *
                         (qw.scale[static_cast<std::size_t>(o)] * sxs) +
                     bias[static_cast<std::size_t>(o)];
        }
    }
}

void
QuantCpuBackend::forwardBatch(
    const nn::ParamSet &params,
    std::span<const tensor::Tensor *const> obs,
    std::span<nn::A3cNetwork::Activations *const> acts)
{
    FA3C_ASSERT(obs.size() == acts.size(),
                "forwardBatch obs/acts size mismatch");
    if (obs.empty())
        return;
    ensureQuant(params);

    // The int8 trunks split by sample like FastCpu's fp32 ones, each
    // task on its own scratch.
    const int tasks = sampleTasks(static_cast<int>(obs.size()));
    trunks_.resize(std::max(trunks_.size(),
                            static_cast<std::size_t>(tasks)));
    const nn::QuantizedModel &q = *quant_;
    forwardStack(
        acts,
        [&](int task, int s) {
            const auto i = static_cast<std::size_t>(s);
            convTrunkInt8(params, *obs[i], *acts[i],
                          trunks_[static_cast<std::size_t>(task)]);
        },
        [&](int rows, const float *in, float *out) {
            fcBatchInt8(net_.fc3(), q.fc3, params.view("fc3.b"), rows,
                        in, out);
        },
        [&](int rows, const float *in, float *out) {
            if (q.fc4Small)
                fcSmallInt8(net_.fc4(), q.fc4Rows, params.view("fc4.b"),
                            rows, in, out);
            else
                fcBatchInt8(net_.fc4(), q.fc4, params.view("fc4.b"),
                            rows, in, out);
        });
}

} // namespace fa3c::rl
