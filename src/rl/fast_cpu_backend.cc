#include "rl/fast_cpu_backend.hh"

#include "rl/quant_backend.hh"

#include <algorithm>
#include <cstring>

#include "nn/kernels/conv.hh"
#include "nn/kernels/fc.hh"
#include "nn/kernels/im2col.hh"
#include "nn/kernels/threadpool.hh"
#include "rl/kernel_timer.hh"
#include "sim/logging.hh"

namespace fa3c::rl {

FastCpuBackend::FastCpuBackend(const nn::A3cNetwork &net)
    : net_(net),
      fc4Small_(net.fc4().outFeatures < nn::kernels::kSmallFcMaxOut),
      colScratch_(std::max(nn::kernels::colSize(net.conv1()),
                           nn::kernels::colSize(net.conv2()))),
      gFc3Act_(tensor::Shape({net.fc3().outFeatures})),
      gFc3Pre_(tensor::Shape({net.fc3().outFeatures})),
      gConv2Act_(tensor::Shape({net.conv2().outChannels,
                                net.conv2().outHeight(),
                                net.conv2().outWidth()})),
      gConv2Pre_(gConv2Act_.shape()),
      gConv1Act_(tensor::Shape({net.conv1().outChannels,
                                net.conv1().outHeight(),
                                net.conv1().outWidth()})),
      gConv1Pre_(gConv1Act_.shape())
{
}

int
FastCpuBackend::sampleTasks(int bsz) const
{
    const auto trunk_macs = static_cast<long long>(
        net_.conv1().fwMacs() + net_.conv2().fwMacs());
    return nn::kernels::splitTasks(bsz * trunk_macs, bsz);
}

void
FastCpuBackend::splitSamples(int bsz, const TrunkPass &trunk) const
{
    const int tasks = sampleTasks(bsz);
    nn::kernels::parallelFor(tasks, [&](int t) {
        for (int s = bsz * t / tasks; s < bsz * (t + 1) / tasks; ++s)
            trunk(t, s);
    });
}

void
FastCpuBackend::forwardConvs(const nn::ParamSet &params,
                             const tensor::Tensor &obs,
                             nn::A3cNetwork::Activations &act,
                             std::span<float> cols)
{
    act.input = obs;
    {
        KernelTimer t("conv_fw");
        nn::kernels::convForwardFast(
            net_.conv1(), act.input.data().data(),
            params.view("conv1.w"), params.view("conv1.b"),
            act.conv1Pre.data().data(), cols);
    }
    nn::reluForward(act.conv1Pre, act.conv1Act);
    {
        KernelTimer t("conv_fw");
        nn::kernels::convForwardFast(
            net_.conv2(), act.conv1Act.data().data(),
            params.view("conv2.w"), params.view("conv2.b"),
            act.conv2Pre.data().data(), cols);
    }
    nn::reluForward(act.conv2Pre, act.conv2Act);
}

void
FastCpuBackend::forward(const nn::ParamSet &params,
                        const tensor::Tensor &obs,
                        nn::A3cNetwork::Activations &act)
{
    const tensor::Tensor *obsp[1] = {&obs};
    nn::A3cNetwork::Activations *actp[1] = {&act};
    forwardBatch(params, obsp, actp);
}

void
FastCpuBackend::forwardStack(
    std::span<nn::A3cNetwork::Activations *const> acts,
    const TrunkPass &trunk, const FcPass &fc3, const FcPass &fc4)
{
    const int bsz = static_cast<int>(acts.size());
    const auto rows = static_cast<std::size_t>(bsz);
    const auto in3 = static_cast<std::size_t>(net_.fc3().inFeatures);
    const auto out3 = static_cast<std::size_t>(net_.fc3().outFeatures);
    const auto out4 = static_cast<std::size_t>(net_.fc4().outFeatures);
    batchIn_.resize(rows * in3);
    batchAct_.resize(rows * out3);
    batchOut_.resize(rows * out4);

    // A row-major conv2 map already is fc3's input vector; the task
    // that computed it stages it while it is hot in that core's cache.
    splitSamples(bsz, [&](int task, int s) {
        trunk(task, s);
        const auto i = static_cast<std::size_t>(s);
        std::memcpy(batchIn_.data() + i * in3,
                    acts[i]->conv2Act.data().data(), in3 * sizeof(float));
    });
    fc3(bsz, batchIn_.data(), batchAct_.data());
    for (std::size_t s = 0; s < rows; ++s) {
        float *row = batchAct_.data() + s * out3;
        std::memcpy(acts[s]->fc3Pre.data().data(), row,
                    out3 * sizeof(float));
        for (std::size_t i = 0; i < out3; ++i)
            row[i] = row[i] > 0.0f ? row[i] : 0.0f;
        std::memcpy(acts[s]->fc3Act.data().data(), row,
                    out3 * sizeof(float));
    }
    fc4(bsz, batchAct_.data(), batchOut_.data());
    for (std::size_t s = 0; s < rows; ++s)
        std::memcpy(acts[s]->out.data().data(),
                    batchOut_.data() + s * out4, out4 * sizeof(float));
}

void
FastCpuBackend::backward(const nn::ParamSet &params,
                         const nn::A3cNetwork::Activations &act,
                         const tensor::Tensor &g_out,
                         nn::ParamSet &grads)
{
    FA3C_ASSERT(g_out.numel() ==
                    static_cast<std::size_t>(net_.fc4().outFeatures),
                "FastCpuBackend backward g_out size");

    // FC4: GC then BW (the same task order as the golden network).
    {
        KernelTimer t("fc_gc");
        nn::kernels::fcGradientFast(
            net_.fc4(), act.fc3Act.data().data(), g_out.data().data(),
            grads.view("fc4.w"), grads.view("fc4.b"));
    }
    {
        KernelTimer t("fc_bw");
        nn::kernels::fcBackwardFast(net_.fc4(), g_out.data().data(),
                                    params.view("fc4.w"),
                                    gFc3Act_.data().data());
    }
    nn::reluBackward(act.fc3Pre, gFc3Act_, gFc3Pre_);

    // FC3's GC and the rest of the chain (FC3 BW down to conv1's GC)
    // only read params, act and gFc3Pre_, and write disjoint gradient
    // segments and scratch, so they run side by side on the kernel
    // pool: the GC streams fc3's weight-sized gradient (memory-bound)
    // while the chain computes. The longer chain is task 0, which the
    // caller starts at once.
    const auto part = [&](int task) {
        if (task == 1) {
            KernelTimer t("fc_gc");
            nn::kernels::fcGradientFast(
                net_.fc3(), act.conv2Act.data().data(),
                gFc3Pre_.data().data(), grads.view("fc3.w"),
                grads.view("fc3.b"));
            return;
        }
        {
            KernelTimer t("fc_bw");
            nn::kernels::fcBackwardFast(
                net_.fc3(), gFc3Pre_.data().data(), params.view("fc3.w"),
                gConv2Act_.data().data());
        }

        // ReLU before FC3, applied on the conv2 feature map.
        nn::reluBackward(act.conv2Pre, gConv2Act_, gConv2Pre_);

        // Conv2.
        {
            KernelTimer t("conv_gc");
            nn::kernels::convGradientFast(
                net_.conv2(), act.conv1Act.data().data(),
                gConv2Pre_.data().data(), grads.view("conv2.w"),
                grads.view("conv2.b"), colScratch_);
        }
        {
            KernelTimer t("conv_bw");
            nn::kernels::convBackwardFast(
                net_.conv2(), gConv2Pre_.data().data(),
                params.view("conv2.w"), gConv1Act_.data().data(),
                colScratch_);
        }
        nn::reluBackward(act.conv1Pre, gConv1Act_, gConv1Pre_);

        // Conv1: gradient only; BW into the game screen is not needed.
        {
            KernelTimer t("conv_gc");
            nn::kernels::convGradientFast(
                net_.conv1(), act.input.data().data(),
                gConv1Pre_.data().data(), grads.view("conv1.w"),
                grads.view("conv1.b"), colScratch_);
        }
    };
    nn::kernels::parallelFor(2, part);
}

void
FastCpuBackend::forwardBatch(
    const nn::ParamSet &params,
    std::span<const tensor::Tensor *const> obs,
    std::span<nn::A3cNetwork::Activations *const> acts)
{
    FA3C_ASSERT(obs.size() == acts.size(),
                "forwardBatch obs/acts size mismatch");
    if (obs.empty())
        return;

    // Conv trunks split by sample across the kernel pool. The conv
    // weights live in cache across the whole batch, so batching has
    // nothing to amortize there; running the trunks side by side does
    // pay. Each task im2cols into its own patch matrix, made in place
    // on first use (a copied temporary would count in peak RSS).
    // FC3 and FC4 each run as one M = batch GEMM: the weight matrix is
    // streamed once for the whole batch instead of once per request.
    // The GEMM (and the small-head dot kernel) accumulates every
    // output element in the same order at any M, so a sample's
    // results do not depend on the batch it rides in.
    const int tasks = sampleTasks(static_cast<int>(obs.size()));
    while (static_cast<int>(taskCols_.size()) < tasks - 1)
        taskCols_.emplace_back(colScratch_.size());
    forwardStack(
        acts,
        [&](int task, int s) {
            forwardConvs(params, *obs[s], *acts[s],
                         task == 0 ? colScratch_
                                   : taskCols_[static_cast<std::size_t>(
                                         task - 1)]);
        },
        [&](int rows, const float *in, float *out) {
            KernelTimer t("fc_fw");
            nn::kernels::fcForwardFastBatch(net_.fc3(), rows, in,
                                            params.view("fc3.w"),
                                            params.view("fc3.b"), out);
        },
        [&](int rows, const float *in, float *out) {
            KernelTimer t("fc_fw");
            if (fc4Small_)
                nn::kernels::fcForwardSmallBatch(
                    net_.fc4(), rows, in, params.view("fc4.w"),
                    params.view("fc4.b"), out);
            else
                nn::kernels::fcForwardFastBatch(
                    net_.fc4(), rows, in, params.view("fc4.w"),
                    params.view("fc4.b"), out);
        });
}

std::unique_ptr<DnnBackend>
makeDnnBackend(BackendKind kind, const nn::A3cNetwork &net)
{
    switch (kind) {
    case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(net);
    case BackendKind::FastCpu:
        return std::make_unique<FastCpuBackend>(net);
    case BackendKind::Int8:
        return std::make_unique<QuantCpuBackend>(net);
    }
    FA3C_PANIC("unknown BackendKind ", static_cast<int>(kind));
}

BackendKind
backendKindFromName(const std::string &name)
{
    if (const auto kind = tryBackendKindFromName(name))
        return *kind;
    FA3C_PANIC("unknown backend name '", name,
               "' (want reference|fast|int8)");
}

std::optional<BackendKind>
tryBackendKindFromName(const std::string &name)
{
    if (name == "reference")
        return BackendKind::Reference;
    if (name == "fast")
        return BackendKind::FastCpu;
    if (name == "int8")
        return BackendKind::Int8;
    return std::nullopt;
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Reference:
        return "reference";
    case BackendKind::FastCpu:
        return "fast";
    case BackendKind::Int8:
        return "int8";
    }
    return "reference";
}

} // namespace fa3c::rl
