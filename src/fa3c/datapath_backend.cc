#include "fa3c/datapath_backend.hh"

#include <algorithm>

#include "fa3c/tlu.hh"
#include "nn/layers.hh"
#include "sim/logging.hh"

namespace fa3c::core {

namespace {

/** Copy a flat span into a [N, 1, 1] staging tensor. */
void
toColumn(std::span<const float> src, Tensor &dst)
{
    FA3C_ASSERT(dst.numel() == src.size(), "toColumn size");
    std::copy(src.begin(), src.end(), dst.data().begin());
}

} // namespace

DatapathBackend::DatapathBackend(const nn::A3cNetwork &net,
                                 const Fa3cConfig &cfg)
    : net_(net), cfg_(cfg), pes_(cfg.cuPes())
{
    auto make_layer = [](const nn::ConvSpec &spec, std::string w,
                         std::string b) {
        const int kk = spec.kernel * spec.kernel;
        Layer layer;
        layer.spec = spec;
        layer.wName = std::move(w);
        layer.bName = std::move(b);
        layer.fw = ParamMatrix(spec.inChannels * kk, spec.outChannels);
        layer.bw = ParamMatrix(spec.outChannels * kk, spec.inChannels);
        layer.gradScratch =
            ParamMatrix(spec.inChannels * kk, spec.outChannels);
        layer.weightScratch.assign(spec.weightCount(), 0.0f);
        layer.biasScratch.assign(spec.biasCount(), 0.0f);
        return layer;
    };
    layers_.push_back(make_layer(net.conv1(), "conv1.w", "conv1.b"));
    layers_.push_back(make_layer(net.conv2(), "conv2.w", "conv2.b"));
    layers_.push_back(make_layer(asConv(net.fc3()), "fc3.w", "fc3.b"));
    layers_.push_back(make_layer(asConv(net.fc4()), "fc4.w", "fc4.b"));

    fc3In_ = Tensor(tensor::Shape({net.fc3().inFeatures, 1, 1}));
    fc3Out_ = Tensor(tensor::Shape({net.fc3().outFeatures, 1, 1}));
    fc4In_ = Tensor(tensor::Shape({net.fc4().inFeatures, 1, 1}));
    fc4Out_ = Tensor(tensor::Shape({net.fc4().outFeatures, 1, 1}));
    gFc4In_ = Tensor(fc4In_.shape());
    gFc3In_ = Tensor(fc3In_.shape());
    gFc3Out_ = Tensor(fc3Out_.shape());
}

void
DatapathBackend::rebuildLayouts(const nn::ParamSet &params)
{
    for (auto &layer : layers_) {
        layer.fw = buildFwLayout(layer.spec, params.view(layer.wName));
        if (cfg_.variant != Variant::Alt1) {
            // The BW image is produced the way the hardware does it:
            // pack the FW matrix into DRAM patches, stream them
            // through the TLU transposer.
            const std::vector<float> packed = packPatches(layer.fw);
            layer.bw = loadBwViaTlu(layer.spec, packed);
        }
    }
    layoutsValid_ = true;
}

void
DatapathBackend::onParamSync(const nn::ParamSet &params)
{
    rebuildLayouts(params);
}

void
DatapathBackend::forward(const nn::ParamSet &params,
                         const tensor::Tensor &obs,
                         nn::A3cNetwork::Activations &act)
{
    if (!layoutsValid_)
        rebuildLayouts(params);

    act.input = obs;
    auto &conv1 = layers_[0];
    auto &conv2 = layers_[1];
    auto &fc3 = layers_[2];
    auto &fc4 = layers_[3];

    StageModel m = pes_.convForward(conv1.spec, act.input, conv1.fw,
                                    params.view(conv1.bName),
                                    act.conv1Pre);
    stats_.counter("cycles.fw").inc(m.cycles);
    nn::reluForward(act.conv1Pre, act.conv1Act);

    m = pes_.convForward(conv2.spec, act.conv1Act, conv2.fw,
                         params.view(conv2.bName), act.conv2Pre);
    stats_.counter("cycles.fw").inc(m.cycles);
    nn::reluForward(act.conv2Pre, act.conv2Act);

    toColumn(act.conv2Act.data(), fc3In_);
    m = pes_.convForward(fc3.spec, fc3In_, fc3.fw,
                         params.view(fc3.bName), fc3Out_);
    stats_.counter("cycles.fw").inc(m.cycles);
    std::copy(fc3Out_.data().begin(), fc3Out_.data().end(),
              act.fc3Pre.data().begin());
    nn::reluForward(act.fc3Pre, act.fc3Act);

    toColumn(act.fc3Act.data(), fc4In_);
    m = pes_.convForward(fc4.spec, fc4In_, fc4.fw,
                         params.view(fc4.bName), fc4Out_);
    stats_.counter("cycles.fw").inc(m.cycles);
    std::copy(fc4Out_.data().begin(), fc4Out_.data().end(),
              act.out.data().begin());
}

StageModel
DatapathBackend::backwardLayer(const Layer &layer, const Tensor &g_out,
                               Tensor &g_in) const
{
    if (cfg_.variant == Variant::Alt1)
        return pes_.convBackwardFwLayout(layer.spec, g_out, layer.fw,
                                         g_in);
    return pes_.convBackward(layer.spec, g_out, layer.bw, g_in);
}

void
DatapathBackend::accumulateGrads(Layer &layer, nn::ParamSet &grads)
{
    fwLayoutToWeights(layer.spec, layer.gradScratch,
                      layer.weightScratch);
    auto g_w = grads.view(layer.wName);
    for (std::size_t i = 0; i < g_w.size(); ++i)
        g_w[i] += layer.weightScratch[i];
    auto g_b = grads.view(layer.bName);
    for (std::size_t i = 0; i < g_b.size(); ++i)
        g_b[i] += layer.biasScratch[i];
}

void
DatapathBackend::backward(const nn::ParamSet &params,
                          const nn::A3cNetwork::Activations &act,
                          const tensor::Tensor &g_out,
                          nn::ParamSet &grads)
{
    if (!layoutsValid_)
        rebuildLayouts(params);

    auto &conv1 = layers_[0];
    auto &conv2 = layers_[1];
    auto &fc3 = layers_[2];
    auto &fc4 = layers_[3];

    auto run_gc = [this](Layer &layer, const Tensor &in,
                         const Tensor &gout, nn::ParamSet &out_grads) {
        std::fill(layer.gradScratch.data().begin(),
                  layer.gradScratch.data().end(), 0.0f);
        std::fill(layer.biasScratch.begin(), layer.biasScratch.end(),
                  0.0f);
        const StageModel m =
            pes_.convGradient(layer.spec, in, gout, layer.gradScratch,
                              layer.biasScratch);
        stats_.counter("cycles.gc").inc(m.cycles);
        accumulateGrads(layer, out_grads);
    };

    // FC4: GC then BW (Section 4.3 order, last layer first).
    toColumn(act.fc3Act.data(), fc4In_);
    Tensor g_fc4_out(fc4Out_.shape());
    toColumn(g_out.data(), g_fc4_out);
    run_gc(fc4, fc4In_, g_fc4_out, grads);
    StageModel m = backwardLayer(fc4, g_fc4_out, gFc4In_);
    stats_.counter("cycles.bw").inc(m.cycles);

    // ReLU before FC4.
    Tensor g_fc3_act(tensor::Shape({net_.fc3().outFeatures}));
    std::copy(gFc4In_.data().begin(), gFc4In_.data().end(),
              g_fc3_act.data().begin());
    Tensor g_fc3_pre(g_fc3_act.shape());
    nn::reluBackward(act.fc3Pre, g_fc3_act, g_fc3_pre);

    // FC3.
    toColumn(act.conv2Act.data(), fc3In_);
    toColumn(g_fc3_pre.data(), gFc3Out_);
    run_gc(fc3, fc3In_, gFc3Out_, grads);
    m = backwardLayer(fc3, gFc3Out_, gFc3In_);
    stats_.counter("cycles.bw").inc(m.cycles);

    // ReLU before FC3, reshaped onto the conv2 feature map.
    Tensor g_conv2_act(act.conv2Pre.shape());
    std::copy(gFc3In_.data().begin(), gFc3In_.data().end(),
              g_conv2_act.data().begin());
    Tensor g_conv2_pre(act.conv2Pre.shape());
    nn::reluBackward(act.conv2Pre, g_conv2_act, g_conv2_pre);

    // Conv2.
    run_gc(conv2, act.conv1Act, g_conv2_pre, grads);
    Tensor g_conv1_act(act.conv1Pre.shape());
    m = backwardLayer(conv2, g_conv2_pre, g_conv1_act);
    stats_.counter("cycles.bw").inc(m.cycles);

    // ReLU before Conv2.
    Tensor g_conv1_pre(act.conv1Pre.shape());
    nn::reluBackward(act.conv1Pre, g_conv1_act, g_conv1_pre);

    // Conv1: GC only; no BW into the game screen.
    run_gc(conv1, act.input, g_conv1_pre, grads);
}

} // namespace fa3c::core
