#include "nn/kernels/fc.hh"

#include <algorithm>
#include <cstring>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/threadpool.hh"
#include "sim/logging.hh"

namespace fa3c::nn::kernels {

void
fcForwardFastBatch(const FcSpec &spec, int batch, const float *in,
                   std::span<const float> w, std::span<const float> b,
                   float *out)
{
    FA3C_ASSERT(w.size() == spec.weightCount(), "fcForwardFastBatch w");
    FA3C_ASSERT(b.size() == spec.biasCount(), "fcForwardFastBatch b");
    const std::size_t o = static_cast<std::size_t>(spec.outFeatures);
    const std::size_t i = static_cast<std::size_t>(spec.inFeatures);
    for (int s = 0; s < batch; ++s)
        std::memcpy(out + static_cast<std::size_t>(s) * o, b.data(),
                    o * sizeof(float));
    const int strips =
        (spec.outFeatures + kGemmStripWidth - 1) / kGemmStripWidth;
    const int tasks = stripTasks(batch, strips,
                                 static_cast<long long>(batch) *
                                     spec.outFeatures * spec.inFeatures);
    if (tasks > 1) {
        // Split by column strips: each output element is still
        // computed by exactly one task in the same order, so the
        // result is bit-identical to the single-thread call.
        parallelFor(tasks, [&](int t) {
            const int s0 = strips * t / tasks;
            const int s1 = strips * (t + 1) / tasks;
            const int j0 = s0 * kGemmStripWidth;
            const int j1 =
                std::min(s1 * kGemmStripWidth, spec.outFeatures);
            gemmAccBT(batch, j1 - j0, spec.inFeatures, in,
                      spec.inFeatures,
                      w.data() + static_cast<std::size_t>(j0) * i,
                      spec.inFeatures, out + static_cast<std::size_t>(j0),
                      spec.outFeatures);
        });
        return;
    }
    gemmAccBT(batch, spec.outFeatures, spec.inFeatures, in,
              spec.inFeatures, w.data(), spec.inFeatures, out,
              spec.outFeatures);
}

void
fcForwardSmallBatch(const FcSpec &spec, int batch, const float *in,
                    std::span<const float> w, std::span<const float> b,
                    float *out)
{
    FA3C_ASSERT(w.size() == spec.weightCount(), "fcForwardSmallBatch w");
    FA3C_ASSERT(b.size() == spec.biasCount(), "fcForwardSmallBatch b");
    ops().fcDotRows(batch, spec.outFeatures, spec.inFeatures, in,
                    spec.inFeatures, w.data(), spec.inFeatures,
                    b.data(), out, spec.outFeatures);
}

void
fcBackwardFast(const FcSpec &spec, const float *g_out,
               std::span<const float> w, float *g_in)
{
    FA3C_ASSERT(w.size() == spec.weightCount(), "fcBackwardFast w");
    // g_in[1][I] = g_out[1][O] * w[O][I]: the canonical layout is
    // already the right GEMM operand.
    std::fill_n(g_in, static_cast<std::size_t>(spec.inFeatures), 0.0f);
    gemmAcc(1, spec.inFeatures, spec.outFeatures, g_out,
            spec.outFeatures, w.data(), spec.inFeatures, g_in,
            spec.inFeatures);
}

void
fcGradientFast(const FcSpec &spec, const float *in, const float *g_out,
               std::span<float> g_w, std::span<float> g_b)
{
    FA3C_ASSERT(g_w.size() == spec.weightCount(), "fcGradientFast g_w");
    FA3C_ASSERT(g_b.size() == spec.biasCount(), "fcGradientFast g_b");
    float *FA3C_RESTRICT gw = g_w.data();
    const float *FA3C_RESTRICT src = in;
    for (int o = 0; o < spec.outFeatures; ++o) {
        const float g = g_out[static_cast<std::size_t>(o)];
        g_b[static_cast<std::size_t>(o)] += g;
        float *FA3C_RESTRICT row =
            gw + static_cast<std::size_t>(o) *
                     static_cast<std::size_t>(spec.inFeatures);
        for (int i = 0; i < spec.inFeatures; ++i)
            row[i] += g * src[i];
    }
}

} // namespace fa3c::nn::kernels
