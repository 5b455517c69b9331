#include "nn/kernels/conv.hh"

#include <algorithm>
#include <cstring>

#include "nn/kernels/gemm.hh"
#include "sim/logging.hh"

namespace fa3c::nn::kernels {

void
convForwardFast(const ConvSpec &spec, const float *in,
                std::span<const float> w, std::span<const float> b,
                float *out, std::span<float> scratch)
{
    FA3C_ASSERT(w.size() == spec.weightCount(), "convForwardFast w");
    FA3C_ASSERT(b.size() == spec.biasCount(), "convForwardFast b");
    FA3C_ASSERT(scratch.size() >= colSize(spec),
                "convForwardFast scratch");
    const int n = static_cast<int>(patchCount(spec));
    const int k = static_cast<int>(patchSize(spec));

    im2col(spec, in, scratch.data());
    // Bias broadcast, then out += W * col.
    for (int o = 0; o < spec.outChannels; ++o)
        std::fill_n(out + static_cast<std::size_t>(o) *
                              static_cast<std::size_t>(n),
                    static_cast<std::size_t>(n),
                    b[static_cast<std::size_t>(o)]);
    gemmAcc(spec.outChannels, n, k, w.data(), k, scratch.data(), n, out,
            n);
}

void
convBackwardFast(const ConvSpec &spec, const float *g_out,
                 std::span<const float> w, float *in_grad,
                 std::span<float> scratch)
{
    FA3C_ASSERT(w.size() == spec.weightCount(), "convBackwardFast w");
    FA3C_ASSERT(scratch.size() >= colSize(spec),
                "convBackwardFast scratch");
    const int n = static_cast<int>(patchCount(spec));
    const int k = static_cast<int>(patchSize(spec));

    // colGrad[I*K*K][OH*OW] = w^T * g_out, then scatter-add.
    std::fill_n(scratch.data(), colSize(spec), 0.0f);
    gemmAccAT(k, n, spec.outChannels, w.data(), k, g_out, n,
              scratch.data(), n);
    std::memset(in_grad, 0,
                static_cast<std::size_t>(spec.inChannels) *
                    static_cast<std::size_t>(spec.inHeight) *
                    static_cast<std::size_t>(spec.inWidth) *
                    sizeof(float));
    col2imAcc(spec, scratch.data(), in_grad);
}

void
convGradientFast(const ConvSpec &spec, const float *in,
                 const float *g_out, std::span<float> g_w,
                 std::span<float> g_b, std::span<float> scratch)
{
    FA3C_ASSERT(g_w.size() == spec.weightCount(), "convGradientFast g_w");
    FA3C_ASSERT(g_b.size() == spec.biasCount(), "convGradientFast g_b");
    FA3C_ASSERT(scratch.size() >= colSize(spec),
                "convGradientFast scratch");
    const int n = static_cast<int>(patchCount(spec));
    const int k = static_cast<int>(patchSize(spec));

    for (int o = 0; o < spec.outChannels; ++o) {
        const float *row = g_out + static_cast<std::size_t>(o) *
                                       static_cast<std::size_t>(n);
        float acc = 0.0f;
        for (int j = 0; j < n; ++j)
            acc += row[j];
        g_b[static_cast<std::size_t>(o)] += acc;
    }
    // g_w += g_out * im2row(in): A = g_out [O][OH*OW],
    // B = patches [OH*OW][I*K*K], C = g_w [O][I*K*K].
    im2row(spec, in, scratch.data());
    gemmAcc(spec.outChannels, k, n, g_out, n, scratch.data(), k,
            g_w.data(), k);
}

} // namespace fa3c::nn::kernels
