/**
 * @file
 * Fast fully-connected kernels.
 *
 * The golden fcForward in nn/layers.cc is a per-row dot product — a
 * reduction the autovectorizer cannot reassociate without
 * -ffast-math. Forward here instead runs as a GEMM over W^T (an axpy
 * over the output lane, out[:] += in[i] * W^T[i][:], that vectorizes
 * like the GEMM tiles), and reads W^T straight from the canonical
 * W[O][I] rows through gemmAccBT's transposing load, so no second
 * copy of the weights is staged. Single-sample forward is that GEMM
 * with M = 1 and batched forward the same call with M = batch, so
 * single and batched results are bit-identical. Heads narrower than
 * kSmallFcMaxOut dot the canonical rows instead.
 *
 * Backward and gradient stream the canonical [O][I] rows
 * contiguously as well.
 */

#ifndef FA3C_NN_KERNELS_FC_HH
#define FA3C_NN_KERNELS_FC_HH

#include <span>

#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/**
 * Forward of @p batch rows (batch = 1 for a single sample):
 * out[batch][O] = in[batch][I] * W^T + b over the canonical w[O][I].
 * A batch reads the weights once for all rows. Every output element
 * accumulates in increasing-i order whatever the batch size, so row
 * s of a batched call is bit-identical to a batch = 1 call on that
 * row.
 */
void fcForwardFastBatch(const FcSpec &spec, int batch, const float *in,
                        std::span<const float> w,
                        std::span<const float> b, float *out);

/**
 * Small-output forward over the canonical w[O][I] rows: per-row dot
 * products. Below kGemmStripWidth outputs the GEMM runs a lone tail
 * strip through its axpy form, transposing the head's few rows for
 * every 16 k terms; the dot form reads exactly the live weights
 * once. Batched and single-sample calls use the same per-element
 * order, so they stay bit-identical to each other (golden parity is
 * ULP-bounded like the other fast kernels).
 */
void fcForwardSmallBatch(const FcSpec &spec, int batch, const float *in,
                         std::span<const float> w,
                         std::span<const float> b, float *out);

/** Output width below which fcForwardSmallBatch wins over the GEMM. */
constexpr int kSmallFcMaxOut = 32;

/** Backward: g_in[I] = W^T * g_out using the canonical w[O][I]. */
void fcBackwardFast(const FcSpec &spec, const float *g_out,
                    std::span<const float> w, float *g_in);

/** Gradient: g_w += g_out x in^T; g_b += g_out (accumulates). */
void fcGradientFast(const FcSpec &spec, const float *in,
                    const float *g_out, std::span<float> g_w,
                    std::span<float> g_b);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_FC_HH
