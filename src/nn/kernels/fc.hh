/**
 * @file
 * Fast fully-connected kernels.
 *
 * The golden fcForward in nn/layers.cc is a per-row dot product — a
 * reduction the autovectorizer cannot reassociate without
 * -ffast-math. Forward here instead runs as a GEMM over a panel image
 * of W^T (gemmPackPanelsT of the canonical W[O][I], staged once per
 * parameter sync), so the inner loop is an axpy over the output lane
 * (out[:] += in[i] * W^T[i][:]) that vectorizes like the GEMM tiles.
 * Single-sample forward is that GEMM with M = 1 and batched forward
 * the same call with M = batch, over one shared panel image, so
 * single and batched results are bit-identical. Heads narrower than
 * kSmallFcMaxOut skip the image and dot the canonical rows.
 *
 * Backward and gradient already stream the canonical [O][I] rows
 * contiguously, so they need no staged layout.
 */

#ifndef FA3C_NN_KERNELS_FC_HH
#define FA3C_NN_KERNELS_FC_HH

#include <span>

#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/**
 * Forward of @p batch rows (batch = 1 for a single sample):
 * out[batch][O] = in[batch][I] * W^T + b, with @p wPanels the
 * gemmPackPanelsT image of W[O][I] (gemmPanelSize(O, I) floats). The
 * panel layout streams the weights sequentially inside the GEMM,
 * which matters on wide layers where a row-major W^T walk would take
 * a TLB miss per k step, and a batch reads them once for all rows.
 * Every output element accumulates in increasing-i order whatever
 * the batch size, so row s of a batched call is bit-identical to a
 * batch = 1 call on that row.
 */
void fcForwardFastBatchPanels(const FcSpec &spec, int batch,
                              const float *in,
                              std::span<const float> wPanels,
                              std::span<const float> b, float *out);

/**
 * Small-output forward over the canonical w[O][I] rows: per-row dot
 * products, no transpose or panel staging. Below kGemmPanelWidth
 * outputs the panel path pads every strip to 32 columns (6x wasted
 * weight bandwidth for the 5-wide fc4 head — the cause of its 0.5x
 * regression); the dot form reads exactly the live weights. Batched
 * and single-sample calls use the same per-element order, so they
 * stay bit-identical to each other (golden parity is ULP-bounded
 * like the other fast kernels).
 */
void fcForwardSmallBatch(const FcSpec &spec, int batch, const float *in,
                         std::span<const float> w,
                         std::span<const float> b, float *out);

/** Output width below which fcForwardSmallBatch wins over panels. */
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
