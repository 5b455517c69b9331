/**
 * @file
 * Patch-matrix layout transforms for im2col/GEMM convolution.
 *
 * For a ConvSpec with I input channels, K x K filters and OH x OW
 * output positions, the two patch layouts are:
 *
 *   im2col: col[I*K*K][OH*OW]   one row per filter tap, one column
 *                               per output position (the GEMM B
 *                               operand of forward / backward);
 *   im2row: rows[OH*OW][I*K*K]  the transpose, built directly (the
 *                               GEMM B operand of the weight-gradient
 *                               computation).
 *
 * col2imAcc scatters a col-layout gradient back onto the input
 * feature maps (the adjoint of im2col).
 *
 * The transforms only move data, yet at the nets' sizes they take a
 * large share of conv time, so they are plain index loops the
 * compiler unrolls: im2col reads each input row once and writes it
 * into all K taps of its kernel row, and im2row copies K contiguous
 * pixels per (channel, kernel row). The (kernel, stride) pairs of the
 * nets' conv layers (8/4, 4/2, 3/1) run as compile-time
 * instantiations of the one body; every other spec runs it with
 * run-time geometry. im2row8 (quant.hh), the int8 layout, shares the
 * im2row body.
 */

#ifndef FA3C_NN_KERNELS_IM2COL_HH
#define FA3C_NN_KERNELS_IM2COL_HH

#include <cstddef>

#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/** Elements of one patch: I * K * K (the GEMM depth). */
inline std::size_t
patchSize(const ConvSpec &spec)
{
    return static_cast<std::size_t>(spec.inChannels) *
           static_cast<std::size_t>(spec.kernel) *
           static_cast<std::size_t>(spec.kernel);
}

/** Number of output positions: OH * OW (the GEMM width). */
inline std::size_t
patchCount(const ConvSpec &spec)
{
    return static_cast<std::size_t>(spec.outHeight()) *
           static_cast<std::size_t>(spec.outWidth());
}

/** Scratch floats one col / row patch matrix needs. */
inline std::size_t
colSize(const ConvSpec &spec)
{
    return patchSize(spec) * patchCount(spec);
}

/** col[patchSize][patchCount] = patches of in[I][H][W]. */
void im2col(const ConvSpec &spec, const float *in, float *col);

/** rows[patchCount][patchSize] = patches of in[I][H][W]. */
void im2row(const ConvSpec &spec, const float *in, float *rows);

/** in_grad[I][H][W] += scatter(col). Caller zeroes in_grad first. */
void col2imAcc(const ConvSpec &spec, const float *col, float *in_grad);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_IM2COL_HH
