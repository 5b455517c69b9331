/**
 * @file
 * Fast convolution kernels: blocked im2col/GEMM formulations of the
 * three computation types (FW, BW, GC) the golden model in
 * nn/layers.cc implements with direct loops.
 *
 * All three read or write the canonical [O][I*K*K] weight layout
 * (the ParamSet "convN.w" buffer, viewed as a GEMM matrix): forward
 * and gradient use it as the A/C matrix, and backward, whose A
 * operand is its transpose [I*K*K][O], reads it through gemmAccAT.
 *
 * All kernels take a caller-provided scratch buffer of colSize(spec)
 * floats so per-call allocation never lands on the hot path. Results
 * match the golden model up to floating-point reassociation (the
 * parity tests bound the ULP error).
 */

#ifndef FA3C_NN_KERNELS_CONV_HH
#define FA3C_NN_KERNELS_CONV_HH

#include <span>

#include "nn/kernels/im2col.hh"
#include "nn/layers.hh"

namespace fa3c::nn::kernels {

/**
 * Forward: out[O][OH*OW] = w[O][I*K*K] * im2col(in) + b.
 *
 * @param scratch At least colSize(spec) floats.
 */
void convForwardFast(const ConvSpec &spec, const float *in,
                     std::span<const float> w, std::span<const float> b,
                     float *out, std::span<float> scratch);

/**
 * Backward: in_grad = col2im(w^T * g_out); in_grad is zeroed first.
 *
 * @param w       Canonical weights [O][I*K*K].
 * @param scratch At least colSize(spec) floats.
 */
void convBackwardFast(const ConvSpec &spec, const float *g_out,
                      std::span<const float> w, float *in_grad,
                      std::span<float> scratch);

/**
 * Gradient: g_w[O][I*K*K] += g_out[O][OH*OW] * im2row(in);
 * g_b[o] += sum of g_out row o. Accumulates (callers zero per batch).
 *
 * @param scratch At least colSize(spec) floats.
 */
void convGradientFast(const ConvSpec &spec, const float *in,
                      const float *g_out, std::span<float> g_w,
                      std::span<float> g_b, std::span<float> scratch);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_CONV_HH
