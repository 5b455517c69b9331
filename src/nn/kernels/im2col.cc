#include "nn/kernels/im2col.hh"

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "nn/kernels/gemm.hh"
#include "nn/kernels/quant.hh"

namespace fa3c::nn::kernels {

namespace {

inline std::size_t
inRowBase(const ConvSpec &s, int i, int y)
{
    return (static_cast<std::size_t>(i) *
                static_cast<std::size_t>(s.inHeight) +
            static_cast<std::size_t>(y)) *
           static_cast<std::size_t>(s.inWidth);
}

/**
 * Calls body(kernel, stride). The pairs the nets' conv layers use,
 * 8/4 and 4/2 (Table 1) and 3/1 (the tiny net's conv2), arrive as
 * compile-time constants, so the tap loops unroll and the strided
 * reads get constant offsets; every other spec runs the same body
 * with run-time ints.
 */
template <typename Body>
inline void
withGeometry(const ConvSpec &spec, Body &&body)
{
    using std::integral_constant;
    if (spec.kernel == 8 && spec.stride == 4)
        body(integral_constant<int, 8>{}, integral_constant<int, 4>{});
    else if (spec.kernel == 4 && spec.stride == 2)
        body(integral_constant<int, 4>{}, integral_constant<int, 2>{});
    else if (spec.kernel == 3 && spec.stride == 1)
        body(integral_constant<int, 3>{}, integral_constant<int, 1>{});
    else
        body(spec.kernel, spec.stride);
}

/**
 * rows[p][0..row_stride) = patch p of in, zero-filled past
 * patchSize(spec) (the int8 layout pads each row to whole quads).
 */
template <typename T>
void
im2rowPadded(const ConvSpec &spec, const T *in, T *rows,
             std::size_t row_stride)
{
    withGeometry(spec, [&](auto kernel, auto stride) {
        const int k = kernel;
        const int s = stride;
        const std::size_t pad = row_stride - patchSize(spec);
        T *FA3C_RESTRICT dst = rows;
        for (int r = 0; r < spec.outHeight(); ++r) {
            for (int c = 0; c < spec.outWidth(); ++c) {
                for (int i = 0; i < spec.inChannels; ++i) {
                    for (int kr = 0; kr < k; ++kr) {
                        // K contiguous input pixels per (i, kr). GCC
                        // 12 copies K bytes one by one in the loop
                        // form but in one move as a fixed-size
                        // memcpy; K floats copy faster as the loop.
                        const T *FA3C_RESTRICT src =
                            in + inRowBase(spec, i, r * s + kr) +
                            static_cast<std::size_t>(c * s);
                        if constexpr (sizeof(T) == 1)
                            std::memcpy(dst, src,
                                        static_cast<std::size_t>(k));
                        else
                            for (int kc = 0; kc < k; ++kc)
                                dst[kc] = src[kc];
                        dst += k;
                    }
                }
                for (std::size_t p = 0; p < pad; ++p)
                    *dst++ = T{0};
            }
        }
    });
}

} // namespace

void
im2col(const ConvSpec &spec, const float *in, float *col)
{
    withGeometry(spec, [&](auto kernel, auto stride) {
        const int k = kernel;
        const int s = stride;
        const std::size_t ld = patchCount(spec);
        const int oh = spec.outHeight();
        const int ow = spec.outWidth();
        float *taps = col;
        for (int i = 0; i < spec.inChannels; ++i) {
            for (int kr = 0; kr < k; ++kr) {
                // Taps (i, kr, 0..K-1) are the next K col rows, and
                // input row r*S + kr holds output row r of all of them.
                for (int r = 0; r < oh; ++r) {
                    const float *FA3C_RESTRICT src =
                        in + inRowBase(spec, i, r * s + kr);
                    float *FA3C_RESTRICT dst =
                        taps + static_cast<std::size_t>(r * ow);
                    for (int kc = 0; kc < k; ++kc)
                        for (int c = 0; c < ow; ++c)
                            dst[static_cast<std::size_t>(kc) * ld +
                                static_cast<std::size_t>(c)] =
                                src[c * s + kc];
                }
                taps += static_cast<std::size_t>(k) * ld;
            }
        }
    });
}

void
im2row(const ConvSpec &spec, const float *in, float *rows)
{
    im2rowPadded(spec, in, rows, patchSize(spec));
}

void
im2row8(const ConvSpec &spec, const std::int8_t *in, std::int8_t *rows)
{
    im2rowPadded(
        spec, in, rows,
        static_cast<std::size_t>(
            qrowStride(static_cast<int>(patchSize(spec)))));
}

void
col2imAcc(const ConvSpec &spec, const float *col, float *in_grad)
{
    const int oh = spec.outHeight();
    const int ow = spec.outWidth();
    const int stride = spec.stride;
    const std::size_t n = patchCount(spec);
    const float *FA3C_RESTRICT src_row = col;
    for (int i = 0; i < spec.inChannels; ++i) {
        for (int kr = 0; kr < spec.kernel; ++kr) {
            for (int kc = 0; kc < spec.kernel; ++kc) {
                for (int r = 0; r < oh; ++r) {
                    float *FA3C_RESTRICT dst =
                        in_grad + inRowBase(spec, i, r * stride + kr) +
                        static_cast<std::size_t>(kc);
                    const float *FA3C_RESTRICT src =
                        src_row + static_cast<std::size_t>(r) *
                                      static_cast<std::size_t>(ow);
                    for (int c = 0; c < ow; ++c)
                        dst[static_cast<std::size_t>(c * stride)] +=
                            src[c];
                }
                src_row += n;
            }
        }
    }
}

} // namespace fa3c::nn::kernels
