#include "nn/kernels/quant.hh"

#include <algorithm>
#include <cmath>

#include "nn/kernels/dispatch.hh"

namespace fa3c::nn::kernels {

float
rowMaxAbs(const float *x, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float a = std::fabs(x[i]);
        if (a > m)
            m = a;
    }
    return m;
}

void
quantizeRow(int n, const float *x, float inv, std::int8_t *q)
{
    ops().quantizeRow(n, x, inv, q);
}

void
quantizeRowU(int n, const float *x, float inv, std::int8_t *q)
{
    ops().quantizeRowU(n, x, inv, q);
}

std::size_t
qgemmPanelBytes(int n, int k)
{
    const std::size_t strips =
        (static_cast<std::size_t>(n) + kQuantPanelWidth - 1) /
        kQuantPanelWidth;
    const std::size_t k4 =
        (static_cast<std::size_t>(k) + kQuantPanelDepth - 1) /
        kQuantPanelDepth;
    return strips * k4 * kQuantPanelDepth * kQuantPanelWidth;
}

void
qgemmPackPanels(int n, int k, const float *b, int ldb,
                const float *colInv, std::int8_t *panels)
{
    const int k4 = (k + kQuantPanelDepth - 1) / kQuantPanelDepth;
    const std::size_t panelBytes = static_cast<std::size_t>(k4) *
                                   kQuantPanelDepth * kQuantPanelWidth;
    // Packing is a cold path (once per parameter publish), so the
    // scalar rne+clamp here is fine; it matches quantizeRow exactly.
    const auto q8 = [](float v, float inv1) {
        long r = lrintf(v * inv1);
        if (r > 127)
            r = 127;
        else if (r < -127)
            r = -127;
        return static_cast<std::int8_t>(r);
    };
    for (int j0 = 0; j0 < n; j0 += kQuantPanelWidth) {
        const int w = std::min(kQuantPanelWidth, n - j0);
        std::int8_t *panel =
            panels +
            static_cast<std::size_t>(j0 / kQuantPanelWidth) * panelBytes;
        for (int q = 0; q < k4; ++q) {
            std::int8_t *dst = panel + static_cast<std::size_t>(q) *
                                           kQuantPanelDepth *
                                           kQuantPanelWidth;
            for (int j = 0; j < kQuantPanelWidth; ++j) {
                for (int t = 0; t < kQuantPanelDepth; ++t) {
                    const int p = kQuantPanelDepth * q + t;
                    dst[kQuantPanelDepth * j + t] =
                        (j < w && p < k)
                            ? q8(b[static_cast<std::size_t>(p) *
                                       static_cast<std::size_t>(ldb) +
                                   static_cast<std::size_t>(j0 + j)],
                                 colInv[j0 + j])
                            : std::int8_t{0};
                }
            }
        }
    }
}

void
qgemmAccPanels(int m, int n, int k, const std::int8_t *a, int lda,
               const std::int8_t *panels, std::int32_t *c, int ldc)
{
    ops().qgemmAccPanels(m, n, k, a, lda, panels, c, ldc);
}

std::int32_t
qdot(int k, const std::int8_t *a, const std::int8_t *b)
{
    return ops().qdot(k, a, b);
}

} // namespace fa3c::nn::kernels
