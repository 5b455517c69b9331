#include "nn/kernels/gemm.hh"

#include <algorithm>

#include "nn/kernels/dispatch.hh"

namespace fa3c::nn::kernels {

// The ISA-specialized GEMM bodies (axpy and register-tile forms) live
// in kernel_impl.inl, compiled once per dispatch target; this TU only
// keeps the pure-data-movement helpers and the dispatching wrappers.

void
gemmAcc(int m, int n, int k, const float *a, int lda, const float *b,
        int ldb, float *c, int ldc)
{
    ops().gemmAcc(m, n, k, a, lda, b, ldb, c, ldc);
}

std::size_t
gemmPanelSize(int n, int k)
{
    const std::size_t strips =
        (static_cast<std::size_t>(n) + kGemmPanelWidth - 1) /
        kGemmPanelWidth;
    return strips * static_cast<std::size_t>(k) * kGemmPanelWidth;
}

namespace {

/**
 * The pack behind both public layouts: B[p][j] = b[p*sp + j*sj],
 * written strip after strip in one sequential pass. From B's
 * transpose (sp = 1) each source row is read along k as its own
 * prefetcher stream, so the pack runs near memcpy speed.
 */
void
packPanels(int n, int k, const float *b, std::size_t sp, std::size_t sj,
           float *panels)
{
    float *dst = panels;
    for (int j0 = 0; j0 < n; j0 += kGemmPanelWidth) {
        const int w = std::min(kGemmPanelWidth, n - j0);
        const float *strip = b + static_cast<std::size_t>(j0) * sj;
        for (int p = 0; p < k; ++p, dst += kGemmPanelWidth) {
            const float *src = strip + static_cast<std::size_t>(p) * sp;
            for (int j = 0; j < w; ++j)
                dst[j] = src[static_cast<std::size_t>(j) * sj];
            for (int j = w; j < kGemmPanelWidth; ++j)
                dst[j] = 0.0f;
        }
    }
}

} // namespace

void
gemmPackPanels(int n, int k, const float *b, int ldb, float *panels)
{
    packPanels(n, k, b, static_cast<std::size_t>(ldb), 1, panels);
}

void
gemmPackPanelsT(int n, int k, const float *bt, int ldbt, float *panels)
{
    packPanels(n, k, bt, 1, static_cast<std::size_t>(ldbt), panels);
}

void
gemmAccPanels(int m, int n, int k, const float *a, int lda,
              const float *panels, float *c, int ldc)
{
    ops().gemmAccPanels(m, n, k, a, lda, panels, c, ldc);
}

void
transpose(const float *src, int rows, int cols, float *dst)
{
    // Block 16x16 so both the read and write streams stay in cache.
    constexpr int kBlock = 16;
    for (int i0 = 0; i0 < rows; i0 += kBlock) {
        const int i1 = i0 + kBlock < rows ? i0 + kBlock : rows;
        for (int j0 = 0; j0 < cols; j0 += kBlock) {
            const int j1 = j0 + kBlock < cols ? j0 + kBlock : cols;
            for (int i = i0; i < i1; ++i)
                for (int j = j0; j < j1; ++j)
                    dst[static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(rows) +
                        static_cast<std::size_t>(i)] =
                        src[static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(cols) +
                            static_cast<std::size_t>(j)];
        }
    }
}

} // namespace fa3c::nn::kernels
