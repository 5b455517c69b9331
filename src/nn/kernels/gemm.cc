#include "nn/kernels/gemm.hh"

#include "nn/kernels/dispatch.hh"

namespace fa3c::nn::kernels {

// The ISA-specialized GEMM bodies (axpy, register-tile and
// transposing-load forms) live in kernel_impl.inl, compiled once per
// dispatch target; this TU only keeps the dispatching wrappers and
// transpose().

void
gemmAcc(int m, int n, int k, const float *a, int lda, const float *b,
        int ldb, float *c, int ldc)
{
    ops().gemmAcc(m, n, k, a, lda, b, ldb, c, ldc);
}

void
gemmAccAT(int m, int n, int k, const float *at, int ldat, const float *b,
          int ldb, float *c, int ldc)
{
    ops().gemmAccAT(m, n, k, at, ldat, b, ldb, c, ldc);
}

void
gemmAccBT(int m, int n, int k, const float *a, int lda, const float *bt,
          int ldbt, float *c, int ldc)
{
    ops().gemmAccBT(m, n, k, a, lda, bt, ldbt, c, ldc);
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
