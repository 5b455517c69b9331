/**
 * @file
 * Register-blocked single-precision GEMM microkernels for the fast
 * CPU kernel library.
 *
 * Two inner-kernel forms are used, picked by shape:
 *
 *  - an "axpy" form whose inner loop walks one row of C and one row
 *    of B contiguously (no reduction across lanes), used for short M
 *    (including the M = 1 GEMV of FC backward): there the C rows fit
 *    in registers-worth of L1 and the kernel is bound by streaming B,
 *    which the contiguous walk does at full prefetch speed;
 *  - a tiled form that carries an MR x NR tile of C entirely in
 *    vector registers across the whole k loop, used when M >= 4: C is
 *    loaded and stored once instead of being re-streamed every k
 *    step, which is what makes batched inference GEMMs profitable.
 *
 * Accumulation into each C element always runs in increasing-k order
 * regardless of blocking, and products are kept as separate mul+add
 * (the kernel TUs are built with -ffp-contract=off), so results are
 * bit-identical across M and across both forms: single-sample and
 * batched calls see the same per-element FP order and rounding.
 *
 * gemmAccAT and gemmAccBT take one operand as its transpose, so a
 * weight matrix is always read in its one canonical layout. gemmAccAT
 * reads A from at[k][m] (conv backward's w^T from the canonical
 * w[O][I*K*K]); the tiles broadcast one A scalar per (row, k), so it
 * is only a strided read. gemmAccBT reads B from bt[n][k] (an FC
 * layer's canonical W[O][I]) through a transposing load, the software
 * form of FA3C's TLU: it loads square blocks of bt rows and
 * transposes them in registers (16 x 16 on AVX-512, 8 x 8 on AVX2).
 * Up to the tallest register tile's rows, one tile holds every C row
 * of a strip for the whole k loop and takes the transposed registers
 * directly; more rows share each transposed 16 x 32 block through
 * L1. No transposed or packed copy of the weights is stored, and the
 * per-element order is the same, so all three forms give
 * bit-identical results on the same operands.
 */

#ifndef FA3C_NN_KERNELS_GEMM_HH
#define FA3C_NN_KERNELS_GEMM_HH

#if defined(__GNUC__) || defined(__clang__)
#define FA3C_RESTRICT __restrict__
#else
#define FA3C_RESTRICT
#endif

namespace fa3c::nn::kernels {

/** Column-strip width of the register tiles (floats). */
constexpr int kGemmStripWidth = 32;

/**
 * C[m x n] += A[m x k] * B[k x n], all row-major.
 *
 * @param lda  Row stride of A (>= k).
 * @param ldb  Row stride of B (>= n).
 * @param ldc  Row stride of C (>= n).
 *
 * The caller pre-fills C (zero, or a broadcast bias) — the kernel
 * only ever accumulates.
 */
void gemmAcc(int m, int n, int k, const float *a, int lda,
             const float *b, int ldb, float *c, int ldc);

/**
 * C[m x n] += at^T * B[k x n], with A given as its row-major
 * transpose at[k x m] (row stride @p ldat >= m). Bit-identical to
 * gemmAcc on transpose(at).
 */
void gemmAccAT(int m, int n, int k, const float *at, int ldat,
               const float *b, int ldb, float *c, int ldc);

/**
 * C[m x n] += A[m x k] * bt^T, with B given as its row-major
 * transpose bt[n x k] (row stride @p ldbt >= k); for an FC layer bt
 * is the canonical W[O][I]. Bit-identical to gemmAcc on
 * transpose(bt), at every m.
 */
void gemmAccBT(int m, int n, int k, const float *a, int lda,
               const float *bt, int ldbt, float *c, int ldc);

/** dst[cols x rows] = src[rows x cols]^T, both row-major dense. */
void transpose(const float *src, int rows, int cols, float *dst);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_GEMM_HH
