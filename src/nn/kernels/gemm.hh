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
 * gemmPackPanels/gemmAccPanels additionally support a pre-packed B
 * layout (column panels of NR contiguous floats per k step) so that a
 * B matrix that is reused across many calls — FC weights — is staged
 * once and then streamed sequentially instead of being gathered with
 * a large row stride (a 4 KiB-stride walk costs a TLB miss per k step
 * on wide layers); over panels the register tile runs at every M,
 * M = 1 included. gemmPackPanelsT builds the same panels straight
 * from B's transpose, for an FC layer the canonical W[O][I] block, so
 * no transposed copy is stored.
 */

#ifndef FA3C_NN_KERNELS_GEMM_HH
#define FA3C_NN_KERNELS_GEMM_HH

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define FA3C_RESTRICT __restrict__
#else
#define FA3C_RESTRICT
#endif

namespace fa3c::nn::kernels {

/** Column-panel width of the packed-B layout (floats). */
constexpr int kGemmPanelWidth = 32;

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

/** Floats needed by gemmPackPanels for a k x n B matrix. */
std::size_t gemmPanelSize(int n, int k);

/**
 * Pack row-major B[k x n] (row stride @p ldb) into column panels:
 * panel p holds columns [p*W, p*W + W) as [k][W] contiguous floats
 * with W = kGemmPanelWidth; the last panel is zero-padded. Packing is
 * pure data movement, so gemmAccPanels results are bit-identical to
 * gemmAcc on the unpacked B.
 */
void gemmPackPanels(int n, int k, const float *b, int ldb,
                    float *panels);

/**
 * gemmPackPanels of B[k x n] = bt^T, read from row-major bt[n x k]
 * (row stride @p ldbt) in one pass: column j of B is row j of bt.
 * For an FC layer bt is the canonical weight block W[O][I] (n = O,
 * k = I). Pure data movement; the output is bit-identical to
 * transpose() followed by gemmPackPanels, zero padding included.
 */
void gemmPackPanelsT(int n, int k, const float *bt, int ldbt,
                     float *panels);

/**
 * C[m x n] += A[m x k] * B, with B pre-packed by gemmPackPanels.
 * Same accumulation order (increasing k per C element) as gemmAcc.
 */
void gemmAccPanels(int m, int n, int k, const float *a, int lda,
                   const float *panels, float *c, int ldc);

/** dst[cols x rows] = src[rows x cols]^T, both row-major dense. */
void transpose(const float *src, int rows, int cols, float *dst);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_GEMM_HH
