/**
 * @file
 * Runtime ISA dispatch for the fast CPU kernels.
 *
 * The kernel bodies in kernel_impl.inl are compiled three times:
 * with the portable baseline flags (kernels_generic.cc), with -mavx2
 * (kernels_avx2.cc), and with the AVX-512 F/BW/DQ/VL/VNNI set
 * (kernels_avx512.cc). ops() picks the widest table the running CPU
 * supports, checked once via CPUID, so a single binary runs
 * everywhere — replacing the old -march=native build flag that could
 * SIGILL release binaries on older hosts.
 *
 * Determinism contract: for every table entry all implementations
 * produce bit-identical results. The fp32 kernels share one
 * accumulation order (increasing k per C element, mul+add kept
 * separate by -ffp-contract=off); tiles that widen with the ISA keep
 * one C element per lane for the whole k loop, and kernels whose
 * result depends on the lane count (the fcDotRows lane sum) keep a
 * fixed 8-lane structure on every tier. The int8 kernels are exact
 * integer arithmetic. Switching ISA — or overriding it with
 * FA3C_KERNELS_ISA=generic|avx2|avx512 — never changes results, only
 * speed.
 */

#ifndef FA3C_NN_KERNELS_DISPATCH_HH
#define FA3C_NN_KERNELS_DISPATCH_HH

#include <cstdint>

namespace fa3c::nn::kernels {

/**
 * Function-pointer table of the ISA-specialized kernel bodies. All
 * semantics (layouts, accumulation order) are documented on the
 * public wrappers in gemm.hh / fc.hh / quant.hh.
 */
struct KernelOps {
    const char *name; ///< "generic" / "avx2" / "avx512", for logs
                      ///< and tests.

    /** C[m x n] += A[m x k] * B[k x n], row-major (see gemm.hh). */
    void (*gemmAcc)(int m, int n, int k, const float *a, int lda,
                    const float *b, int ldb, float *c, int ldc);
    /** C += at^T * B for a row-major at[k x m] (see gemm.hh). */
    void (*gemmAccAT)(int m, int n, int k, const float *at, int ldat,
                      const float *b, int ldb, float *c, int ldc);
    /**
     * C += A * bt^T for a row-major bt[n x k], read through the
     * transposing load (see gemm.hh).
     */
    void (*gemmAccBT)(int m, int n, int k, const float *a, int lda,
                      const float *bt, int ldbt, float *c, int ldc);
    /**
     * Small-N FC forward: y[s][o] = bias[o] + dot(x row s, w row o)
     * over the canonical w[O][I] rows, which reads exactly the live
     * weights of a tiny output layer (fc4).
     */
    void (*fcDotRows)(int batch, int outF, int inF, const float *x,
                      int ldx, const float *w, int ldw,
                      const float *bias, float *y, int ldy);
    /**
     * Int8 GEMM: C[m x n] += A[m x k] * B, int32 accumulate, with B
     * packed by qgemmPackPanels (quad-interleaved 16-column strips,
     * see quant.hh). A rows are unsigned activation bytes in
     * [0, 127] (quantizeRowU), zero-padded to qrowStride(k).
     */
    void (*qgemmAccPanels)(int m, int n, int k, const std::int8_t *a,
                           int lda, const std::int8_t *panels,
                           std::int32_t *c, int ldc);
    /** Plain int8 dot product with int32 accumulate (small-N path). */
    std::int32_t (*qdot)(int k, const std::int8_t *a,
                         const std::int8_t *b);
    /**
     * q[i] = clamp(rne(x[i] * inv), -127, 127). Round-to-nearest-even
     * under the default FP environment on every implementation.
     */
    void (*quantizeRow)(int n, const float *x, float inv,
                        std::int8_t *q);
    /**
     * q[i] = clamp(rne(x[i] * inv), 0, 127): the activation
     * (unsigned) variant of quantizeRow, same rounding.
     */
    void (*quantizeRowU)(int n, const float *x, float inv,
                         std::int8_t *q);
};

/** The table for this process, resolved once on first use. */
const KernelOps &ops();

/** Name of the resolved table ("generic" / "avx2" / "avx512"). */
const char *isaName();

// Per-TU table accessors (dispatch.cc internals, exposed for tests).
const KernelOps *genericOps();
/** Null when the toolchain could not build the AVX2 TU. */
const KernelOps *avx2Ops();
/** Null when the toolchain could not build the AVX-512 TU. */
const KernelOps *avx512Ops();

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_DISPATCH_HH
