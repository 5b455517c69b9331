// AVX-512 instantiation of the ISA-specialized kernel bodies (see
// kernel_impl.inl). The build compiles this TU with
// -mavx512{f,bw,dq,vl,vnni} on top of the AVX2 flags when the
// compiler supports them; dispatch.cc only selects the resulting
// table after CPUID confirms the same feature set (VNNI included, so
// e.g. Skylake-X falls back to the AVX2 table rather than faulting
// on vpdpbusd). If the flags are unavailable the TU degrades to a
// portable duplicate and avx512Ops() reports null.
//
// What the extra ISA buys over the AVX2 table: 16-lane (zmm)
// register tiles for the fp32 GEMMs with MR=8 rows out of
// the doubled register file, and single-instruction u8 x s8 quad
// macs (vpdpbusd) in the int8 GEMM. All of it is bit-identical to
// the other tables — the tiles keep one C element per lane and the
// integer path is exact.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/quant.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                  \
    defined(__AVX512DQ__) && defined(__AVX512VL__) &&                 \
    defined(__AVX512VNNI__) && defined(__AVX2__)
#define FA3C_ISA_AVX2 1
#define FA3C_ISA_AVX512 1
#else
#define FA3C_ISA_AVX2 0
#define FA3C_ISA_AVX512 0
#endif

#define FA3C_ISA_NS isa_avx512
#define FA3C_ISA_NAME "avx512"
#include "nn/kernels/kernel_impl.inl"

namespace fa3c::nn::kernels {

const KernelOps *
avx512Ops()
{
#if FA3C_ISA_AVX512
    return &isa_avx512::kOps;
#else
    return nullptr;
#endif
}

} // namespace fa3c::nn::kernels
