// AVX2 instantiation of the ISA-specialized kernel bodies (see
// kernel_impl.inl). The build compiles this TU with -mavx2 when the
// compiler supports it; dispatch.cc only selects the
// resulting table after checking CPUID, so the binary as a whole
// stays runnable on pre-AVX2 hosts. If the flags are unavailable the
// TU degrades to a portable duplicate and avx2Ops() reports null.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/quant.hh"

#if defined(__AVX2__)
#define FA3C_ISA_AVX2 1
#else
#define FA3C_ISA_AVX2 0
#endif
#define FA3C_ISA_AVX512 0

#define FA3C_ISA_NS isa_avx2
#define FA3C_ISA_NAME "avx2"
#include "nn/kernels/kernel_impl.inl"

namespace fa3c::nn::kernels {

const KernelOps *
avx2Ops()
{
#if FA3C_ISA_AVX2
    return &isa_avx2::kOps;
#else
    return nullptr;
#endif
}

} // namespace fa3c::nn::kernels
