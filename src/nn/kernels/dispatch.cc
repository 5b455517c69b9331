#include "nn/kernels/dispatch.hh"

#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace fa3c::nn::kernels {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool
cpuHasAvx2Set()
{
    return __builtin_cpu_supports("avx2");
}

bool
cpuHasAvx512Set()
{
    // The full feature set the AVX-512 TU is compiled for. VNNI is
    // part of it (the int8 GEMM emits vpdpbusd), so first-generation
    // AVX-512 parts without VNNI take the AVX2 table instead.
    return cpuHasAvx2Set() && __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512vnni");
}
#endif

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kCpuidChecked = true;
#else
constexpr bool kCpuidChecked = false;
bool
cpuHasAvx2Set()
{
    return false;
}
bool
cpuHasAvx512Set()
{
    return false;
}
#endif

const KernelOps *
resolve()
{
    const KernelOps *generic = genericOps();
    const KernelOps *avx2 = avx2Ops();
    const KernelOps *avx512 = avx512Ops();
    if (const char *env = std::getenv("FA3C_KERNELS_ISA")) {
        // The override narrows CPUID selection (forcing a lower tier
        // for parity tests); it never widens it. Honoring a request
        // for a tier the CPU lacks would trade the "runtime dispatch
        // never faults" guarantee for a SIGILL at the first kernel
        // call, so unsupported requests degrade with a warning.
        if (std::strcmp(env, "generic") == 0)
            return generic;
        if (std::strcmp(env, "avx2") == 0) {
            if (avx2 == nullptr) {
                FA3C_WARN("FA3C_KERNELS_ISA=avx2 but this build has "
                          "no AVX2 kernel TU; using generic");
                return generic;
            }
            if (!cpuHasAvx2Set()) {
                FA3C_WARN("FA3C_KERNELS_ISA=avx2 but this CPU lacks "
                          "AVX2; using generic");
                return generic;
            }
            return avx2;
        }
        if (std::strcmp(env, "avx512") == 0) {
            if (avx512 == nullptr) {
                FA3C_WARN("FA3C_KERNELS_ISA=avx512 but this build "
                          "has no AVX-512 kernel TU; using CPUID "
                          "selection");
            } else if (!cpuHasAvx512Set()) {
                FA3C_WARN("FA3C_KERNELS_ISA=avx512 but this CPU "
                          "lacks the AVX-512F/BW/DQ/VL/VNNI set; "
                          "using CPUID selection");
            } else {
                return avx512;
            }
        } else {
            FA3C_WARN("unknown FA3C_KERNELS_ISA '", env,
                      "'; falling back to CPUID selection");
        }
    }
    if (kCpuidChecked) {
        if (avx512 != nullptr && cpuHasAvx512Set())
            return avx512;
        if (avx2 != nullptr && cpuHasAvx2Set())
            return avx2;
    }
    return generic;
}

} // namespace

const KernelOps &
ops()
{
    static const KernelOps *table = resolve();
    return *table;
}

const char *
isaName()
{
    return ops().name;
}

} // namespace fa3c::nn::kernels
