/**
 * @file
 * Host identification for benchmark provenance. Every BENCH_*.json
 * and bench-history row carries this so bench_trend can refuse to
 * compare runs from unlike hosts: a 4-core CI runner and a 1-vCPU
 * dev box produce wildly different absolute numbers (and different
 * *relative* numbers once thread counts matter), and a rolling
 * baseline that mixes them gates on noise.
 */

#ifndef FA3C_OBS_HOST_INFO_HH
#define FA3C_OBS_HOST_INFO_HH

#include <string>

namespace fa3c::obs {

/** What makes two benchmark hosts comparable. */
struct HostInfo
{
    /** CPU model string from /proc/cpuinfo ("unknown" elsewhere). */
    std::string cpuModel;
    int logicalCores = 0;
    /** The kernel pool width FA3C_KERNEL_THREADS sets, clamped as the
     * pool clamps it (0 = unset: the pool's default width). */
    int kernelThreads = 0;
    /**
     * Stable one-line identity: "<cpu model>/<cores>c[/<threads>t]".
     * Two runs with equal fingerprints are baseline-comparable.
     */
    std::string fingerprint;
};

/** The current host, probed once per process. */
const HostInfo &hostInfo();

} // namespace fa3c::obs

#endif // FA3C_OBS_HOST_INFO_HH
