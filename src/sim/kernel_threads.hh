/**
 * @file
 * The one reader of FA3C_KERNEL_THREADS. The kernel fork-join pool
 * sizes itself from it and the benchmark host fingerprint records
 * it, so both see the same clamped width.
 */

#ifndef FA3C_SIM_KERNEL_THREADS_HH
#define FA3C_SIM_KERNEL_THREADS_HH

namespace fa3c::sim {

/**
 * The kernel thread width FA3C_KERNEL_THREADS asks for, clamped to
 * the hardware thread count (with one warning); 0 when the variable
 * is unset or not a positive number. Read once per process.
 */
int kernelThreadsFromEnv();

} // namespace fa3c::sim

#endif // FA3C_SIM_KERNEL_THREADS_HH
