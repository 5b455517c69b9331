/**
 * @file
 * Minimal fork-join worker pool for the batched-forward GEMMs.
 *
 * Work is split by the caller into deterministic index ranges (column
 * strips or row blocks), so every output element is computed by
 * exactly one task in exactly the same order regardless of the thread
 * count — parallelism never changes results, only wall clock.
 *
 * The pool is a lazily-created process singleton sized by
 * FA3C_KERNEL_THREADS (default: half the hardware threads, capped at
 * 4; 1 disables it; a value above the hardware thread count is
 * clamped to that count with a warning). Only one parallelFor runs on
 * the pool at a time: concurrent callers (e.g. several serve workers)
 * fail the try_lock and simply run their loop inline, which is the
 * right call anyway — they are already each other's parallelism.
 */

#ifndef FA3C_NN_KERNELS_THREADPOOL_HH
#define FA3C_NN_KERNELS_THREADPOOL_HH

#include <functional>

namespace fa3c::nn::kernels {

/** Resolved pool width (>= 1), read once from FA3C_KERNEL_THREADS. */
int kernelThreads();

/**
 * Run fn(task) for every task in [0, tasks), distributed over the
 * pool; returns when all tasks finished. Tasks must be independent.
 * Runs inline when the pool is width 1, busy, or tasks <= 1.
 */
void parallelFor(int tasks, const std::function<void(int)> &fn);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_THREADPOOL_HH
