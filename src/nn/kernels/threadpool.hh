/**
 * @file
 * Minimal fork-join worker pool for the CPU backends' independent
 * work: the column strips of a batched FC GEMM, the per-sample conv
 * trunks of a batched forward, and fc3's gradient beside the rest of
 * the backward chain.
 *
 * Work is split by the caller into deterministic index ranges (column
 * strips or sample ranges) or disjoint tasks, so every output element
 * is computed by exactly one task in exactly the same order regardless
 * of the thread count — parallelism never changes results, only wall
 * clock.
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

/**
 * Pool tasks for independent work of @p macs multiply-adds that
 * divides into at most @p parts: the pool width, capped at @p parts
 * and at one task per 2^19 multiply-adds, below which the fork-join
 * handoff costs more than a second core saves (bench_nn_kernels'
 * split rows, EXPERIMENTS.md); 1 when the pool is width 1.
 */
int splitTasks(long long macs, int parts);

/**
 * The batched FC layers' one strip-split gate, shared by the fp32
 * and int8 GEMMs: splitTasks over the column strips for a call of
 * two or more rows; a one-row call stays whole.
 */
int stripTasks(int batch, int strips, long long macs);

} // namespace fa3c::nn::kernels

#endif // FA3C_NN_KERNELS_THREADPOOL_HH
