/**
 * @file
 * Golden-vs-fast kernel comparison: times every layer of the A3C
 * network (Table 1 geometry) through the golden loops in nn/layers.cc
 * and the blocked im2col/GEMM kernels in nn/kernels/, for all three
 * computation types (FW, BW, GC), then the end-to-end forward and
 * backward passes through ReferenceBackend vs FastCpuBackend, and the
 * batched multi-agent forward path.
 *
 * The per-layer fast rows time the kernel FastCpuBackend actually
 * runs for that layer: FC forward is the M = 1 GEMM reading the
 * canonical W[O][I] through the transposing load, or the
 * canonical-row dot kernel for heads narrower than kSmallFcMaxOut
 * (fc4). Two training-routine passes outside the DNN are timed as
 * well: sync_stage_ms (FastCpuBackend's onParamSync on the Table 1
 * net, run once per routine; FastCpu stages nothing, so it times the
 * no-op base call, and a staging pass that comes back shows here)
 * and rmsprop_apply_ms (nn::rmspropApply over the Table 1 Pong net's
 * 677,943 words).
 *
 * The conv layers also get one row per patch transform (im2col for
 * FW and BW, im2row for GC) with its time and its memory rate: the
 * patch matrix written plus the input read once, over the time.
 * conv_fw_transform_share is im2col's share of conv FW, both layers
 * summed, so FW cost drifting back into data movement shows.
 *
 * The kernel pool's splits are timed split and inline, interleaved.
 * fc3's column-strip split (Table 1 and wide serving geometry, fp32
 * and int8, B = 1, 2, 3, 4 and 16) runs its strip tasks through
 * kernels::parallelFor and then one after another on the caller; each
 * of these rows also names the task count the backends' gate
 * (kernels::splitTasks) picks there, and they are the sweep behind
 * the gate's multiply-add floor. FastCpuBackend's forwardBatch at
 * B = 2 and 16 (conv trunks split by sample) and its backward (fc3's
 * gradient beside the rest of the chain), on the Table 1 and the tiny
 * net, are timed through the entry points, as they run and with the
 * pool held by another caller so they run inline. No row carries a
 * CI gate.
 *
 * The cost of the backends' per-kernel timing (rl::KernelTimer, the
 * nn.kernel.* histograms) is measured too: timer_overhead_pct is the
 * calibrated cost of one sample times the samples one forward
 * records, as a share of the fast forward.
 *
 * Writes $FA3C_JSON_DIR/BENCH_nn_kernels.json with one row per
 * (layer, op) pair plus header fields fw_speedup_e2e /
 * bw_speedup_e2e / batch16_fw_speedup / small_layer_speedup /
 * int8_speedup / sync_stage_ms / rmsprop_apply_ms /
 * conv_fw_transform_share / timer_overhead_pct; CI gates on
 * fw_speedup_e2e >= 2, small_layer_speedup >= 1 (the narrow-FC dot
 * path must beat the transposing-load GEMM on the same head),
 * int8_speedup >= 1.5 (quantized batched forward on the wide serving
 * net vs fp32 FastCpuBackend), timer_overhead_pct < 1 and
 * sync_stage_ms < 0.05, and trends rmsprop_apply_ms and the
 * transform share.
 *
 * Knobs: FA3C_NN_KERNELS_REPS (per-layer timing iterations, default
 * 30) and FA3C_NN_KERNELS_E2E_REPS (end-to-end iterations, default
 * 60) shrink the run for smoke tests.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "nn/a3c_network.hh"
#include "nn/kernels/conv.hh"
#include "nn/kernels/fc.hh"
#include "nn/kernels/im2col.hh"
#include "nn/layers.hh"
#include "nn/kernels/dispatch.hh"
#include "nn/kernels/gemm.hh"
#include "nn/kernels/quant.hh"
#include "nn/kernels/threadpool.hh"
#include "nn/quant_params.hh"
#include "nn/rmsprop.hh"
#include "obs/metrics.hh"
#include "rl/backend.hh"
#include "rl/fast_cpu_backend.hh"
#include "rl/kernel_timer.hh"
#include "rl/quant_backend.hh"
#include "sim/rng.hh"
#include "sim/table.hh"
#include "tensor/tensor.hh"

using namespace fa3c;

namespace {

void
randomize(std::span<float> s, sim::Rng &rng)
{
    for (float &v : s)
        v = -1.0f + 2.0f * rng.uniformF();
}

constexpr std::uint64_t kTimeBatches = 5;

/** Per-iteration mean (ms) of one timed batch of @p iters calls. */
template <typename F>
double
timeBatchMs(F &&fn, std::uint64_t iters)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < iters; ++r)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           static_cast<double>(iters);
}

/**
 * Milliseconds per iteration: one warm-up call, then the best
 * (lowest) per-iteration mean over five equal batches of the reps.
 * The minimum is the estimator least sensitive to scheduler
 * interference on shared hosts — stalls only ever add time, so the
 * fastest batch is the closest observation of the true cost.
 */
template <typename F>
double
timeMs(F &&fn, std::uint64_t reps)
{
    fn();
    const std::uint64_t per =
        std::max<std::uint64_t>(1, reps / kTimeBatches);
    double best_ms = std::numeric_limits<double>::infinity();
    for (std::uint64_t batch = 0; batch < kTimeBatches; ++batch)
        best_ms = std::min(best_ms, timeBatchMs(fn, per));
    return best_ms;
}

/**
 * Best-batch timing of several alternatives with their batches
 * interleaved (A B C A B C ... instead of AAA BBB CCC). Every
 * speedup ratio the caller forms divides numbers observed under the
 * same transient machine conditions — background load or a frequency
 * step hits all alternatives alike instead of whichever phase it
 * landed on, which is what keeps the gated ratios stable on shared
 * hosts.
 */
std::vector<double>
timeManyMs(std::uint64_t reps,
           const std::vector<std::function<void()>> &fns)
{
    const std::uint64_t per =
        std::max<std::uint64_t>(1, reps / kTimeBatches);
    for (const auto &fn : fns)
        fn(); // warm-up
    std::vector<double> best(
        fns.size(), std::numeric_limits<double>::infinity());
    for (std::uint64_t batch = 0; batch < kTimeBatches; ++batch)
        for (std::size_t i = 0; i < fns.size(); ++i)
            best[i] = std::min(best[i], timeBatchMs(fns[i], per));
    return best;
}

double
gflops(std::size_t macs, double ms)
{
    return 2.0 * static_cast<double>(macs) / (ms * 1e-3) / 1e9;
}

/** An empty function whose only cost is one kernel timer. */
__attribute__((noinline)) void
timerCalibrationSite()
{
    rl::KernelTimer t("bench_calib");
    asm volatile("");
}

/**
 * Nanoseconds per call of the timer-only function with metrics
 * @p enabled. The timer dominates the loop body, so unlike an
 * end-to-end diff this resolves the per-sample cost directly.
 * Minimum of several rounds to shed scheduler noise.
 */
double
timerCalibrate(bool enabled)
{
    obs::metrics().setEnabled(enabled);
    constexpr int kCalls = 200000;
    double best = 1e30;
    for (int round = 0; round < 5; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kCalls; ++i)
            timerCalibrationSite();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::nano>(t1 - t0)
                          .count() /
                      kCalls);
    }
    return best;
}

/** Samples recorded so far across every nn.kernel.* histogram. */
std::uint64_t
kernelTimerSamples()
{
    std::uint64_t n = 0;
    obs::metrics().forEachGroup(
        [&](const std::string &name, const sim::StatGroup &group) {
            if (name == "nn.kernel")
                for (const auto &[kernel, dist] : group.distributions())
                    n += dist.count();
        });
    return n;
}

struct OpResult
{
    const char *layer;
    const char *op;
    std::size_t macs;
    double goldenMs;
    double fastMs;
};

std::vector<OpResult>
benchConvLayer(const char *name, const nn::ConvSpec &spec,
               std::uint64_t reps, sim::Rng &rng)
{
    tensor::Tensor in(tensor::Shape(
        {spec.inChannels, spec.inHeight, spec.inWidth}));
    in.fillUniform(rng, -1.0f, 1.0f);
    std::vector<float> w(spec.weightCount()), b(spec.biasCount());
    randomize(w, rng);
    randomize(b, rng);

    tensor::Tensor out(tensor::Shape(
        {spec.outChannels, spec.outHeight(), spec.outWidth()}));
    tensor::Tensor g_out(out.shape());
    g_out.fillUniform(rng, -1.0f, 1.0f);
    tensor::Tensor g_in(in.shape());
    std::vector<float> gw(spec.weightCount()), gb(spec.biasCount());
    std::vector<float> scratch(nn::kernels::colSize(spec));

    std::vector<OpResult> results;
    results.push_back(
        {name, "fw", spec.fwMacs(),
         timeMs([&] { nn::convForward(spec, in, w, b, out); }, reps),
         timeMs(
             [&] {
                 nn::kernels::convForwardFast(spec, in.data().data(), w,
                                              b, out.data().data(),
                                              scratch);
             },
             reps)});
    results.push_back(
        {name, "bw", spec.fwMacs(),
         timeMs([&] { nn::convBackward(spec, g_out, w, g_in); }, reps),
         timeMs(
             [&] {
                 nn::kernels::convBackwardFast(spec,
                                               g_out.data().data(), w,
                                               g_in.data().data(),
                                               scratch);
             },
             reps)});
    // Both gradient paths accumulate, so the timed body zeroes first
    // (the same cost on each side).
    results.push_back(
        {name, "gc", spec.fwMacs(),
         timeMs(
             [&] {
                 std::fill(gw.begin(), gw.end(), 0.0f);
                 std::fill(gb.begin(), gb.end(), 0.0f);
                 nn::convGradient(spec, in, g_out, gw, gb);
             },
             reps),
         timeMs(
             [&] {
                 std::fill(gw.begin(), gw.end(), 0.0f);
                 std::fill(gb.begin(), gb.end(), 0.0f);
                 nn::kernels::convGradientFast(spec, in.data().data(),
                                               g_out.data().data(), gw,
                                               gb, scratch);
             },
             reps)});
    benchmark::DoNotOptimize(out.data().data());
    benchmark::DoNotOptimize(g_in.data().data());
    benchmark::DoNotOptimize(gw.data());
    return results;
}

struct TransformResult
{
    const char *layer;
    const char *op;
    double ms;
    double gbps;
};

/** Times im2col and im2row on one conv layer's geometry. */
std::vector<TransformResult>
benchPatchTransforms(const char *name, const nn::ConvSpec &spec,
                     std::uint64_t reps, sim::Rng &rng)
{
    std::vector<float> in(static_cast<std::size_t>(spec.inChannels) *
                          static_cast<std::size_t>(spec.inHeight) *
                          static_cast<std::size_t>(spec.inWidth));
    randomize(in, rng);
    std::vector<float> patches(nn::kernels::colSize(spec));
    const double bytes =
        static_cast<double>((patches.size() + in.size()) * sizeof(float));
    const auto gbps = [bytes](double ms) { return bytes / (ms * 1e6); };
    const double col_ms = timeMs(
        [&] {
            nn::kernels::im2col(spec, in.data(), patches.data());
            benchmark::ClobberMemory();
        },
        reps);
    const double row_ms = timeMs(
        [&] {
            nn::kernels::im2row(spec, in.data(), patches.data());
            benchmark::ClobberMemory();
        },
        reps);
    benchmark::DoNotOptimize(patches.data());
    return {{name, "im2col", col_ms, gbps(col_ms)},
            {name, "im2row", row_ms, gbps(row_ms)}};
}

std::vector<OpResult>
benchFcLayer(const char *name, const nn::FcSpec &spec,
             std::uint64_t reps, sim::Rng &rng)
{
    tensor::Tensor in(tensor::Shape({spec.inFeatures}));
    in.fillUniform(rng, -1.0f, 1.0f);
    std::vector<float> w(spec.weightCount()), b(spec.biasCount());
    randomize(w, rng);
    randomize(b, rng);
    const bool small = spec.outFeatures < nn::kernels::kSmallFcMaxOut;

    tensor::Tensor out(tensor::Shape({spec.outFeatures}));
    tensor::Tensor g_out(out.shape());
    g_out.fillUniform(rng, -1.0f, 1.0f);
    tensor::Tensor g_in(in.shape());
    std::vector<float> gw(spec.weightCount()), gb(spec.biasCount());

    std::vector<OpResult> results;
    results.push_back(
        {name, "fw", spec.fwMacs(),
         timeMs([&] { nn::fcForward(spec, in, w, b, out); }, reps),
         timeMs(
             [&] {
                 if (small)
                     nn::kernels::fcForwardSmallBatch(
                         spec, 1, in.data().data(), w, b,
                         out.data().data());
                 else
                     nn::kernels::fcForwardFastBatch(
                         spec, 1, in.data().data(), w, b,
                         out.data().data());
             },
             reps)});
    results.push_back(
        {name, "bw", spec.fwMacs(),
         timeMs([&] { nn::fcBackward(spec, g_out, w, g_in); }, reps),
         timeMs(
             [&] {
                 nn::kernels::fcBackwardFast(spec, g_out.data().data(),
                                             w, g_in.data().data());
             },
             reps)});
    results.push_back(
        {name, "gc", spec.fwMacs(),
         timeMs(
             [&] {
                 std::fill(gw.begin(), gw.end(), 0.0f);
                 std::fill(gb.begin(), gb.end(), 0.0f);
                 nn::fcGradient(spec, in, g_out, gw, gb);
             },
             reps),
         timeMs(
             [&] {
                 std::fill(gw.begin(), gw.end(), 0.0f);
                 std::fill(gb.begin(), gb.end(), 0.0f);
                 nn::kernels::fcGradientFast(spec, in.data().data(),
                                             g_out.data().data(), gw,
                                             gb);
             },
             reps)});
    benchmark::DoNotOptimize(out.data().data());
    benchmark::DoNotOptimize(g_in.data().data());
    benchmark::DoNotOptimize(gw.data());
    return results;
}

/** One pass timed split across the kernel pool and inline. */
struct SplitResult
{
    std::string layer;
    std::string op;
    int batch;
    long long macs; ///< the whole pass's multiply-adds
    /// Tasks the pass is timed split into, and the tasks the backends'
    /// gate picks for it; 0 on the entry-point rows, where the
    /// backend splits as it runs.
    int tasks;
    int gateTasks;
    double splitMs;
    double inlineMs;
};

/**
 * Times @p task over [0, tasks) through parallelFor and inline on the
 * caller, the two interleaved.
 */
SplitResult
timeSplit(std::string layer, std::string op, int batch, long long macs,
          int tasks, int gate_tasks, const std::function<void(int)> &task,
          std::uint64_t reps)
{
    const auto ms = timeManyMs(
        reps, {[&] { nn::kernels::parallelFor(tasks, task); },
               [&] {
                   for (int t = 0; t < tasks; ++t)
                       task(t);
               }});
    return {std::move(layer), std::move(op), batch, macs, tasks,
            gate_tasks, ms[0], ms[1]};
}

/**
 * fc3's column-strip split at batch 1, 2, 3, 4 and 16, fp32 (the
 * transposing-load GEMM over 32-column strips) and int8 (the qgemm
 * over 16-column panels, whose work the int8 backend counts a quarter
 * in the gate), as fcForwardFastBatch and the int8 backend split it.
 */
void
benchFcSplits(const char *name, const nn::A3cNetwork &net,
              const nn::ParamSet &params, std::uint64_t reps,
              sim::Rng &rng, std::vector<SplitResult> &out)
{
    const nn::FcSpec &spec = net.fc3();
    const int in_f = spec.inFeatures;
    const int out_f = spec.outFeatures;
    const std::span<const float> w = params.view("fc3.w");
    const nn::QuantizedModel q = nn::quantizeModel(net, params);
    const int qstride = nn::kernels::qrowStride(in_f);
    constexpr int kMaxBatch = 16;
    std::vector<float> x(static_cast<std::size_t>(kMaxBatch) *
                         static_cast<std::size_t>(in_f));
    randomize(x, rng);
    std::vector<std::int8_t> x8(static_cast<std::size_t>(kMaxBatch) *
                                    static_cast<std::size_t>(qstride),
                                0);
    for (int s = 0; s < kMaxBatch; ++s)
        nn::kernels::quantizeRowU(
            in_f, x.data() + static_cast<std::size_t>(s) * in_f, 100.0f,
            x8.data() + static_cast<std::size_t>(s) * qstride);
    std::vector<float> y(static_cast<std::size_t>(kMaxBatch) *
                         static_cast<std::size_t>(out_f));
    std::vector<std::int32_t> y32(y.size());
    const int width = nn::kernels::kernelThreads();
    for (const int batch : {1, 2, 3, 4, 16}) {
        const long long macs =
            static_cast<long long>(batch) * out_f * in_f;
        const int strips = (out_f + nn::kernels::kGemmStripWidth - 1) /
                           nn::kernels::kGemmStripWidth;
        const int tasks = std::min(width, strips);
        out.push_back(timeSplit(
            name, "fw", batch, macs, tasks,
            nn::kernels::stripTasks(batch, strips, macs),
            [&](int t) {
                const int j0 =
                    strips * t / tasks * nn::kernels::kGemmStripWidth;
                const int j1 = std::min(
                    strips * (t + 1) / tasks * nn::kernels::kGemmStripWidth,
                    out_f);
                nn::kernels::gemmAccBT(
                    batch, j1 - j0, in_f, x.data(), in_f,
                    w.data() + static_cast<std::size_t>(j0) * in_f, in_f,
                    y.data() + j0, out_f);
            },
            reps));
        const int qstrips = (out_f + nn::kernels::kQuantPanelWidth - 1) /
                            nn::kernels::kQuantPanelWidth;
        const int qtasks = std::min(width, qstrips);
        out.push_back(timeSplit(
            name, "fw_q8", batch, macs, qtasks,
            nn::kernels::stripTasks(batch, qstrips, macs / 4),
            [&](int t) {
                const int s0 = qstrips * t / qtasks;
                const int n0 = s0 * nn::kernels::kQuantPanelWidth;
                const int n1 = std::min(
                    qstrips * (t + 1) / qtasks *
                        nn::kernels::kQuantPanelWidth,
                    out_f);
                nn::kernels::qgemmAccPanels(
                    batch, n1 - n0, in_f, x8.data(), qstride,
                    q.fc3.panels.data() +
                        static_cast<std::size_t>(s0) *
                            nn::kernels::kQuantPanelWidth * qstride,
                    y32.data() + n0, out_f);
            },
            reps));
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(y32.data());
}

/**
 * Times @p fn, a backend entry point, as the backend runs it (split
 * across the kernel pool) and inline, batch for batch interleaved,
 * both on this thread. For the inline batches a helper thread holds
 * the pool, parked in the first task of an outer parallelFor, so
 * every parallelFor inside fn loses the pool's try-lock and runs its
 * tasks here, as a concurrent second caller's do. The backend picks
 * the task counts.
 */
SplitResult
timeEntrySplit(std::string layer, std::string op, int batch,
               long long macs, const std::function<void()> &fn,
               std::uint64_t reps)
{
    const std::uint64_t per =
        std::max<std::uint64_t>(1, reps / kTimeBatches);
    double split_ms = std::numeric_limits<double>::infinity();
    double inline_ms = split_ms;
    fn();
    for (std::uint64_t b = 0; b < kTimeBatches; ++b) {
        split_ms = std::min(split_ms, timeBatchMs(fn, per));
        std::atomic<bool> held{false};
        std::atomic<bool> released{false};
        std::thread holder([&] {
            nn::kernels::parallelFor(2, [&](int t) {
                if (t != 0)
                    return;
                held = true;
                held.notify_one();
                released.wait(false);
            });
        });
        held.wait(false);
        inline_ms = std::min(inline_ms, timeBatchMs(fn, per));
        released = true;
        released.notify_one();
        holder.join();
    }
    return {std::move(layer), std::move(op), batch, macs, 0, 0, split_ms,
            inline_ms};
}

/**
 * A FastCpuBackend's forwardBatch at B = 2 and 16 (conv trunks split
 * by sample, fc3 and fc4 by column strips) and one backward (fc3's
 * gradient beside the rest of the chain), through the entry points.
 */
void
benchEntrySplits(const char *name, const nn::A3cNetwork &net,
                 const nn::ParamSet &params, std::uint64_t reps,
                 sim::Rng &rng, std::vector<SplitResult> &out)
{
    rl::FastCpuBackend fast(net);
    const auto fw_macs = static_cast<long long>(
        net.conv1().fwMacs() + net.conv2().fwMacs() + net.fc3().fwMacs() +
        net.fc4().fwMacs());
    const nn::NetConfig &cfg = net.config();
    constexpr int kMaxBatch = 16;
    std::vector<tensor::Tensor> obs;
    std::vector<nn::A3cNetwork::Activations> acts;
    std::vector<const tensor::Tensor *> obs_ptrs;
    std::vector<nn::A3cNetwork::Activations *> act_ptrs;
    for (int i = 0; i < kMaxBatch; ++i) {
        obs.emplace_back(tensor::Shape(
            {cfg.inChannels, cfg.inHeight, cfg.inWidth}));
        obs.back().fillUniform(rng, 0.0f, 1.0f);
        acts.push_back(net.makeActivations());
    }
    for (int i = 0; i < kMaxBatch; ++i) {
        obs_ptrs.push_back(&obs[static_cast<std::size_t>(i)]);
        act_ptrs.push_back(&acts[static_cast<std::size_t>(i)]);
    }
    for (const int batch : {2, 16})
        out.push_back(timeEntrySplit(
            name, "fw_batch", batch, batch * fw_macs,
            [&] {
                fast.forwardBatch(
                    params,
                    std::span(obs_ptrs).first(
                        static_cast<std::size_t>(batch)),
                    std::span(act_ptrs).first(
                        static_cast<std::size_t>(batch)));
            },
            reps));

    // Every conv and FC layer's GC and BW, less conv1's BW.
    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    g_out.fillUniform(rng, -1.0f, 1.0f);
    nn::ParamSet grads = net.makeParams();
    out.push_back(timeEntrySplit(
        name, "bw", 1,
        2 * fw_macs - static_cast<long long>(net.conv1().fwMacs()),
        [&] { fast.backward(params, acts[0], g_out, grads); }, reps));
    benchmark::DoNotOptimize(grads.flat().data());
}

} // namespace

int
main(int, char **)
{
    bench::banner("nn kernels",
                  "Golden layer loops vs the blocked im2col/GEMM "
                  "kernel library (A3C network, Table 1 geometry)");

    const std::uint64_t reps =
        bench::envKnob("FA3C_NN_KERNELS_REPS", 30);
    const std::uint64_t e2e_reps =
        bench::envKnob("FA3C_NN_KERNELS_E2E_REPS", 60);

    const nn::NetConfig cfg = nn::NetConfig::atari(4);
    const nn::A3cNetwork net(cfg);
    sim::Rng rng(31);

    // --- Per-layer, per-op timings -------------------------------
    std::vector<OpResult> results;
    for (const auto &r : benchConvLayer("conv1", net.conv1(), reps, rng))
        results.push_back(r);
    for (const auto &r : benchConvLayer("conv2", net.conv2(), reps, rng))
        results.push_back(r);
    for (const auto &r : benchFcLayer("fc3", net.fc3(), reps, rng))
        results.push_back(r);
    for (const auto &r : benchFcLayer("fc4", net.fc4(), reps, rng))
        results.push_back(r);

    bench::JsonReport report("nn_kernels");
    sim::TextTable table({"Layer", "Op", "Golden ms", "Fast ms",
                          "Golden GFLOP/s", "Fast GFLOP/s", "Speedup"});
    for (const auto &r : results) {
        const double speedup = r.goldenMs / r.fastMs;
        table.addRow({r.layer, r.op, sim::TextTable::num(r.goldenMs, 3),
                      sim::TextTable::num(r.fastMs, 3),
                      sim::TextTable::num(gflops(r.macs, r.goldenMs)),
                      sim::TextTable::num(gflops(r.macs, r.fastMs)),
                      sim::TextTable::num(speedup) + "x"});
        report.addRow()
            .set("layer", r.layer)
            .set("op", r.op)
            .set("macs", static_cast<std::uint64_t>(r.macs))
            .set("golden_ms", r.goldenMs)
            .set("fast_ms", r.fastMs)
            .set("golden_gflops", gflops(r.macs, r.goldenMs))
            .set("fast_gflops", gflops(r.macs, r.fastMs))
            .set("speedup", speedup);
    }
    std::printf("%s\n", table.render().c_str());

    // --- Patch transforms inside the conv kernels -----------------
    std::vector<TransformResult> transforms;
    for (const auto &r :
         benchPatchTransforms("conv1", net.conv1(), reps, rng))
        transforms.push_back(r);
    for (const auto &r :
         benchPatchTransforms("conv2", net.conv2(), reps, rng))
        transforms.push_back(r);
    double conv_fw_ms = 0.0;
    for (const auto &r : results)
        if (std::string_view(r.op) == "fw" &&
            std::string_view(r.layer).starts_with("conv"))
            conv_fw_ms += r.fastMs;
    double im2col_ms = 0.0;
    sim::TextTable ttable({"Layer", "Transform", "ms", "GB/s"});
    for (const auto &r : transforms) {
        if (std::string_view(r.op) == "im2col")
            im2col_ms += r.ms;
        ttable.addRow({r.layer, r.op, sim::TextTable::num(r.ms, 4),
                       sim::TextTable::num(r.gbps)});
        report.addRow()
            .set("layer", r.layer)
            .set("op", r.op)
            .set("fast_ms", r.ms)
            .set("fast_gbps", r.gbps);
    }
    const double transform_share = im2col_ms / conv_fw_ms;
    std::printf("%s\n", ttable.render().c_str());
    std::printf("im2col share of conv FW (conv1 + conv2): %.1f%%\n\n",
                transform_share * 100.0);

    // --- End-to-end network passes through the backends ----------
    nn::ParamSet params = net.makeParams();
    net.initParams(params, rng);
    tensor::Tensor obs(tensor::Shape(
        {cfg.inChannels, cfg.inHeight, cfg.inWidth}));
    obs.fillUniform(rng, 0.0f, 1.0f);

    rl::ReferenceBackend golden(net);
    rl::FastCpuBackend fast(net);
    golden.onParamSync(params);
    fast.onParamSync(params);

    auto act_golden = net.makeActivations();
    auto act_fast = net.makeActivations();
    const auto fw_ms = timeManyMs(
        e2e_reps,
        {[&] { golden.forward(params, obs, act_golden); },
         [&] { fast.forward(params, obs, act_fast); }});
    const double fw_golden_ms = fw_ms[0];
    const double fw_fast_ms = fw_ms[1];
    const double fw_speedup = fw_golden_ms / fw_fast_ms;

    tensor::Tensor g_out(tensor::Shape({net.outSize()}));
    g_out.fillUniform(rng, -1.0f, 1.0f);
    nn::ParamSet grads = net.makeParams();
    const auto bw_ms = timeManyMs(
        e2e_reps,
        {[&] {
             grads.zero();
             golden.backward(params, act_golden, g_out, grads);
         },
         [&] {
             grads.zero();
             fast.backward(params, act_fast, g_out, grads);
         }});
    const double bw_golden_ms = bw_ms[0];
    const double bw_fast_ms = bw_ms[1];
    const double bw_speedup = bw_golden_ms / bw_fast_ms;

    // --- Batched multi-agent forward (the PAAC / GA3C path) ------
    const int batch = 16;
    std::vector<tensor::Tensor> batch_obs_store;
    std::vector<nn::A3cNetwork::Activations> batch_acts_store;
    std::vector<const tensor::Tensor *> batch_obs;
    std::vector<nn::A3cNetwork::Activations *> batch_acts;
    for (int i = 0; i < batch; ++i) {
        batch_obs_store.emplace_back(obs.shape());
        batch_obs_store.back().fillUniform(rng, 0.0f, 1.0f);
        batch_acts_store.push_back(net.makeActivations());
    }
    for (int i = 0; i < batch; ++i) {
        batch_obs.push_back(&batch_obs_store[static_cast<std::size_t>(i)]);
        batch_acts.push_back(
            &batch_acts_store[static_cast<std::size_t>(i)]);
    }
    const auto batch_ms = timeManyMs(
        e2e_reps,
        {[&] {
             for (int i = 0; i < batch; ++i)
                 fast.forward(params,
                              *batch_obs[static_cast<std::size_t>(i)],
                              *batch_acts[static_cast<std::size_t>(i)]);
         },
         [&] { fast.forwardBatch(params, batch_obs, batch_acts); }});
    const double batch_loop_ms = batch_ms[0];
    const double batch_gemm_ms = batch_ms[1];
    const double batch_speedup = batch_loop_ms / batch_gemm_ms;

    // --- Small-FC fast path -------------------------------------
    // Batch-16 fc4 through the canonical-row dot kernel vs the
    // transposing-load GEMM on the same head, whose lone tail strip
    // leaves most of each 32-column step idle. Gate: >= 1.0x.
    const nn::FcSpec &f4 = net.fc4();
    double small_speedup;
    double small_dot_ms;
    double small_gemm_ms;
    {
        std::vector<float> small_in(
            static_cast<std::size_t>(batch) *
            static_cast<std::size_t>(f4.inFeatures));
        std::vector<float> small_out(
            static_cast<std::size_t>(batch) *
            static_cast<std::size_t>(f4.outFeatures));
        randomize(small_in, rng);
        const auto small_ms = timeManyMs(
            e2e_reps,
            {[&] {
                 nn::kernels::fcForwardSmallBatch(
                     f4, batch, small_in.data(), params.view("fc4.w"),
                     params.view("fc4.b"), small_out.data());
             },
             [&] {
                 nn::kernels::fcForwardFastBatch(
                     f4, batch, small_in.data(), params.view("fc4.w"),
                     params.view("fc4.b"), small_out.data());
             }});
        small_dot_ms = small_ms[0];
        small_gemm_ms = small_ms[1];
        benchmark::DoNotOptimize(small_out.data());
        small_speedup = small_gemm_ms / small_dot_ms;
    }

    // --- Training-routine passes outside the DNN -----------------
    // Every A3C routine calls onParamSync once after its parameter
    // sync (FastCpu has nothing to stage there) and applies one
    // RMSProp update over the whole model.
    const double sync_stage_ms =
        timeMs([&] { fast.onParamSync(params); }, e2e_reps);
    const nn::A3cNetwork pong_net(nn::NetConfig::atari(6));
    nn::ParamSet rms_theta = pong_net.makeParams();
    nn::ParamSet rms_g = pong_net.makeParams();
    nn::ParamSet rms_grad = pong_net.makeParams();
    randomize(rms_theta.flat(), rng);
    randomize(rms_grad.flat(), rng);
    const nn::RmspropConfig rms_cfg;
    const double rmsprop_apply_ms = timeMs(
        [&] {
            nn::rmspropApply(rms_theta.flat(), rms_g.flat(),
                             rms_grad.flat(), 7e-4f, rms_cfg);
        },
        e2e_reps);
    benchmark::DoNotOptimize(rms_theta.flat().data());
    const std::uint64_t rmsprop_words = rms_theta.flat().size();

    // --- Quantized backend on the wide serving net ----------------
    // The paper-geometry FC3 (2592x256) is too narrow to expose the
    // weight-bandwidth win; the serving configuration (fcSize 1024)
    // is where int8 pays. Batch-16 forward, fp32 FastCpuBackend as
    // the baseline, the two timed interleaved.
    nn::NetConfig wcfg = nn::NetConfig::atari(cfg.numActions);
    wcfg.fcSize = 1024;
    const nn::A3cNetwork wnet(wcfg);
    nn::ParamSet wparams = wnet.makeParams();
    wnet.initParams(wparams, rng);

    rl::FastCpuBackend wfast(wnet);
    rl::QuantCpuBackend wq8(wnet);
    wfast.onParamSync(wparams);
    wq8.onParamSync(wparams);

    std::vector<tensor::Tensor> wobs_store;
    std::vector<nn::A3cNetwork::Activations> wacts_store;
    std::vector<const tensor::Tensor *> wobs;
    std::vector<nn::A3cNetwork::Activations *> wacts;
    for (int i = 0; i < batch; ++i) {
        wobs_store.emplace_back(obs.shape());
        wobs_store.back().fillUniform(rng, 0.0f, 1.0f);
        wacts_store.push_back(wnet.makeActivations());
    }
    for (int i = 0; i < batch; ++i) {
        wobs.push_back(&wobs_store[static_cast<std::size_t>(i)]);
        wacts.push_back(&wacts_store[static_cast<std::size_t>(i)]);
    }
    const std::uint64_t wide_reps = std::max<std::uint64_t>(
        5, e2e_reps / 4);
    const auto wide_ms = timeManyMs(
        wide_reps,
        {[&] { wfast.forwardBatch(wparams, wobs, wacts); },
         [&] { wq8.forwardBatch(wparams, wobs, wacts); }});
    const double wide_fp32_ms = wide_ms[0];
    const double wide_int8_ms = wide_ms[1];
    const double int8_speedup = wide_fp32_ms / wide_int8_ms;

    // --- The kernel pool's splits, timed split and inline ---------
    // Split = the tasks through parallelFor, inline = the same tasks
    // on the caller; "gate" is the task count the backends pick. The
    // entry-point rows time the backend's own calls, no task counts.
    const nn::A3cNetwork tnet(nn::NetConfig::tiny(cfg.numActions));
    nn::ParamSet tparams = tnet.makeParams();
    tnet.initParams(tparams, rng);
    std::vector<SplitResult> splits;
    benchFcSplits("fc3", net, params, e2e_reps, rng, splits);
    benchFcSplits("fc3_wide", wnet, wparams, e2e_reps, rng, splits);
    benchEntrySplits("net", net, params, e2e_reps, rng, splits);
    benchEntrySplits("net_tiny", tnet, tparams, e2e_reps, rng, splits);
    sim::TextTable stable({"Layer", "Op", "Batch", "MACs", "Tasks",
                           "Gate", "Inline ms", "Split ms", "Speedup"});
    for (const auto &r : splits) {
        const double speedup = r.inlineMs / r.splitMs;
        const auto count = [](int n) {
            return n > 0 ? std::to_string(n) : std::string("-");
        };
        stable.addRow({r.layer, r.op, std::to_string(r.batch),
                       std::to_string(r.macs), count(r.tasks),
                       count(r.gateTasks),
                       sim::TextTable::num(r.inlineMs, 4),
                       sim::TextTable::num(r.splitMs, 4),
                       sim::TextTable::num(speedup) + "x"});
        auto &row = report.addRow()
                        .set("layer", r.layer)
                        .set("op", r.op + "_split")
                        .set("batch", r.batch)
                        .set("macs", static_cast<std::uint64_t>(r.macs))
                        .set("inline_ms", r.inlineMs)
                        .set("split_ms", r.splitMs)
                        .set("speedup", speedup);
        if (r.tasks > 0)
            row.set("tasks", r.tasks).set("gate_tasks", r.gateTasks);
    }
    std::printf("Kernel pool splits (pool width %d):\n%s\n",
                nn::kernels::kernelThreads(), stable.render().c_str());

    sim::TextTable e2e({"End-to-end pass", "Golden ms", "Fast ms",
                        "Speedup"});
    e2e.addRow({"forward (1 agent)", sim::TextTable::num(fw_golden_ms, 3),
                sim::TextTable::num(fw_fast_ms, 3),
                sim::TextTable::num(fw_speedup) + "x"});
    e2e.addRow({"backward + gradient", sim::TextTable::num(bw_golden_ms, 3),
                sim::TextTable::num(bw_fast_ms, 3),
                sim::TextTable::num(bw_speedup) + "x"});
    e2e.addRow({"forward x16 loop vs batched",
                sim::TextTable::num(batch_loop_ms, 3),
                sim::TextTable::num(batch_gemm_ms, 3),
                sim::TextTable::num(batch_speedup) + "x"});
    e2e.addRow({"fc4 x16: GEMM vs dot path",
                sim::TextTable::num(small_gemm_ms, 3),
                sim::TextTable::num(small_dot_ms, 3),
                sim::TextTable::num(small_speedup) + "x"});
    e2e.addRow({"wide net x16: fp32 vs int8",
                sim::TextTable::num(wide_fp32_ms, 3),
                sim::TextTable::num(wide_int8_ms, 3),
                sim::TextTable::num(int8_speedup) + "x"});
    std::printf("%s\n", e2e.render().c_str());
    std::printf("Parameter sync (Table 1 net): %.4f ms\n",
                sync_stage_ms);
    std::printf("RMSProp apply (%llu words): %.3f ms\n",
                static_cast<unsigned long long>(rmsprop_words),
                rmsprop_apply_ms);
    std::printf("Kernel ISA: %s\n", nn::kernels::isaName());
    std::printf("CI gate: fw_speedup_e2e = %.2fx (must be >= 2.0)\n",
                fw_speedup);
    std::printf("CI gate: small_layer_speedup = %.2fx (must be >= "
                "1.0)\n",
                small_speedup);
    std::printf("CI gate: int8_speedup = %.2fx (must be >= 1.5)\n",
                int8_speedup);
    std::printf("CI gate: sync_stage_ms = %.4f ms (must be < 0.05)\n",
                sync_stage_ms);

    // --- KernelTimer overhead -------------------------------------
    // The backends time every kernel call into the nn.kernel.*
    // histograms while metrics are on. One sample (~150 ns) is far
    // below the run-to-run jitter of a ~0.3 ms forward on a shared
    // machine, so an e2e on/off diff would mostly measure noise.
    // Instead: calibrate the per-sample cost on an otherwise empty
    // function, count the samples one forward records, and express
    // samples/fw x cost/sample as a share of the forward.
    obs::MetricsRegistry &registry = obs::metrics();
    const bool metrics_were_enabled = registry.enabled();
    const double sample_ns = timerCalibrate(true) - timerCalibrate(false);

    registry.setEnabled(true);
    const int count_reps = 50;
    const std::uint64_t samples_before = kernelTimerSamples();
    for (int i = 0; i < count_reps; ++i)
        fast.forward(params, obs, act_fast);
    const double samples_per_fw =
        static_cast<double>(kernelTimerSamples() - samples_before) /
        count_reps;
    registry.setEnabled(metrics_were_enabled);

    const double timer_overhead_pct =
        samples_per_fw * sample_ns / (fw_fast_ms * 1e6) * 100.0;
    std::printf("KernelTimer cost: %.1f ns/sample, %.1f "
                "samples/forward\n",
                sample_ns, samples_per_fw);
    std::printf("CI gate: timer_overhead_pct = %.4f%% of the forward "
                "(must be < 1%%)\n\n",
                timer_overhead_pct);
    report.field("timer_overhead_pct", timer_overhead_pct);
    report.field("timer_sample_ns", sample_ns);
    report.field("timer_samples_per_fw", samples_per_fw);

    report.field("fw_speedup_e2e", fw_speedup);
    report.field("bw_speedup_e2e", bw_speedup);
    report.field("batch16_fw_speedup", batch_speedup);
    report.field("small_layer_speedup", small_speedup);
    report.field("int8_speedup", int8_speedup);
    report.field("sync_stage_ms", sync_stage_ms);
    report.field("rmsprop_apply_ms", rmsprop_apply_ms);
    report.field("rmsprop_words", rmsprop_words);
    report.field("conv_fw_transform_share", transform_share);
    report.field("kernel_isa", nn::kernels::isaName());
    report.field("reps", reps);
    report.field("e2e_reps", e2e_reps);
    report.addRow()
        .set("layer", "net")
        .set("op", "fw_e2e")
        .set("golden_ms", fw_golden_ms)
        .set("fast_ms", fw_fast_ms)
        .set("speedup", fw_speedup);
    report.addRow()
        .set("layer", "net")
        .set("op", "bw_e2e")
        .set("golden_ms", bw_golden_ms)
        .set("fast_ms", bw_fast_ms)
        .set("speedup", bw_speedup);
    report.addRow()
        .set("layer", "net")
        .set("op", "fw_batch16")
        .set("golden_ms", batch_loop_ms)
        .set("fast_ms", batch_gemm_ms)
        .set("speedup", batch_speedup);
    report.addRow()
        .set("layer", "fc4")
        .set("op", "fw_batch16_small")
        .set("golden_ms", small_gemm_ms)
        .set("fast_ms", small_dot_ms)
        .set("speedup", small_speedup);
    report.addRow()
        .set("layer", "net_wide")
        .set("op", "fw_batch16_int8")
        .set("golden_ms", wide_fp32_ms)
        .set("fast_ms", wide_int8_ms)
        .set("speedup", int8_speedup);
    return 0;
}
