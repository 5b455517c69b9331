/**
 * @file
 * Turns rounds into metrics: end-to-end figures from untraced rounds,
 * per-layer figures from the spans of traced rounds.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "bench.hh"

namespace perfbench {
namespace {

/** Linear-interpolated quantile of an ascending sample. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

/** The timed layers of the per-layer report, in output order. */
enum Timed
{
    kFw,
    kBw,
    kStage,
    kEnvStep,
    kEnvGame,
    kRlParams,
    kDistParams,
    kFront,
    kQueue,
    kInfer,
    kTimedCount
};

constexpr std::array<const char *, kTimedCount> kTimedNames = {
    "nn.fw",     "nn.bw",       "nn.stage",    "env.step",
    "env.game",  "rl.params",   "dist.params", "serve.front",
    "serve.queue", "serve.infer"};

/** Which Timed bucket a span's own duration goes to (-1: none). */
int
timedOf(Layer layer)
{
    switch (layer) {
    case Layer::Fw: return kFw;
    case Layer::Bw: return kBw;
    case Layer::Stage: return kStage;
    case Layer::Env: return kEnvStep;
    case Layer::RlParams: return kRlParams;
    case Layer::DistParams: return kDistParams;
    case Layer::Queue: return kQueue;
    case Layer::Batch: return kInfer;
    default: return -1;
    }
}

/** Nesting depth used to order spans that share a start and end. */
int
rank(Layer layer)
{
    switch (layer) {
    case Layer::Routine:
    case Layer::Request: return 0;
    case Layer::Game: return 2;
    default: return 1;
    }
}

/** One traced buffer cut to its round's timed window and nested. */
struct Nested
{
    std::vector<Span> spans;      ///< in (start, -end, rank) order
    std::vector<int> parent;      ///< index into spans, -1 for a root
    std::vector<std::int64_t> childNs; ///< time covered by children
};

Nested
nest(const SpanBuffer &buf, std::int64_t from, std::int64_t to)
{
    Nested n;
    for (const Span &s : buf.spans)
        if (s.start >= from && s.end <= to && s.end >= s.start)
            n.spans.push_back(s);
    std::sort(n.spans.begin(), n.spans.end(),
              [](const Span &a, const Span &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.end != b.end)
                      return a.end > b.end;
                  return rank(a.layer) < rank(b.layer);
              });
    n.parent.assign(n.spans.size(), -1);
    n.childNs.assign(n.spans.size(), 0);
    std::vector<int> stack;
    for (std::size_t i = 0; i < n.spans.size(); ++i) {
        const Span &s = n.spans[i];
        while (!stack.empty()) {
            const Span &top = n.spans[static_cast<std::size_t>(stack.back())];
            if (top.start <= s.start && s.end <= top.end)
                break;
            stack.pop_back();
        }
        if (!stack.empty()) {
            const int p = stack.back();
            n.parent[i] = p;
            n.childNs[static_cast<std::size_t>(p)] += s.end - s.start;
        }
        stack.push_back(static_cast<int>(i));
    }
    return n;
}

struct Timings
{
    std::array<std::vector<double>, kTimedCount> ms;
    double opNs = 0.0;       ///< operation time
    double opSelfNs = 0.0;   ///< operation time no named layer covers
    double batchNs = 0.0;    ///< forwardBatch busy time
    double batchItems = 0.0; ///< observations in those batches
    double batches = 0.0;
    double windowNs = 0.0;
};

void
addRound(const RoundResult &r, Layer operation, Timings &t)
{
    t.windowNs += static_cast<double>(r.windowEnd - r.windowStart);
    for (const SpanBuffer &buf : r.buffers) {
        const Nested n = nest(buf, r.windowStart, r.windowEnd);
        // Per-parent sums of one child layer: Front under Request and
        // Game under Env.
        std::vector<std::int64_t> front(n.spans.size(), 0);
        std::vector<std::int64_t> game(n.spans.size(), 0);
        for (std::size_t i = 0; i < n.spans.size(); ++i) {
            const Span &s = n.spans[i];
            const int p = n.parent[i];
            if (p < 0)
                continue;
            if (s.layer == Layer::Front)
                front[static_cast<std::size_t>(p)] += s.end - s.start;
            if (s.layer == Layer::Game)
                game[static_cast<std::size_t>(p)] += s.end - s.start;
        }
        for (std::size_t i = 0; i < n.spans.size(); ++i) {
            const Span &s = n.spans[i];
            const double dur = static_cast<double>(s.end - s.start);
            if (const int k = timedOf(s.layer); k >= 0)
                t.ms[static_cast<std::size_t>(k)].push_back(dur * 1e-6);
            if (s.layer == Layer::Env)
                t.ms[kEnvGame].push_back(static_cast<double>(game[i]) *
                                         1e-6);
            if (s.layer == Layer::Request)
                t.ms[kFront].push_back(static_cast<double>(front[i]) *
                                       1e-6);
            if (s.layer == Layer::Batch) {
                t.batchNs += dur;
                t.batchItems += s.aux;
                t.batches += 1.0;
            }
            if (s.layer == operation && n.parent[i] < 0) {
                t.opNs += dur;
                t.opSelfNs += dur - static_cast<double>(n.childNs[i]);
            }
        }
    }
}

void
appendTimed(std::vector<Metric> &out, const char *name,
            std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::string base(name);
    out.push_back({base + "_ms", quantile(v, 0.5), "ms"});
    out.push_back({base + "_p90_ms", quantile(v, 0.9), "ms"});
    out.push_back({base + "_n", static_cast<double>(v.size()), "count"});
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
endToEndMetrics(const std::vector<RoundResult> &rounds)
{
    // Host CPU steal only ever slows a round, and on a shared VM it
    // comes and goes within seconds. Every figure is therefore the
    // median over the untraced rounds whose steal share is at most the
    // run's median one: the half of the run the hypervisor disturbed
    // least. Steal below kStealFloor is within a few jiffies per round
    // and leaves every round in, as on a host without steal.
    constexpr double kStealFloor = 0.01;
    std::vector<double> steal;
    for (const RoundResult &r : rounds)
        if (!r.traced)
            steal.push_back(r.stealShare);
    const double steal_cut = std::max(median(steal), kStealFloor);

    std::vector<double> setup, tput, p50, p90, rss;
    for (const RoundResult &r : rounds) {
        if (r.traced || r.stealShare > steal_cut)
            continue;
        // A failed operation sorts above every success: it counts as
        // taking the whole timed phase.
        std::vector<double> lat = r.latMs;
        for (double &v : lat)
            if (!std::isfinite(v))
                v = r.measureS * 1e3;
        std::sort(lat.begin(), lat.end());
        setup.push_back(r.setupS);
        tput.push_back(r.throughput());
        p50.push_back(quantile(lat, 0.5));
        p90.push_back(quantile(lat, 0.9));
        rss.push_back(r.peakRssMb);
    }
    return {
        {"setup_s", median(setup), "s"},
        {"throughput", median(tput), "1/s"},
        {"p50_ms", median(p50), "ms"},
        {"p90_ms", median(p90), "ms"},
        {"peak_rss_mb", median(rss), "MB"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<RoundResult> &rounds, Layer operation)
{
    Timings t;
    std::vector<double> plain_tput;
    std::vector<double> traced_tput;
    double cpu = 0.0, sys = 0.0, wall = 0.0, minflt = 0.0, ops = 0.0;
    std::vector<double> steal;
    double pushes = 0.0, rejects = 0.0, reaped = 0.0, steps = 0.0;
    double param_count = 0.0;
    for (const RoundResult &r : rounds) {
        pushes += static_cast<double>(r.psPushes);
        rejects += static_cast<double>(r.psRejects);
        reaped += static_cast<double>(r.psReaped);
        steps += static_cast<double>(r.psSteps);
        param_count = std::max(param_count,
                               static_cast<double>(r.paramCount));
        if (r.traced) {
            traced_tput.push_back(r.throughput());
            addRound(r, operation, t);
            continue;
        }
        // Host counters come from the untraced rounds, which the
        // span recording does not perturb.
        plain_tput.push_back(r.throughput());
        steal.push_back(r.stealShare);
        const double u = r.usageEnd.userS - r.usageStart.userS;
        const double s = r.usageEnd.sysS - r.usageStart.sysS;
        cpu += u + s;
        sys += s;
        wall += static_cast<double>(r.usageEnd.wallNs -
                                    r.usageStart.wallNs) *
                1e-9;
        minflt += static_cast<double>(r.usageEnd.minflt -
                                      r.usageStart.minflt);
        ops += static_cast<double>(r.latMs.size());
    }

    std::vector<Metric> out;
    for (int k = 0; k < kTimedCount; ++k) {
        appendTimed(out, kTimedNames[static_cast<std::size_t>(k)],
                    t.ms[static_cast<std::size_t>(k)]);
        if (k == kDistParams) {
            // Every push ships the gradients and the ack returns theta:
            // 2 x params x 4 B, spread over the steps of one push.
            out.push_back({"dist.bytes_per_step",
                           ratio(2.0 * param_count * 4.0 * pushes, steps),
                           "B"});
            out.push_back({"dist.pushes", pushes, "count"});
            out.push_back({"dist.push_rejects", rejects, "count"});
            out.push_back({"dist.reaped", reaped, "count"});
        }
    }
    out.push_back(
        {"serve.batch_size", ratio(t.batchItems, t.batches), "count"});
    out.push_back(
        {"serve.worker_busy", ratio(t.batchNs, t.windowNs), "ratio"});
    out.push_back({"host.busy_cores", ratio(cpu, wall), "cores"});
    out.push_back({"host.sys_share", ratio(sys, cpu), "ratio"});
    out.push_back({"host.minflt_per_op", ratio(minflt, ops), "count/op"});
    out.push_back({"host.steal_share", median(steal), "ratio"});
    out.push_back({"bench.unattributed_pct",
                   100.0 * ratio(t.opSelfNs, t.opNs), "%"});
    const double plain = median(plain_tput);
    const double traced = median(traced_tput);
    out.push_back({"bench.trace_overhead_pct",
                   100.0 * ratio(plain - traced, plain), "%"});
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<RoundResult> &rounds)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t base = -1;
    for (const RoundResult &r : rounds)
        if (r.traced && (base < 0 || r.windowStart < base))
            base = r.windowStart;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    long next_id = 1;
    int tid = 0;
    for (const RoundResult &r : rounds) {
        if (!r.traced)
            continue;
        for (const SpanBuffer &buf : r.buffers) {
            ++tid;
            std::fprintf(f,
                         "%s{\"ph\":\"M\",\"name\":\"thread_name\","
                         "\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                         first ? "" : ",", tid, buf.track.c_str());
            first = false;
            const Nested n = nest(buf, r.windowStart, r.windowEnd);
            const long id0 = next_id;
            for (std::size_t i = 0; i < n.spans.size(); ++i) {
                const Span &s = n.spans[i];
                const long parent =
                    n.parent[i] < 0 ? 0 : id0 + n.parent[i];
                std::fprintf(
                    f,
                    ",{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"id\":%ld,\"parent\":%ld,\"self_us\":%.3f,"
                    "\"aux\":%u}}",
                    layerName(s.layer), tid,
                    static_cast<double>(s.start - base) * 1e-3,
                    static_cast<double>(s.end - s.start) * 1e-3,
                    id0 + static_cast<long>(i), parent,
                    static_cast<double>(s.end - s.start - n.childNs[i]) *
                        1e-3,
                    s.aux);
            }
            next_id += static_cast<long>(n.spans.size());
        }
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
