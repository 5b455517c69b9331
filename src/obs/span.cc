#include "obs/span.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "obs/env_value.hh"

namespace fa3c::obs {

namespace {

std::atomic<double> g_sampleRate{[] {
    if (const char *rate = std::getenv("FA3C_TRACE_SAMPLE");
        rate && *rate)
        return parseEnvValue("FA3C_TRACE_SAMPLE", rate, 0.0, 1.0)
            .value_or(1.0);
    return 1.0;
}()};

/** Per-thread splitmix64 for ids and sampling, no locks. */
std::uint64_t
nextRandom()
{
    thread_local std::uint64_t state = [] {
        std::random_device rd;
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
               std::hash<std::thread::id>{}(
                   std::this_thread::get_id());
    }();
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Nonzero id exactly representable as a double (< 2^48). */
std::uint64_t
nextId()
{
    for (;;) {
        const std::uint64_t id = nextRandom() & ((1ull << 48) - 1);
        if (id != 0)
            return id;
    }
}

} // namespace

double
spanSampleRate()
{
    return g_sampleRate.load(std::memory_order_relaxed);
}

void
setSpanSampleRate(double rate)
{
    g_sampleRate.store(std::clamp(rate, 0.0, 1.0),
                       std::memory_order_relaxed);
}

SpanContext
rootSpan()
{
    SpanContext ctx;
    ctx.trace = nextId();
    ctx.span = nextId();
    ctx.parent = 0;
    if (trace() != nullptr) {
        const double rate = spanSampleRate();
        ctx.sampled =
            rate >= 1.0 ||
            (rate > 0.0 &&
             static_cast<double>(nextRandom() >> 11) * 0x1.0p-53 <
                 rate);
    }
    return ctx;
}

SpanContext
childSpan(const SpanContext &parent)
{
    if (!parent.valid())
        return rootSpan();
    SpanContext ctx;
    ctx.trace = parent.trace;
    ctx.span = nextId();
    ctx.parent = parent.span;
    ctx.sampled = parent.sampled;
    return ctx;
}

SpanContext
remoteChildSpan(std::uint64_t trace_id, std::uint64_t parent_span_id,
                bool sampled)
{
    if (trace_id == 0)
        return rootSpan();
    SpanContext ctx;
    ctx.trace = trace_id;
    ctx.span = nextId();
    ctx.parent = parent_span_id;
    ctx.sampled = sampled;
    return ctx;
}

void
emitSpan(const SpanContext &ctx, const std::string &track,
         const std::string &name,
         std::chrono::steady_clock::time_point start,
         std::chrono::steady_clock::time_point end,
         std::span<const TraceArg> extra)
{
    if (!ctx.sampled)
        return;
    TraceWriter *tw = trace();
    if (!tw)
        return;
    std::vector<TraceArg> args;
    args.reserve(extra.size() + 3);
    args.emplace_back("trace_id", static_cast<double>(ctx.trace));
    args.emplace_back("span_id", static_cast<double>(ctx.span));
    args.emplace_back("parent_id", static_cast<double>(ctx.parent));
    args.insert(args.end(), extra.begin(), extra.end());
    tw->hostCompleteEvent(track, name, tw->hostUsAt(start),
                          tw->hostUsAt(end), args, "span");
}

} // namespace fa3c::obs
