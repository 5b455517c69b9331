/**
 * @file
 * perfbench: runs one workload for a given time and prints its metrics.
 *
 *   perfbench --workload <train_local|train_dist|serve_actors>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced rounds and reports the per-layer metrics (and,
 * with --spans, writes the traced spans as Chrome trace JSON). The exit
 * code is 0 only when every output check passed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "obs/host_info.hh"

namespace {

/** Rounds of each kind a run makes at least, however short --seconds. */
constexpr int kMinRounds = 3;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const char *text, unsigned long long &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    std::putchar('"');
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spans_path;
    unsigned long long seed = 0, seconds = 0, trace = 2;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--spans")
            spans_path = value;
        else if (arg == "--seed")
            have_seed = parseUnsigned(value, seed);
        else if (arg == "--seconds")
            have_seconds = parseUnsigned(value, seconds);
        else if (arg == "--trace") {
            if (!parseUnsigned(value, trace) || trace > 1)
                return usage("--trace takes 0 or 1");
        } else
            return usage(("unknown argument " + arg).c_str());
    }
    if (!have_seed || !have_seconds || seconds == 0 || trace > 1)
        return usage("--seed, --seconds (> 0) and --trace are required");
    auto wl = perfbench::makeWorkload(workload, seed);
    if (!wl)
        return usage(("unknown workload '" + workload + "'").c_str());
    const bool traced_run = trace == 1;

    std::fprintf(stderr, "perfbench: %s seed %llu on %s\n",
                 workload.c_str(), seed,
                 fa3c::obs::hostInfo().fingerprint.c_str());

    // Rounds run until --seconds have passed. A traced run alternates
    // untraced and traced rounds so the trace overhead is measured
    // under the same host conditions.
    std::vector<perfbench::RoundResult> rounds;
    int plain = 0, traced = 0;
    const std::int64_t start = perfbench::nowNs();
    const std::int64_t budget = static_cast<std::int64_t>(seconds) *
                                1'000'000'000;
    for (std::uint64_t k = 0;; ++k) {
        perfbench::RoundInputs in;
        in.seed = perfbench::mixSeed(seed, k);
        in.traced = traced_run && k % 2 == 1;
        rounds.push_back(perfbench::runIsolated(*wl, in));
        const perfbench::RoundResult &r = rounds.back();
        std::vector<double> lat = r.latMs;
        std::sort(lat.begin(), lat.end());
        (in.traced ? traced : plain) += 1;
        std::fprintf(stderr,
                     "  round %llu%s: setup %.4f s, %.1f /s over %.3f s, "
                     "%zu ops, p50 %.3f p90 %.3f ms, rss %.1f MB, "
                     "steal %.4f\n",
                     static_cast<unsigned long long>(k),
                     in.traced ? " (traced)" : "", r.setupS,
                     r.throughput(), r.measureS, r.latMs.size(),
                     lat.empty() ? 0.0 : lat[lat.size() / 2],
                     lat.empty() ? 0.0 : lat[lat.size() * 9 / 10],
                     r.peakRssMb, r.stealShare);
        if (!r.errors.empty())
            break;
        const bool enough =
            plain >= kMinRounds && (!traced_run || traced >= kMinRounds);
        if (enough && perfbench::nowNs() - start >= budget)
            break;
    }

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const perfbench::RoundResult &r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors) {
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         e.c_str());
            correct = false;
        }
    }
    if (attempted == 0)
        correct = false;

    const std::vector<perfbench::Metric> metrics =
        traced_run ? perfbench::perLayerMetrics(rounds, wl->operation())
                   : perfbench::endToEndMetrics(rounds);
    if (traced_run && !spans_path.empty() &&
        !perfbench::writeSpans(spans_path, rounds))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans_path.c_str());

    for (const perfbench::Metric &m : metrics)
        std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s", i ? ", " : "");
        printJsonString(metrics[i].name);
        std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
        printJsonString(metrics[i].unit);
        std::printf("}");
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
