#include "obs/export_guard.hh"

#include <atomic>
#include <csignal>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace fa3c::obs {

namespace {

// Raw pointers published by the notify hooks. Both targets are
// function-local statics that live until process exit, so the handler
// can never observe a dangling pointer.
std::atomic<MetricsRegistry *> g_metrics{nullptr};
std::atomic<TraceWriter *> g_trace{nullptr};

using SignalHandler = void (*)(int);
SignalHandler g_prevInt = SIG_DFL;
SignalHandler g_prevTerm = SIG_DFL;
std::atomic<bool> g_installed{false};

/**
 * Flush the exports, then defer to whoever owned the signal before
 * us: a real previous handler (e.g. the training stop handler, which
 * just sets a flag so the run ends at its next routine boundary) is
 * called and the process keeps running; otherwise the default
 * disposition is restored and the signal re-raised so the process
 * still dies.
 *
 * The flush itself is not async-signal-safe (it allocates and does
 * stream I/O). That is a deliberate trade: without it the data is
 * lost with certainty, and the best-effort try_lock variants below
 * mean a signal landing mid-export skips the flush instead of
 * deadlocking.
 */
void
exportSignalHandler(int sig)
{
    if (MetricsRegistry *m = g_metrics.load(std::memory_order_acquire))
        m->flushBestEffort();
    if (TraceWriter *t = g_trace.load(std::memory_order_acquire))
        t->closeBestEffort();
    const SignalHandler prev =
        sig == SIGINT ? g_prevInt : g_prevTerm;
    if (prev == SIG_IGN)
        return;
    if (prev != SIG_DFL && prev != exportSignalHandler) {
        prev(sig);
        return;
    }
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
installOnce()
{
    bool expected = false;
    if (!g_installed.compare_exchange_strong(expected, true))
        return;
    g_prevInt = std::signal(SIGINT, exportSignalHandler);
    g_prevTerm = std::signal(SIGTERM, exportSignalHandler);
    if (g_prevInt == SIG_ERR)
        g_prevInt = SIG_DFL;
    if (g_prevTerm == SIG_ERR)
        g_prevTerm = SIG_DFL;
}

} // namespace

void
notifyMetricsExportEnabled(MetricsRegistry &registry)
{
    g_metrics.store(&registry, std::memory_order_release);
    installOnce();
}

void
notifyTraceStarted(TraceWriter &writer)
{
    g_trace.store(&writer, std::memory_order_release);
    installOnce();
}

} // namespace fa3c::obs
