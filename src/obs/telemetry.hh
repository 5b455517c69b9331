/**
 * @file
 * Embedded HTTP telemetry endpoint.
 *
 * A TelemetryServer listens on a loopback TCP port and serves four
 * paths to a scraper (Prometheus, curl, or the CI smoke job); any
 * other path is a 404:
 *
 *  - /metrics : Prometheus text exposition of every MetricsRegistry
 *    group, plus whatever the registered collectors add (live gauges
 *    like queue depth, model version, and slo_burn);
 *  - /healthz : liveness — 200 as long as the process serves HTTP;
 *  - /readyz  : readiness — 200 only when at least one component has
 *    registered a readiness probe and all probes pass, 503 otherwise
 *    (each probe contributes a named detail line);
 *  - /buildz  : the build identity (git sha, build type, compiler,
 *    active backend) as JSON.
 *
 * Components attach via TelemetryRegistration, an RAII handle that
 * adds a collector and (optionally) a readiness probe on
 * construction and removes both on destruction — so a PolicyServer
 * or trainer going away cleanly drops out of /readyz.
 *
 * The global instance is created on first telemetry() call when
 * FA3C_TELEMETRY_PORT is set (0 picks an ephemeral port, printed at
 * startup); enabling it also enables the metrics registry so
 * instrumentation records without FA3C_METRICS_JSON.
 *
 * Connections are handled synchronously on the accept thread with a
 * receive timeout — scrapes are rare and tiny, and one thread keeps
 * the server trivially safe to tear down.
 */

#ifndef FA3C_OBS_TELEMETRY_HH
#define FA3C_OBS_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace fa3c::obs {

class PromWriter;

class TelemetryServer
{
  public:
    /** Collector: append component gauges to a /metrics scrape. */
    using Collector = std::function<void(PromWriter &)>;

    /** Probe: return readiness, append a human detail line. */
    using Probe = std::function<bool(std::string &detail)>;

    /** Bind and start serving on @p port (0 = ephemeral). */
    explicit TelemetryServer(int port);
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** False when the socket could not be bound. */
    bool ok() const { return listenFd_ >= 0; }

    /** The bound port (resolved even when constructed with 0). */
    int port() const { return port_; }

    int addCollector(Collector fn);
    void removeCollector(int id);

    int addReadiness(std::string name, Probe fn);
    void removeReadiness(int id);

    /** Render one /metrics body (also used directly by tests). */
    std::string renderMetrics() const;

    /** Render /readyz; @return true when ready (HTTP 200). */
    bool renderReady(std::string &body) const;

  private:
    int listenFd_ = -1;
    int port_ = 0;
    std::thread acceptor_;
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_;
    std::map<int, Collector> collectors_;
    std::map<int, std::pair<std::string, Probe>> probes_;
    int nextId_ = 0;

    void acceptLoop();
    void handleConnection(int fd);
};

/**
 * RAII attachment of a component to a telemetry server: registers a
 * collector and an optional named readiness probe on construction,
 * removes both on destruction. Every operation is a no-op when
 * @p server is null, so components attach unconditionally with
 * `obs::telemetry()` as the server argument.
 */
class TelemetryRegistration
{
  public:
    TelemetryRegistration() = default;
    TelemetryRegistration(TelemetryServer *server,
                          TelemetryServer::Collector collector,
                          std::string readyName = {},
                          TelemetryServer::Probe ready = {});
    ~TelemetryRegistration();

    TelemetryRegistration(const TelemetryRegistration &) = delete;
    TelemetryRegistration &
    operator=(const TelemetryRegistration &) = delete;

    TelemetryRegistration(TelemetryRegistration &&other) noexcept;
    TelemetryRegistration &
    operator=(TelemetryRegistration &&other) noexcept;

    void reset();

  private:
    TelemetryServer *server_ = nullptr;
    int collectorId_ = -1;
    int probeId_ = -1;
};

/**
 * The process-wide telemetry server, created on first use from
 * FA3C_TELEMETRY_PORT. @return nullptr when telemetry is disabled.
 */
TelemetryServer *telemetry();

} // namespace fa3c::obs

#endif // FA3C_OBS_TELEMETRY_HH
