#include "obs/telemetry.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "obs/build_info.hh"
#include "obs/env_value.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "sim/logging.hh"

namespace fa3c::obs {

namespace {

void
sendResponse(int fd, int status, const char *reason,
             const std::string &content_type, const std::string &body)
{
    std::ostringstream os;
    os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    const std::string msg = os.str();
    std::size_t sent = 0;
    while (sent < msg.size()) {
        const ssize_t n =
            ::send(fd, msg.data() + sent, msg.size() - sent,
                   MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace

TelemetryServer::TelemetryServer(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        FA3C_WARN("telemetry: socket() failed: ",
                  std::strerror(errno));
        return;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        FA3C_WARN("telemetry: cannot listen on port ", port, ": ",
                  std::strerror(errno));
        ::close(fd);
        return;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        port_ = ntohs(bound.sin_port);
    listenFd_ = fd;
    acceptor_ = std::thread([this] { acceptLoop(); });
}

TelemetryServer::~TelemetryServer()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
TelemetryServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                break;
            if (errno == EINTR)
                continue;
            break;
        }
        timeval tv{};
        tv.tv_sec = 2;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        handleConnection(fd);
        ::close(fd);
    }
}

void
TelemetryServer::handleConnection(int fd)
{
    // Read until the end of the request headers; only the request
    // line matters, but draining the headers keeps clients happy.
    std::string req;
    char buf[2048];
    while (req.size() < 16 * 1024 &&
           req.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        req.append(buf, static_cast<std::size_t>(n));
    }
    std::istringstream line(req);
    std::string method, target;
    line >> method >> target;
    if (method != "GET") {
        sendResponse(fd, 405, "Method Not Allowed", "text/plain",
                     "only GET is supported\n");
        return;
    }
    if (const auto q = target.find('?'); q != std::string::npos)
        target.resize(q);
    if (target == "/metrics") {
        sendResponse(fd, 200, "OK",
                     "text/plain; version=0.0.4; charset=utf-8",
                     renderMetrics());
    } else if (target == "/healthz") {
        sendResponse(fd, 200, "OK", "text/plain", "ok\n");
    } else if (target == "/buildz") {
        sendResponse(fd, 200, "OK", "application/json",
                     buildInfoJson());
    } else if (target == "/readyz") {
        std::string body;
        const bool ready = renderReady(body);
        if (ready)
            sendResponse(fd, 200, "OK", "text/plain", body);
        else
            sendResponse(fd, 503, "Service Unavailable", "text/plain",
                         body);
    } else {
        sendResponse(fd, 404, "Not Found", "text/plain",
                     "unknown path; try /metrics, /healthz, "
                     "/readyz, /buildz\n");
    }
}

std::string
TelemetryServer::renderMetrics() const
{
    std::ostringstream os;
    PromWriter w(os);
    writeRegistry(w, metrics());
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[id, collector] : collectors_)
        collector(w);
    return os.str();
}

bool
TelemetryServer::renderReady(std::string &body) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (probes_.empty()) {
        body = "not ready: no components registered\n";
        return false;
    }
    bool ready = true;
    std::ostringstream os;
    for (const auto &[id, named] : probes_) {
        std::string detail;
        const bool up = named.second(detail);
        ready = ready && up;
        os << (up ? "ok  " : "FAIL") << ' ' << named.first;
        if (!detail.empty())
            os << ": " << detail;
        os << '\n';
    }
    body = os.str();
    return ready;
}

int
TelemetryServer::addCollector(Collector fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = nextId_++;
    collectors_.emplace(id, std::move(fn));
    return id;
}

void
TelemetryServer::removeCollector(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    collectors_.erase(id);
}

int
TelemetryServer::addReadiness(std::string name, Probe fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = nextId_++;
    probes_.emplace(id,
                    std::make_pair(std::move(name), std::move(fn)));
    return id;
}

void
TelemetryServer::removeReadiness(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    probes_.erase(id);
}

TelemetryRegistration::TelemetryRegistration(
    TelemetryServer *server, TelemetryServer::Collector collector,
    std::string readyName, TelemetryServer::Probe ready)
    : server_(server)
{
    if (!server_)
        return;
    if (collector)
        collectorId_ = server_->addCollector(std::move(collector));
    if (ready)
        probeId_ = server_->addReadiness(std::move(readyName),
                                         std::move(ready));
}

TelemetryRegistration::~TelemetryRegistration()
{
    reset();
}

TelemetryRegistration::TelemetryRegistration(
    TelemetryRegistration &&other) noexcept
    : server_(other.server_), collectorId_(other.collectorId_),
      probeId_(other.probeId_)
{
    other.server_ = nullptr;
    other.collectorId_ = -1;
    other.probeId_ = -1;
}

TelemetryRegistration &
TelemetryRegistration::operator=(TelemetryRegistration &&other) noexcept
{
    if (this != &other) {
        reset();
        server_ = other.server_;
        collectorId_ = other.collectorId_;
        probeId_ = other.probeId_;
        other.server_ = nullptr;
        other.collectorId_ = -1;
        other.probeId_ = -1;
    }
    return *this;
}

void
TelemetryRegistration::reset()
{
    if (!server_)
        return;
    if (collectorId_ >= 0)
        server_->removeCollector(collectorId_);
    if (probeId_ >= 0)
        server_->removeReadiness(probeId_);
    server_ = nullptr;
    collectorId_ = -1;
    probeId_ = -1;
}

TelemetryServer *
telemetry()
{
    static std::unique_ptr<TelemetryServer> global =
        []() -> std::unique_ptr<TelemetryServer> {
        const char *text = std::getenv("FA3C_TELEMETRY_PORT");
        if (!text || !*text)
            return nullptr;
        // A malformed port leaves telemetry off rather than bind a
        // port nobody asked for.
        const auto port =
            parseEnvValue("FA3C_TELEMETRY_PORT", text, 0, 65535);
        if (!port)
            return nullptr;
        auto server = std::make_unique<TelemetryServer>(*port);
        if (!server->ok())
            return nullptr;
        // A scrapable endpoint implies live metrics, even without a
        // JSON export path configured.
        metrics().setEnabled(true);
        FA3C_INFORM("telemetry: serving /metrics /healthz /readyz "
                    "/buildz on 127.0.0.1:",
                    server->port());
        return server;
    }();
    return global.get();
}

} // namespace fa3c::obs
