#include "obs/metrics.hh"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "obs/export_guard.hh"
#include "obs/json.hh"
#include "obs/perf_export.hh"
#include "sim/logging.hh"

namespace fa3c::obs {

namespace {

void
writeDistribution(JsonWriter &json, const sim::Distribution &d)
{
    json.beginObject();
    json.field("count", d.count());
    json.field("sum", d.sum());
    json.field("mean", d.mean());
    json.field("min", d.min());
    json.field("max", d.max());
    json.field("stddev", d.stddev());
    json.field("p50", d.percentile(50.0));
    json.field("p95", d.percentile(95.0));
    json.field("p99", d.percentile(99.0));
    json.endObject();
}

void
writeGroup(JsonWriter &json, const sim::StatGroup &group)
{
    json.beginObject();
    json.key("counters");
    json.beginObject();
    for (const auto &[name, counter] : group.counters())
        json.field(name, counter.value());
    json.endObject();
    json.key("distributions");
    json.beginObject();
    for (const auto &[name, dist] : group.distributions()) {
        json.key(name);
        writeDistribution(json, dist);
    }
    json.endObject();
    json.endObject();
}

/**
 * Write @p doc to @p path via a same-directory temp file renamed into
 * place: a crash or signal mid-write leaves either the old document
 * or the new one, never a truncated hybrid.
 */
bool
writeAtomically(const std::string &path, const std::string &doc)
{
    ensureParentDir(path);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << doc << '\n';
        out.flush();
        if (!out)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

} // namespace

MetricsRegistry::~MetricsRegistry()
{
    stopPeriodicFlush();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = exportPath_;
    }
    if (enabled() && !path.empty())
        writeTo(path);
}

void
MetricsRegistry::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
MetricsRegistry::setExportPath(std::string path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    exportPath_ = std::move(path);
}

std::string
MetricsRegistry::registerGroup(const std::string &name,
                               const sim::StatGroup *group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string actual = name;
    while (live_.count(actual) || owned_.count(actual))
        actual = name + "#" + std::to_string(++uniq_);
    live_.emplace(actual, group);
    return actual;
}

void
MetricsRegistry::unregisterGroup(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(name);
    if (it == live_.end())
        return;
    retained_.emplace_back(name, *it->second);
    live_.erase(it);
}

void
MetricsRegistry::count(const std::string &group, const std::string &name,
                       std::uint64_t delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    owned_[group].counter(name).inc(delta);
}

void
MetricsRegistry::sample(const std::string &group,
                        const std::string &name, double v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    owned_[group].distribution(name).sample(v);
}

std::string
MetricsRegistry::snapshotJsonLocked() const
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "fa3c.metrics.v1");
    json.key("groups");
    json.beginObject();
    for (const auto &[name, group] : live_) {
        json.key(name);
        writeGroup(json, *group);
    }
    for (const auto &[name, group] : owned_) {
        json.key(name);
        writeGroup(json, group);
    }
    int retained_idx = 0;
    for (const auto &[name, group] : retained_) {
        // Retained snapshots may collide with each other or with a
        // live name; suffix deterministically.
        json.key(name + "@" + std::to_string(retained_idx++));
        writeGroup(json, group);
    }
    json.endObject();
    json.endObject();
    return os.str();
}

void
MetricsRegistry::addSnapshotHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    snapshotHooks_.push_back(std::move(hook));
}

std::string
MetricsRegistry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &hook : snapshotHooks_)
        hook();
    return snapshotJsonLocked();
}

bool
MetricsRegistry::writeTo(const std::string &path) const
{
    std::lock_guard<std::mutex> write(writeMutex_);
    if (!writeAtomically(path, snapshotJson())) {
        FA3C_WARN("metrics: cannot write '", path, "'");
        return false;
    }
    return true;
}

bool
MetricsRegistry::flushBestEffort() const
{
    std::unique_lock<std::mutex> write(writeMutex_, std::try_to_lock);
    if (!write.owns_lock())
        return false;
    std::string path;
    std::string doc;
    {
        std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock() || exportPath_.empty())
            return false;
        path = exportPath_;
        doc = snapshotJsonLocked();
    }
    return writeAtomically(path, doc);
}

std::size_t
MetricsRegistry::groupCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_.size() + owned_.size() + retained_.size();
}

void
MetricsRegistry::forEachGroup(
    const std::function<void(const std::string &,
                             const sim::StatGroup &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &hook : snapshotHooks_)
        hook();
    for (const auto &[name, group] : live_)
        fn(name, *group);
    for (const auto &[name, group] : owned_)
        fn(name, group);
    int retained_idx = 0;
    for (const auto &[name, group] : retained_)
        fn(name + "@" + std::to_string(retained_idx++), group);
}

void
MetricsRegistry::startPeriodicFlush(double seconds)
{
    stopPeriodicFlush();
    if (seconds <= 0.0)
        return;
    {
        std::lock_guard<std::mutex> lock(flusherMutex_);
        flusherSec_ = seconds;
        flusherStop_ = false;
    }
    flusher_ = std::thread([this] { flusherMain(); });
}

void
MetricsRegistry::stopPeriodicFlush()
{
    {
        std::lock_guard<std::mutex> lock(flusherMutex_);
        flusherStop_ = true;
    }
    flusherCv_.notify_all();
    if (flusher_.joinable())
        flusher_.join();
}

void
MetricsRegistry::flusherMain()
{
    std::unique_lock<std::mutex> lock(flusherMutex_);
    while (!flusherStop_) {
        const auto period = std::chrono::duration<double>(flusherSec_);
        flusherCv_.wait_for(lock, period,
                            [this] { return flusherStop_; });
        if (flusherStop_)
            break;
        std::string path;
        {
            std::lock_guard<std::mutex> reg(mutex_);
            path = exportPath_;
        }
        if (!path.empty()) {
            lock.unlock();
            writeTo(path);
            lock.lock();
        }
    }
}

ScopedMetricsGroup::ScopedMetricsGroup(MetricsRegistry &registry,
                                       const std::string &name,
                                       const sim::StatGroup *group)
{
    if (!registry.enabled())
        return;
    registry_ = &registry;
    name_ = registry.registerGroup(name, group);
}

ScopedMetricsGroup::~ScopedMetricsGroup()
{
    if (registry_)
        registry_->unregisterGroup(name_);
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    static bool configured = [] {
        installPerfExport(registry);
        if (const char *path = std::getenv("FA3C_METRICS_JSON");
            path && *path) {
            registry.setExportPath(expandPathTokens(path));
            registry.setEnabled(true);
            notifyMetricsExportEnabled(registry);
        }
        if (const char *flush = std::getenv("FA3C_METRICS_FLUSH_SEC");
            flush && *flush)
            registry.startPeriodicFlush(std::strtod(flush, nullptr));
        return true;
    }();
    (void)configured;
    return registry;
}

} // namespace fa3c::obs
