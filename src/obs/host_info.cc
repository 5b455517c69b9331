#include "obs/host_info.hh"

#include <fstream>
#include <thread>

#include "sim/kernel_threads.hh"

namespace fa3c::obs {

namespace {

std::string
cpuModelString()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ')
            ++begin;
        // Trim trailing whitespace/CR so the fingerprint is stable
        // across /proc formatting quirks.
        std::size_t end = line.size();
        while (end > begin &&
               (line[end - 1] == ' ' || line[end - 1] == '\r'))
            --end;
        if (end > begin)
            return line.substr(begin, end - begin);
        break;
    }
    return "unknown";
}

HostInfo
probe()
{
    HostInfo info;
    info.cpuModel = cpuModelString();
    info.logicalCores =
        static_cast<int>(std::thread::hardware_concurrency());
    info.kernelThreads = sim::kernelThreadsFromEnv();
    info.fingerprint = info.cpuModel + "/" +
                       std::to_string(info.logicalCores) + "c";
    if (info.kernelThreads > 0) {
        // Appended piecewise: GCC 12 flags "/" + std::string&& with a
        // false-positive -Wrestrict in Release builds.
        info.fingerprint += '/';
        info.fingerprint += std::to_string(info.kernelThreads);
        info.fingerprint += 't';
    }
    return info;
}

} // namespace

const HostInfo &
hostInfo()
{
    static const HostInfo info = probe();
    return info;
}

} // namespace fa3c::obs
