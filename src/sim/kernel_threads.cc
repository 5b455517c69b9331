#include "sim/kernel_threads.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "sim/logging.hh"

namespace fa3c::sim {

int
kernelThreadsFromEnv()
{
    static const int width = [] {
        const char *env = std::getenv("FA3C_KERNEL_THREADS");
        if (!env)
            return 0;
        const long v = std::strtol(env, nullptr, 10);
        if (v < 1)
            return 0;
        // The pool starts width - 1 threads, so a typo must not start
        // thousands of them.
        const int cores = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
        if (v > cores) {
            FA3C_WARN("FA3C_KERNEL_THREADS=", env, " exceeds the ",
                      cores, " hardware threads; using ", cores);
            return cores;
        }
        return static_cast<int>(v);
    }();
    return width;
}

} // namespace fa3c::sim
