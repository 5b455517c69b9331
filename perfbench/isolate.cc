/**
 * @file
 * Runs each round in a forked child process, so every round starts
 * from the same process state (heap, threads, allocator caches) and
 * its peak resident set is its own.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "bench.hh"

namespace perfbench {
namespace {

/** Byte image of a RoundResult; both ends are the same binary. */
class Writer
{
  public:
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes_.append(reinterpret_cast<const char *>(&v), sizeof v);
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        pod(v.size());
        bytes_.append(reinterpret_cast<const char *>(v.data()),
                      v.size() * sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod(s.size());
        bytes_.append(s);
    }

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

class Reader
{
  public:
    explicit Reader(const std::string &bytes) : bytes_(bytes) {}

    template <typename T>
    bool
    pod(T &v)
    {
        if (bytes_.size() - off_ < sizeof v)
            return false;
        std::memcpy(&v, bytes_.data() + off_, sizeof v);
        off_ += sizeof v;
        return true;
    }

    template <typename T>
    bool
    vec(std::vector<T> &v)
    {
        std::size_t n = 0;
        if (!pod(n) || (bytes_.size() - off_) / sizeof(T) < n)
            return false;
        v.resize(n);
        std::memcpy(v.data(), bytes_.data() + off_, n * sizeof(T));
        off_ += n * sizeof(T);
        return true;
    }

    bool
    str(std::string &s)
    {
        std::size_t n = 0;
        if (!pod(n) || bytes_.size() - off_ < n)
            return false;
        s.assign(bytes_, off_, n);
        off_ += n;
        return true;
    }

    bool done() const { return off_ == bytes_.size(); }

  private:
    const std::string &bytes_;
    std::size_t off_ = 0;
};

std::string
encode(const RoundResult &r)
{
    Writer w;
    w.pod(r.traced);
    w.pod(r.setupS);
    w.pod(r.work);
    w.pod(r.measureS);
    w.vec(r.latMs);
    w.pod(r.attempted);
    w.pod(r.failed);
    w.pod(r.errors.size());
    for (const std::string &e : r.errors)
        w.str(e);
    w.pod(r.usageStart);
    w.pod(r.usageEnd);
    w.pod(r.peakRssMb);
    w.pod(r.buffers.size());
    for (const SpanBuffer &b : r.buffers) {
        w.str(b.track);
        w.vec(b.spans);
    }
    w.pod(r.windowStart);
    w.pod(r.windowEnd);
    w.pod(r.psPushes);
    w.pod(r.psRejects);
    w.pod(r.psReaped);
    w.pod(r.psSteps);
    w.pod(r.paramCount);
    return w.bytes();
}

bool
decode(const std::string &bytes, RoundResult &r)
{
    Reader rd(bytes);
    std::size_t n = 0;
    if (!rd.pod(r.traced) || !rd.pod(r.setupS) || !rd.pod(r.work) ||
        !rd.pod(r.measureS) || !rd.vec(r.latMs) || !rd.pod(r.attempted) ||
        !rd.pod(r.failed) || !rd.pod(n))
        return false;
    r.errors.resize(n);
    for (std::string &e : r.errors)
        if (!rd.str(e))
            return false;
    if (!rd.pod(r.usageStart) || !rd.pod(r.usageEnd) ||
        !rd.pod(r.peakRssMb) || !rd.pod(n))
        return false;
    r.buffers.resize(n);
    for (SpanBuffer &b : r.buffers)
        if (!rd.str(b.track) || !rd.vec(b.spans))
            return false;
    return rd.pod(r.windowStart) && rd.pod(r.windowEnd) &&
           rd.pod(r.psPushes) && rd.pod(r.psRejects) &&
           rd.pod(r.psReaped) && rd.pod(r.psSteps) &&
           rd.pod(r.paramCount) && rd.done();
}

bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Peak RSS of this process, MB. A forked round starts from the parent's
 * pages and its peak, and the parent never runs a round, so the value
 * is the round's own peak.
 */
double
peakRssMb()
{
    double kib = 0.0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lf", &kib) == 1)
                break;
        std::fclose(f);
    }
    return kib / 1024.0;
}

/** Steal and total jiffies of all CPUs so far; zeros if unreadable. */
std::pair<double, double>
stealAndTotal()
{
    unsigned long long v[8] = {};
    if (std::FILE *f = std::fopen("/proc/stat", "r")) {
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]) != 8)
            std::fill(std::begin(v), std::end(v), 0ULL);
        std::fclose(f);
    }
    double total = 0.0;
    for (unsigned long long x : v)
        total += static_cast<double>(x);
    return {static_cast<double>(v[7]), total};
}

RoundResult
failedRound(const RoundInputs &in, std::string why)
{
    RoundResult r;
    r.traced = in.traced;
    r.errors.push_back(std::move(why));
    return r;
}

} // namespace

RoundResult
runIsolated(Workload &workload, const RoundInputs &in)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return failedRound(in, "pipe: " + std::string(std::strerror(errno)));
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return failedRound(in, "fork: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
        // The child dies with the run, so a killed run leaves no
        // round behind.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::close(fds[0]);
        RoundResult r = workload.runRound(in);
        r.peakRssMb = peakRssMb();
        const bool ok = writeAll(fds[1], encode(r));
        ::_exit(ok ? 0 : 1);
    }
    const auto before = stealAndTotal();
    ::close(fds[1]);
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const auto after = stealAndTotal();
    RoundResult r;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return failedRound(in, "round process ended with status " +
                                   std::to_string(status));
    if (!decode(bytes, r))
        return failedRound(in, "round process sent a truncated result");
    if (after.second > before.second)
        r.stealShare =
            (after.first - before.first) / (after.second - before.second);
    return r;
}

} // namespace perfbench
