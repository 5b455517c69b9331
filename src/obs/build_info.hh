/**
 * @file
 * Runtime build/deployment identity: the configure-time constants
 * from the generated version header (git sha, build type, compiler,
 * kernel ISA flags) plus the one piece only known at runtime — which
 * inference backend is actually serving. Rendered as the /buildz
 * telemetry payload so an operator can tell *what* is running from
 * the same port that tells them *how* it is running.
 */

#ifndef FA3C_OBS_BUILD_INFO_HH
#define FA3C_OBS_BUILD_INFO_HH

#include <string>
#include <string_view>

namespace fa3c::obs {

/** Record the backend kind serving requests ("fast_cpu", "golden",
 * ...). Thread-safe; the last writer wins. */
void setActiveBackend(std::string_view kind);

/** The last value passed to setActiveBackend(); "unset" initially. */
std::string activeBackend();

/** One JSON object: schema, git sha, build type, compiler, active
 * backend. */
std::string buildInfoJson();

} // namespace fa3c::obs

#endif // FA3C_OBS_BUILD_INFO_HH
