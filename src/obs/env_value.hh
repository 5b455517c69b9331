/**
 * @file
 * Strict parsing of the numeric runtime values the observability
 * layer reads from the environment (FA3C_TELEMETRY_PORT,
 * FA3C_SLO_WINDOW_SEC, FA3C_SLO_MISS_BUDGET, FA3C_TRACE_SAMPLE).
 */

#ifndef FA3C_OBS_ENV_VALUE_HH
#define FA3C_OBS_ENV_VALUE_HH

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

#include "sim/logging.hh"

namespace fa3c::obs {

/**
 * @p text, the value of environment variable @p name, when all of it
 * is one finite @p T in [lo, hi]. Anything else (`nan`, `inf`, `abc`,
 * `80x`, out of range) warns and returns nullopt, so the reader keeps
 * its default instead of running on a mangled value.
 */
template <typename T>
std::optional<T>
parseEnvValue(const char *name, std::string_view text, T lo, T hi)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, v);
    bool ok = res.ec == std::errc{} && res.ptr == end && v >= lo &&
              v <= hi;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v);
    if (ok)
        return v;
    FA3C_WARN(name, "='", text, "' is not a ",
              std::is_floating_point_v<T> ? "finite" : "whole",
              " number in [", lo, ", ", hi, "]; ignored");
    return std::nullopt;
}

} // namespace fa3c::obs

#endif // FA3C_OBS_ENV_VALUE_HH
