/**
 * @file
 * Strict parsing of the examples' numeric command-line values: a
 * typo such as "4k" or "-1" is refused instead of silently read as 4
 * or 2^64 - 1.
 */

#ifndef FA3C_EXAMPLES_CLI_HH
#define FA3C_EXAMPLES_CLI_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

namespace fa3c::cli {

/**
 * Parse @p text as a decimal count in [@p lo, @p hi].
 *
 * @return nullopt on anything but digits (a sign, a blank or trailing
 *         text), on overflow, or outside the range.
 */
inline std::optional<std::uint64_t>
parseCount(const char *text, std::uint64_t lo = 0,
           std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
{
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return std::nullopt;
    return v;
}

} // namespace fa3c::cli

#endif // FA3C_EXAMPLES_CLI_HH
