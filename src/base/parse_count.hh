/** @file The strict decimal-count parser behind environment variables
 *  (sim/env_config.hh), command-line flags and JobSpec string seeds. */

#ifndef NUCA_BASE_PARSE_COUNT_HH
#define NUCA_BASE_PARSE_COUNT_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace nuca {

/**
 * Parse @p text as a non-negative decimal count (leading whitespace
 * allowed). @throws std::invalid_argument naming @p name when it is
 * negative, not a number, or past 64 bits.
 */
inline std::uint64_t
parseCount(const std::string &name, const std::string &text)
{
    // strtoull silently wraps negative input ("-1" parses to
    // 2^64-1, which once sent a sweep off to run 18 quintillion
    // mixes) and saturates on overflow; reject both explicitly.
    const char *digits = text.c_str();
    while (std::isspace(static_cast<unsigned char>(*digits)))
        ++digits;
    if (*digits == '-')
        throw std::invalid_argument(name + " must be non-negative: '" +
                                    text + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(digits, &end, 10);
    if (end == digits || *end != '\0')
        throw std::invalid_argument(name + " is not a number: '" +
                                    text + "'");
    if (errno == ERANGE)
        throw std::invalid_argument(name + " overflows 64 bits: '" +
                                    text + "'");
    return parsed;
}

/** parseCount for command-line flag @p flag of program @p prog: a
 *  bad value, or one above @p max, prints "<prog>: <message>" and
 *  exits 2. */
inline std::uint64_t
flagCount(const char *prog, const std::string &flag,
          const std::string &text, std::uint64_t max = UINT64_MAX)
{
    try {
        const std::uint64_t value = parseCount(flag, text);
        if (value <= max)
            return value;
        throw std::invalid_argument(flag + " must be at most " +
                                    std::to_string(max) + ": '" +
                                    text + "'");
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.what());
        std::exit(2);
    }
}

} // namespace nuca

#endif // NUCA_BASE_PARSE_COUNT_HH
