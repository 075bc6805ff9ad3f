/**
 * @file
 * Strict numeric flag parsing for the example CLIs. The whole token
 * must parse and the value must lie in [lo, hi]; an empty token,
 * trailing characters, a minus on an unsigned flag, overflow or NaN
 * prints "bad <flag> value '<token>'" and exits with status 2, so a
 * typo never runs as 0.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace qec::cli
{

[[noreturn]] inline void
rejectFlag(const char *flag, const char *text, const char *want)
{
    std::fprintf(stderr, "bad %s value '%s' (want %s)\n", flag, text,
                 want);
    std::exit(2);
}

/** True when strtol/strtoull/strtod consumed all of a non-empty,
 *  unpadded token without overflow. */
inline bool
wholeToken(const char *text, const char *end)
{
    return errno != ERANGE && end != text && *end == '\0' &&
           !std::isspace((unsigned char)text[0]);
}

inline long
longFlag(const char *flag, const char *text, long lo, long hi)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (!wholeToken(text, end) || v < lo || v > hi) {
        char want[64];
        std::snprintf(want, sizeof want, "an integer in [%ld, %ld]", lo,
                      hi);
        rejectFlag(flag, text, want);
    }
    return v;
}

inline uint64_t
uint64Flag(const char *flag, const char *text, uint64_t lo = 0)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // strtoull negates a leading '-' instead of rejecting it.
    if (!wholeToken(text, end) || text[0] == '-' || v < lo) {
        char want[64];
        std::snprintf(want, sizeof want, "an unsigned integer >= %llu",
                      (unsigned long long)lo);
        rejectFlag(flag, text, want);
    }
    return v;
}

inline double
doubleFlag(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (!wholeToken(text, end) || !(v >= lo && v <= hi)) {
        char want[64];
        std::snprintf(want, sizeof want, "a number in [%g, %g]", lo, hi);
        rejectFlag(flag, text, want);
    }
    return v;
}

} // namespace qec::cli
