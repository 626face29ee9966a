// Strict parsing of command-line numbers. A flag value is a whole decimal
// number, or a finite decimal real, inside the flag's range — never a prefix
// of one: a sign, a blank, trailing junk ("1x") or an out-of-range value is
// rejected, so a typo fails loudly instead of running with a clamped or
// truncated setting.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/types.h"

namespace meek {

// Whole decimal number in [min, max]; anything else is false.
inline bool parse_count(const std::string& s, u64 min, u64 max, u64* out) {
    if (s.empty() || s[0] < '0' || s[0] > '9') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || v < min || v > max) return false;
    *out = v;
    return true;
}

// Finite decimal real in [min, max] ("0.5", "2", "1e3"); anything else is
// false.
inline bool parse_real(const std::string& s, double min, double max, double* out) {
    if (s.empty() || !(s[0] == '.' || (s[0] >= '0' && s[0] <= '9'))) return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(v) || v < min || v > max) return false;
    *out = v;
    return true;
}

}  // namespace meek
