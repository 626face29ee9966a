// Strict command-line parsing, shared by every tool and bench. A flag value
// is a whole decimal number, or a finite decimal real, inside the flag's
// range — never a prefix of one: a sign, a blank, trailing junk ("1x") or an
// out-of-range value is rejected, so a typo fails loudly instead of running
// with a clamped or truncated setting. `flag_reader` walks argv on top of
// these and exits 2 with a message on a bad value.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

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

// Comma-separated items ("f2,axi"); an empty list or an empty item ("4,,8",
// "4,") is false.
inline bool split_list(const std::string& s, std::vector<std::string>* out) {
    out->clear();
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = s.find(',', start);
        out->push_back(s.substr(start, comma - start));
        if (out->back().empty()) return false;
        if (comma == std::string::npos) return true;
        start = comma + 1;
    }
}

// Comma-separated whole numbers, each in [min, max] ("1,4,16").
inline bool parse_count_list(const std::string& s, u64 min, u64 max,
                             std::vector<u64>* out) {
    std::vector<std::string> items;
    if (!split_list(s, &items)) return false;
    out->clear();
    for (const std::string& item : items) {
        u64 v = 0;
        if (!parse_count(item, min, max, &v)) return false;
        out->push_back(v);
    }
    return true;
}

// Walks argv one flag at a time. A value flag takes the next argument, or
// the text after '=' in --flag=VALUE. The typed readers exit 2 with a
// message on a missing, malformed or out-of-range value.
class flag_reader {
public:
    flag_reader(int argc, char** argv) : argc_(argc), argv_(argv) {}

    // Advance to the next argument; false once argv is exhausted.
    bool next() {
        if (++i_ >= argc_) return false;
        const std::string arg = argv_[i_];
        const std::size_t eq = arg.find('=');
        inline_ = arg.rfind("--", 0) == 0 && eq != std::string::npos;
        name_ = inline_ ? arg.substr(0, eq) : arg;
        value_ = inline_ ? arg.substr(eq + 1) : std::string{};
        return true;
    }

    // The current argument is `flag`, a switch (no value).
    bool is_switch(const char* flag) const { return !inline_ && name_ == flag; }
    // The current argument is `flag`, whose value text()/count()/... read.
    bool is(const char* flag) const { return name_ == flag; }

    std::string text() {
        if (inline_) return value_;
        if (i_ + 1 >= argc_) {
            std::fprintf(stderr, "%s requires a value\n", name_.c_str());
            std::exit(2);
        }
        return argv_[++i_];
    }
    u64 count(u64 min, u64 max = std::numeric_limits<u64>::max()) {
        const std::string v = text();
        u64 n = 0;
        if (!parse_count(v, min, max, &n)) fail(v, "a whole number" + in(min, max));
        return n;
    }
    std::vector<u64> count_list(u64 min, u64 max = std::numeric_limits<u64>::max()) {
        const std::string v = text();
        std::vector<u64> list;
        if (!parse_count_list(v, min, max, &list)) {
            fail(v, "a comma-separated list of whole numbers" + in(min, max));
        }
        return list;
    }
    double real(double min, double max) {
        const std::string v = text();
        double x = 0.0;
        if (!parse_real(v, min, max, &x)) {
            char range[64];
            std::snprintf(range, sizeof range, " in [%g, %g]", min, max);
            fail(v, std::string("a number") + range);
        }
        return x;
    }

    // Reject the current flag's `value`, saying what it should be; exits 2.
    [[noreturn]] void fail(const std::string& value, const std::string& want) const {
        std::fprintf(stderr, "%s: '%s' is not %s\n", name_.c_str(), value.c_str(),
                     want.c_str());
        std::exit(2);
    }

private:
    static std::string in(u64 min, u64 max) {
        return " in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    }

    int argc_;
    char** argv_;
    int i_ = 0;
    bool inline_ = false;
    std::string name_;
    std::string value_;
};

}  // namespace meek
