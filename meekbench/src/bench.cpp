#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace meekbench {

void report::put(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not a finite number");
        value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void report::check(bool ok, std::string_view what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    // Keep the first few explanations; the tally carries the rest.
    if (failures_.size() < 20) failures_.emplace_back(what);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

tail_stat tail(std::vector<double> v) {
    tail_stat t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    for (const double p : {99.0, 95.0, 90.0, 50.0}) {
        // Nearest rank: the value at 1-based rank ceil(p/100 * n).
        const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        const std::size_t beyond = v.size() - rank;
        if (beyond >= 10) {
            t.percentile = p;
            t.value = v[rank - 1];
            t.beyond = beyond;
            return t;
        }
    }
    t.value = v.back();
    return t;
}

double resident_peak_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

double span_ns(const std::vector<meek::obs::span_record>& spans, u64 trace_id,
               std::string_view name) {
    double ns = 0.0;
    for (const meek::obs::span_record& s : spans) {
        if (s.trace_id == trace_id && name == s.name) {
            ns += static_cast<double>(s.end_ns - s.begin_ns);
        }
    }
    return ns;
}

double span_count(const std::vector<meek::obs::span_record>& spans, u64 trace_id,
                  std::string_view name) {
    double n = 0.0;
    for (const meek::obs::span_record& s : spans) {
        if (s.trace_id == trace_id && name == s.name) n += 1.0;
    }
    return n;
}

}  // namespace meekbench
