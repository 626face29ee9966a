// Shared plumbing of the meekbench harness: run options, the report every
// phase writes into (metrics and the correctness gate), order statistics
// and the benchmark's own trace spans.
//
// A run always executes the three phases (kernel, campaign, serve), so every
// end-to-end metric is printed on every workload. The workload named on the
// command line owns the run: its phase gets 60% of the measured time and the
// once-per-run checks, the other two 20% each, and the owner's values are the
// ones to read. Modelled numbers never depend on which phase owns the run.
// Rounds of the three phases are interleaved over the whole measured window.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "common/types.h"
#include "obs/trace.h"

namespace meekbench {

using meek::u32;
using meek::u64;
using clock_type = std::chrono::steady_clock;

// Work sizes: the defaults are the benchmark, `tiny` the self-test size.
struct sizes {
    u64 kernel_instructions = 1'000'000;  // generator target per program
    u32 campaign_faults = 400;            // per campaign: 8 shards of 50
    u32 campaign_programs = 4;            // programs per profile, one campaign each
    u32 serve_requests = 1008;            // per round (fresh service), 42 x 24
    u32 setup_repeats = 15;
    u32 layer_repeats = 3;                // owner repetitions of layer timings

    static sizes tiny() { return {40'000, 20, 1, 48, 2, 1}; }
};

// Deliberate corruption of one expected value, so the self-test can prove
// the gate rejects a wrong answer.
enum class break_kind { none, row, state };

struct options {
    std::string workload;  // kernel | campaign | serve
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    break_kind broken = break_kind::none;
    std::string commit = "unknown";
    std::string out_dir = ".";
    sizes size;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// What one run produced: metrics and the correctness gate's tally.
class report {
public:
    void put(std::string name, double value, std::string unit);
    // One gated operation; a false `ok` counts as failed and is explained.
    void check(bool ok, std::string_view what);

    const std::vector<metric>& metrics() const { return metrics_; }
    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }
    const std::vector<std::string>& failures() const { return failures_; }

private:
    std::vector<metric> metrics_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
    std::vector<std::string> failures_;
};

inline double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v);

// The highest of {50, 90, 95, 99} with at least ten samples beyond it
// (nearest rank); falls back to the maximum below 20 samples. The ladder
// stops at p99 so that a full-size run, which always has 1000+ samples,
// reports the same percentile however many rounds fit in its time.
struct tail_stat {
    double percentile = 100.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};
tail_stat tail(std::vector<double> v);

// The process's resident-memory high-water mark so far, in MB. Phases read
// it after their first round; the owner phase runs first, so its reading is
// set-up plus one round of the owner, with no other phase's memory in it.
double resident_peak_mb();

// --- Benchmark spans (recorded only while the tracer is enabled) ----------
//
// Each phase item (program, profile, request) gets its own trace, minted from
// (phase, item); spans are named after the layer they wrap.
enum phase_id : u64 { phase_kernel = 1, phase_campaign = 2, phase_serve = 1000 };

inline meek::obs::trace_context root_context(u64 phase, u64 item) {
    return {meek::obs::mint_trace_id(phase, item), 0};
}

// Sum of the durations (ns) of spans named `name` in trace `trace_id`.
double span_ns(const std::vector<meek::obs::span_record>& spans, u64 trace_id,
               std::string_view name);
double span_count(const std::vector<meek::obs::span_record>& spans, u64 trace_id,
                  std::string_view name);

}  // namespace meekbench
