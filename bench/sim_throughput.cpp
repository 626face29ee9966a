// sim_throughput — simulation-kernel throughput harness: how many simulated
// instructions per wall-second the simulator itself retires, per system
// scenario. This is the perf trajectory of the *simulator* (host MIPS), not
// of the modeled SoC — the number that bounds how long the figure benches
// and search sweeps take.
//
// Each scenario (vanilla big core, EA-LockStep, nZDC, MEEK with 4 checkers —
// the Fig. 6 system set) runs the same generated workload through the
// sim::executor substrate; workload generation is hoisted into a shared
// cache so the timed region is simulation only. The best of `--repeat` runs
// is reported, machine-readable, one line per scenario:
//
//   sim_throughput: scenario=meek/f2/opt/4 workload=hmmer instructions=536829
//       wall_ms=148.21 mips=3.622 sim_ipc=0.557 verified=1
//
// `--check` is the CI gate for the event-driven low-domain advance, run on
// the selected workload and on mcf (whose checkers sit on the commit
// watermark):
//   * the meek scenario is re-run in exhaustive reference mode
//     (MEEK_LOW_ADVANCE=exhaustive) and the two run_outcomes must match
//     field-for-field — the determinism contract, enforced on every CI run;
//   * event-driven throughput must stay within a guard band of the
//     exhaustive reference (>= 0.85x): the fast path being *slower* than
//     the mode it optimizes signals a hot-path regression.
// Absolute MIPS is deliberately not gated — CI hosts differ; the trajectory
// is tracked via the BENCH_soc.json artifact instead.
//
// Options: --quick (CI size: 60k instructions, 2 reps), --instructions N,
// --workload NAME, --repeat R, --check, --json PATH (default BENCH_soc.json,
// empty string disables the artifact). The artifact carries a host record
// (nproc, CPU model, source commit, UTC date) so committed numbers say where
// they were measured.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "serve/workload_cache.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

using namespace meek;

namespace {

struct bench_line {
    std::string scenario;
    std::string workload;
    u64 instructions = 0;
    double wall_ms = 0.0;
    double mips = 0.0;     // simulated instructions / wall second / 1e6
    double sim_ipc = 0.0;  // modeled IPC, carried for context
    bool verified = false;
};

// One workload's event-driven vs exhaustive gate.
struct mode_check {
    std::string workload;
    double event_mips = 0.0;
    double exhaustive_mips = 0.0;
    bool ok = false;
};

struct timed_outcome {
    sim::run_outcome out;
    double wall_ms = 0.0;
};

timed_outcome run_once(const sim::run_spec& spec) {
    const auto t0 = std::chrono::steady_clock::now();
    timed_outcome r;
    r.out = sim::execute(spec);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

timed_outcome best_of(const sim::run_spec& spec, u32 repeat) {
    timed_outcome best;
    for (u32 i = 0; i < repeat; ++i) {
        timed_outcome r = run_once(spec);
        if (i == 0 || r.wall_ms < best.wall_ms) best = r;
    }
    return best;
}

bench_line to_line(const sim::run_spec& spec, const timed_outcome& t) {
    bench_line l;
    l.scenario = spec.sc.name;
    l.workload = spec.workload.name;
    l.instructions = t.out.instructions;
    l.wall_ms = t.wall_ms;
    l.mips = t.wall_ms > 0.0
                 ? static_cast<double>(t.out.instructions) / (t.wall_ms * 1e3)
                 : 0.0;
    l.sim_ipc = t.out.ipc;
    l.verified = t.out.verified_ok;
    return l;
}

void print_line(const bench_line& l) {
    std::printf(
        "sim_throughput: scenario=%s workload=%s instructions=%llu "
        "wall_ms=%.2f mips=%.3f sim_ipc=%.3f verified=%d\n",
        l.scenario.c_str(), l.workload.c_str(),
        static_cast<unsigned long long>(l.instructions), l.wall_ms, l.mips,
        l.sim_ipc, l.verified ? 1 : 0);
    std::fflush(stdout);
}

// Field-for-field comparison of the two advance modes' outcomes; prints the
// first divergent field so a CI failure names the counter that moved.
bool outcomes_identical(const sim::run_outcome& a, const sim::run_outcome& b) {
    auto diff = [](const char* field, u64 x, u64 y) {
        std::printf("[check] outcome mismatch: %s event=%llu exhaustive=%llu\n",
                    field, static_cast<unsigned long long>(x),
                    static_cast<unsigned long long>(y));
        return false;
    };
    if (a.instructions != b.instructions)
        return diff("instructions", a.instructions, b.instructions);
    if (a.cycles != b.cycles) return diff("cycles", a.cycles, b.cycles);
    if (a.verified_ok != b.verified_ok)
        return diff("verified_ok", a.verified_ok, b.verified_ok);
    if (a.replayed_instructions != b.replayed_instructions)
        return diff("replayed_instructions", a.replayed_instructions,
                    b.replayed_instructions);
    if (a.checker_compute_cycles != b.checker_compute_cycles)
        return diff("checker_compute_cycles", a.checker_compute_cycles,
                    b.checker_compute_cycles);
    if (a.stats.segments_started != b.stats.segments_started)
        return diff("segments_started", a.stats.segments_started,
                    b.stats.segments_started);
    if (a.stats.segments_verified != b.stats.segments_verified)
        return diff("segments_verified", a.stats.segments_verified,
                    b.stats.segments_verified);
    if (a.stats.segments_failed != b.stats.segments_failed)
        return diff("segments_failed", a.stats.segments_failed,
                    b.stats.segments_failed);
    if (a.stats.errors_detected != b.stats.errors_detected)
        return diff("errors_detected", a.stats.errors_detected,
                    b.stats.errors_detected);
    if (a.stats.stall_collecting != b.stats.stall_collecting)
        return diff("stall_collecting", a.stats.stall_collecting,
                    b.stats.stall_collecting);
    if (a.stats.stall_forwarding != b.stats.stall_forwarding)
        return diff("stall_forwarding", a.stats.stall_forwarding,
                    b.stats.stall_forwarding);
    if (a.stats.stall_checker != b.stats.stall_checker)
        return diff("stall_checker", a.stats.stall_checker, b.stats.stall_checker);
    return true;
}

// Scenario/workload names come from the registries ([a-z0-9/_-]) — no JSON
// escaping needed.
void append_json_line(std::string& out, const bench_line& l, bool last) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\":\"%s\",\"workload\":\"%s\","
                  "\"instructions\":%llu,\"wall_ms\":%.2f,\"mips\":%.3f,"
                  "\"sim_ipc\":%.3f,\"verified\":%s}%s\n",
                  l.scenario.c_str(), l.workload.c_str(),
                  static_cast<unsigned long long>(l.instructions), l.wall_ms,
                  l.mips, l.sim_ipc, l.verified ? "true" : "false",
                  last ? "" : ",");
    out += buf;
}

std::string json_escape(const std::string& in) {
    std::string out;
    for (char c : in) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        const std::size_t start =
            colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) return line.substr(start);
    }
    return "unknown";
}

// The source tree's commit, with a "-dirty" suffix when it has uncommitted
// changes; "unknown" outside a git checkout.
std::string source_commit() {
    const std::string cmd = "git -C \"" MEEK_SOURCE_DIR
                            "\" describe --always --dirty --abbrev=40 2>/dev/null";
    std::string out;
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof buf, pipe)) out += buf;
        pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string utc_now() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string host_json() {
    return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"commit\": \"" +
           json_escape(source_commit()) + "\", \"date\": \"" + utc_now() + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
    u64 instructions = 200'000;
    std::string workload = "hmmer";
    u32 repeat = 3;
    bool check = false;
    std::string json_path = "BENCH_soc.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            instructions = 60'000;
            repeat = 2;
        } else if (arg == "--instructions") {
            instructions = std::strtoull(value("--instructions"), nullptr, 10);
        } else if (arg == "--workload") {
            workload = value("--workload");
        } else if (arg == "--repeat") {
            repeat = static_cast<u32>(std::strtoul(value("--repeat"), nullptr, 10));
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--json") {
            json_path = value("--json");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--instructions N] "
                         "[--workload NAME] [--repeat R] [--check] "
                         "[--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    const workload_profile* profile = find_profile(workload);
    if (profile == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    if (instructions == 0 || repeat == 0) {
        std::fprintf(stderr, "nothing to run\n");
        return 2;
    }

    // Shared generation cache: the first execute() per (profile, len, seed)
    // builds the program, the timed repeats replay from the cache.
    serve::workload_cache workloads(8);

    const std::vector<sim::scenario> scenarios = {
        sim::vanilla_scenario(),
        sim::ea_lockstep_scenario(),
        sim::nzdc_scenario(),
        sim::meek_scenario(4),
    };

    std::vector<bench_line> lines;
    sim::run_spec meek_spec;
    for (const sim::scenario& sc : scenarios) {
        sim::run_spec spec;
        spec.sc = sc;
        spec.workload = *profile;
        spec.instructions = instructions;
        spec.workloads = &workloads;
        if (sc.system == sim::system_kind::meek) meek_spec = spec;
        // Warm the workload cache outside the timed region.
        (void)workloads.workload_for(*profile, instructions, spec.workload_seed);
        const timed_outcome best = best_of(spec, repeat);
        if (best.out.skipped) {
            std::printf("sim_throughput: scenario=%s workload=%s skipped=1\n",
                        sc.name.c_str(), profile->name.c_str());
            continue;
        }
        const bench_line l = to_line(spec, best);
        print_line(l);
        lines.push_back(l);
    }

    bool check_ok = true;
    std::vector<mode_check> checks;
    if (check) {
        // The selected workload, plus mcf: its checkers sit on the commit
        // watermark, the case where the lagging checkers replay the most
        // watermark history.
        std::vector<const workload_profile*> check_profiles = {profile};
        if (profile->name != "mcf") check_profiles.push_back(find_profile("mcf"));
        for (const workload_profile* p : check_profiles) {
            sim::run_spec spec = meek_spec;
            spec.workload = *p;
            (void)workloads.workload_for(*p, instructions, spec.workload_seed);
            // Reference mode: same spec, exhaustive per-cycle ticking selected
            // through the same env knob users have (read at SoC construction).
            const timed_outcome ev = best_of(spec, repeat);
            setenv("MEEK_LOW_ADVANCE", "exhaustive", 1);
            const timed_outcome ex = best_of(spec, repeat);
            unsetenv("MEEK_LOW_ADVANCE");

            mode_check mc;
            mc.workload = p->name;
            mc.event_mips = to_line(spec, ev).mips;
            mc.exhaustive_mips = to_line(spec, ex).mips;
            std::printf("sim_throughput_modes: scenario=%s workload=%s event_mips=%.3f "
                        "exhaustive_mips=%.3f ratio=%.2fx\n",
                        spec.sc.name.c_str(), mc.workload.c_str(), mc.event_mips,
                        mc.exhaustive_mips,
                        mc.exhaustive_mips > 0.0 ? mc.event_mips / mc.exhaustive_mips : 0.0);

            const bool identical = outcomes_identical(ev.out, ex.out);
            std::printf("[check] %s: event-driven == exhaustive (field-for-field): %s\n",
                        mc.workload.c_str(), identical ? "OK" : "FAIL");
            // 15% guard band: both modes do the same modeled work; the event
            // path only skips provably-dead ticks, so it can only honestly
            // lose by scheduling noise. A real fast-path regression lands far
            // below.
            const bool fast_enough = mc.event_mips >= 0.85 * mc.exhaustive_mips;
            std::printf("[check] %s: event-driven mips >= 0.85x exhaustive: %s\n",
                        mc.workload.c_str(), fast_enough ? "OK" : "FAIL");
            mc.ok = identical && fast_enough;
            if (!mc.ok) check_ok = false;
            checks.push_back(mc);
        }
    }

    if (!json_path.empty()) {
        std::string doc = "{\n  \"schema\": \"meek.bench.soc.v1\",\n";
        doc += "  \"host\": " + host_json() + ",\n";
        char hdr[256];
        std::snprintf(hdr, sizeof hdr,
                      "  \"workload\": \"%s\",\n  \"instructions\": %llu,\n"
                      "  \"repeat\": %u,\n",
                      workload.c_str(),
                      static_cast<unsigned long long>(instructions), repeat);
        doc += hdr;
        if (check) {
            // The selected workload's gate keeps the flat fields; every gated
            // workload is listed under "workloads".
            char chk[256];
            std::snprintf(chk, sizeof chk,
                          "  \"check\": {\"ok\": %s, \"event_mips\": %.3f, "
                          "\"exhaustive_mips\": %.3f, \"workloads\": [",
                          check_ok ? "true" : "false", checks.front().event_mips,
                          checks.front().exhaustive_mips);
            doc += chk;
            for (std::size_t i = 0; i < checks.size(); ++i) {
                std::snprintf(chk, sizeof chk,
                              "%s{\"workload\": \"%s\", \"ok\": %s, \"event_mips\": %.3f, "
                              "\"exhaustive_mips\": %.3f}",
                              i == 0 ? "" : ", ", checks[i].workload.c_str(),
                              checks[i].ok ? "true" : "false", checks[i].event_mips,
                              checks[i].exhaustive_mips);
                doc += chk;
            }
            doc += "]},\n";
        }
        doc += "  \"scenarios\": [\n";
        for (std::size_t i = 0; i < lines.size(); ++i) {
            append_json_line(doc, lines[i], i + 1 == lines.size());
        }
        doc += "  ]\n}\n";
        std::string err;
        if (!write_file_atomic(json_path, doc, &err)) {
            std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                         err.c_str());
            return 2;
        }
    }
    return check_ok ? 0 : 1;
}
