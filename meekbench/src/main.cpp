// meekbench — the repository benchmark: kernel, campaign and serve workloads
// against the simulator's public API, with a correctness gate.
//
//   meekbench --workload kernel|campaign|serve --seed N --seconds S --trace 0|1
//             [--tiny] [--break row|state] [--commit SHA] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// records benchmark spans around every layer call through the obs::trace
// journal, exports them (Chrome trace JSON, accepted by trace_check) and
// prints the per-layer metrics plus the tracing overhead. The last stdout
// line is one JSON object: {"correct","attempted","failed","metrics"}.
// Every run appends its result and host record to DIR/results.ndjson and
// checks its modelled digest against DIR/modelled-seed<N>.txt, so modelled
// numbers must repeat exactly across runs of one build. Exit status is 0 only
// when every gated operation passed.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/atomic_file.h"
#include "phases.h"

#ifndef MEEKBENCH_BUILD_TYPE
#define MEEKBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MEEKBENCH_COMPILER
#define MEEKBENCH_COMPILER "unknown"
#endif
#ifndef MEEKBENCH_FLAGS
#define MEEKBENCH_FLAGS ""
#endif

namespace meekbench {
namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload kernel|campaign|serve --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--break row|state] [--commit SHA] "
                 "[--out-dir DIR]\n",
                 argv0);
    return 2;
}

bool parse_args(int argc, char** argv, options& o) {
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            o.tiny = true;
            o.size = sizes::tiny();
        } else if (!has_value) {
            return false;
        } else if (a == "--workload") {
            o.workload = argv[++i];
            have_workload = o.workload == "kernel" || o.workload == "campaign" ||
                            o.workload == "serve";
        } else if (a == "--seed") {
            char* end = nullptr;
            o.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0') return false;
        } else if (a == "--seconds") {
            char* end = nullptr;
            o.seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0) return false;
        } else if (a == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") return false;
            o.trace = v == "1";
        } else if (a == "--break") {
            const std::string v = argv[++i];
            if (v == "row") {
                o.broken = break_kind::row;
            } else if (v == "state") {
                o.broken = break_kind::state;
            } else {
                return false;
            }
        } else if (a == "--commit") {
            o.commit = argv[++i];
        } else if (a == "--out-dir") {
            o.out_dir = argv[++i];
        } else {
            return false;
        }
    }
    return have_workload;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
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

std::string utc_now() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

std::string host_json(const options& o) {
    std::ostringstream s;
    s << "{\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu\":\""
      << json_escape(cpu_model()) << "\",\"compiler\":\"" << json_escape(MEEKBENCH_COMPILER)
      << "\",\"flags\":\"" << json_escape(MEEKBENCH_FLAGS) << "\",\"build_type\":\""
      << MEEKBENCH_BUILD_TYPE << "\",\"commit\":\"" << json_escape(o.commit)
      << "\",\"date\":\"" << utc_now() << "\"}";
    return s.str();
}

std::string result_json(const report& rep) {
    std::ostringstream s;
    s << "{\"correct\": " << (rep.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << rep.attempted() << ", \"failed\": " << rep.failed()
      << ", \"metrics\": {";
    bool first = true;
    for (const metric& m : rep.metrics()) {
        s << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << number(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    s << "}}";
    return s.str();
}

// Content hash of the running executable: modelled results recorded by one
// build are only compared against runs of the same build.
u64 executable_hash() {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    meek::fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    return h.h;
}

// Modelled numbers must repeat exactly: the first run of a seed with this
// build records its digest, every later run must reproduce it.
void check_modelled_record(const options& o, u64 digest, report& rep) {
    const std::string path = o.out_dir + "/modelled-seed" + std::to_string(o.seed) +
                             (o.tiny ? "-tiny" : "") + ".txt";
    const u64 exe = executable_hash();
    unsigned long long recorded_exe = 0, recorded_digest = 0;
    std::ifstream in(path);
    const bool have = static_cast<bool>(in >> std::hex >> recorded_exe >> recorded_digest);
    if (have && recorded_exe == exe) {
        rep.check(recorded_digest == digest,
                  "modelled digest differs from an earlier run of this seed and build");
        return;
    }
    if (o.broken != break_kind::none) return;  // never record a deliberately wrong answer
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx %016llx\n", static_cast<unsigned long long>(exe),
                  static_cast<unsigned long long>(digest));
    meek::write_file_atomic(path, buf);
}

struct phases {
    std::unique_ptr<kernel_phase> kernel;
    std::unique_ptr<campaign_phase> campaign;
    std::unique_ptr<serve_phase> serve;
    std::array<phase*, 3> all() const { return {kernel.get(), campaign.get(), serve.get()}; }
    double generate_ms() const {
        return kernel->generate_ms() + campaign->generate_ms() + serve->generate_ms();
    }
};

// Set-up is generation plus construction; it is repeated and the median
// reported, so work moved into set-up shows without one slow repetition
// deciding the number.
phases set_up(const options& o, double* setup_s, double* generate_ms) {
    std::vector<double> times, gen;
    phases kept;
    for (u32 k = 0; k < o.size.setup_repeats; ++k) {
        const auto t0 = clock_type::now();
        phases p;
        p.kernel = std::make_unique<kernel_phase>(o);
        p.campaign = std::make_unique<campaign_phase>(o);
        p.serve = std::make_unique<serve_phase>(o);
        times.push_back(seconds_since(t0));
        gen.push_back(p.generate_ms());
        kept = std::move(p);  // the previous set's teardown is not timed
    }
    *setup_s = median(times);
    *generate_ms = median(gen);
    return kept;
}

// Runs rounds of all three phases for `seconds`, each phase getting its
// share of the time (owner 60%, others 20%): the next round always goes to
// the phase furthest behind its share. Interleaving spreads every phase's
// rounds over the whole window, so a burst of contention from other tenants
// of the host touches a few rounds of each phase rather than every round of
// one. The owner's first round runs first, so its resident peak owes nothing
// to the other phases, and every phase runs at least two rounds.
void run_rounds(const std::array<phase*, 3>& ph, int owner, double seconds, report& rep,
                bool traced) {
    double share[3], used[3] = {0, 0, 0};
    u32 rounds[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) share[i] = i == owner ? 0.6 : 0.2;
    const auto until = clock_type::now() + std::chrono::duration_cast<clock_type::duration>(
                                               std::chrono::duration<double>(seconds));
    for (int next = owner;; next = -1) {
        if (next < 0) {
            for (int i = 0; i < 3 && next < 0; ++i) {
                if (rounds[i] < 2) next = i;
            }
        }
        if (next < 0) {
            if (clock_type::now() >= until) break;
            next = 0;
            for (int i = 1; i < 3; ++i) {
                if (used[i] / share[i] < used[next] / share[next]) next = i;
            }
        }
        const auto t0 = clock_type::now();
        ph[next]->round(rep, traced);
        used[next] += seconds_since(t0);
        ++rounds[next];
    }
}

int run(const options& o) {
    meek::obs::tracer& tracer = meek::obs::tracer::instance();
    if (o.trace) tracer.set_ring_capacity(1u << 16);

    double setup_s = 0.0, generate_ms = 0.0;
    phases ph = set_up(o, &setup_s, &generate_ms);
    report rep;

    const char* names[3] = {"kernel", "campaign", "serve"};
    const int owner = o.workload == "kernel" ? 0 : o.workload == "campaign" ? 1 : 2;
    const auto start = clock_type::now();
    double untraced[3] = {0, 0, 0}, traced[3] = {0, 0, 0};
    if (!o.trace) {
        run_rounds(ph.all(), owner, o.seconds, rep, false);
    } else {
        // Half the time untraced, half traced; the throughput ratio of the
        // two halves is the tracing overhead.
        run_rounds(ph.all(), owner, o.seconds / 2, rep, false);
        for (int i = 0; i < 3; ++i) {
            untraced[i] = ph.all()[i]->throughput();
            ph.all()[i]->clear();
        }
        tracer.enable();
        run_rounds(ph.all(), owner, o.seconds / 2, rep, true);
        for (int i = 0; i < 3; ++i) traced[i] = ph.all()[i]->throughput();
        for (phase* p : ph.all()) p->trace_layers();
        tracer.disable();
    }
    std::fprintf(stderr, "# measured %.1f s (%s owns the run)\n", seconds_since(start),
                 names[owner]);

    ph.kernel->check_reference(rep);
    ph.campaign->check_program_lengths(rep);
    if (owner == 1) ph.campaign->check_worker_invariance(rep);
    meek::fnv1a digest;
    for (const phase* p : ph.all()) digest.u(p->modelled_digest());
    std::fprintf(stderr, "# modelled digest %016llx\n",
                 static_cast<unsigned long long>(digest.h));
    check_modelled_record(o, digest.h, rep);

    if (!o.trace) {
        for (const phase* p : ph.all()) p->emit(rep);
        rep.put("setup_s", setup_s, "s");
        rep.put("peak_rss_mb", ph.all()[owner]->peak_rss_mb(), "MB");
    } else {
        std::vector<meek::obs::span_record> spans = tracer.drain();
        const std::string violation = meek::obs::validate_span_nesting(spans);
        rep.check(violation.empty(), "trace export: " + violation);
        const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".json";
        rep.check(meek::write_file_atomic(
                      path, meek::obs::chrome_trace_json(spans, tracer.spans_dropped())),
                  "trace export: cannot write " + path);
        std::fprintf(stderr, "# trace: %zu spans (%llu dropped) -> %s\n", spans.size(),
                     static_cast<unsigned long long>(tracer.spans_dropped()), path.c_str());
        rep.put("workloads.generate_ms", generate_ms, "ms");
        for (const phase* p : ph.all()) p->layer_metrics(spans, rep);
        // Tracing overhead: throughput lost with spans on, per phase.
        for (int i = 0; i < 3; ++i) {
            rep.put(std::string("trace.overhead_pct.") + names[i],
                    100.0 * (untraced[i] / traced[i] - 1.0), "%");
        }
    }

    for (const std::string& f : rep.failures()) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    const std::string result = result_json(rep);
    const std::string host = host_json(o);
    std::printf("host: %s\n", host.c_str());
    {
        std::ofstream log(o.out_dir + "/results.ndjson", std::ios::app);
        log << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
            << ",\"seconds\":" << number(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
            << ",\"tiny\":" << (o.tiny ? 1 : 0) << ",\"host\":" << host
            << ",\"result\":" << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return rep.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace meekbench

int main(int argc, char** argv) {
    meekbench::options o;
    if (!meekbench::parse_args(argc, argv, o)) return meekbench::usage(argv[0]);
    if (std::strcmp(MEEKBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "meekbench: refusing to record numbers from a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     MEEKBENCH_BUILD_TYPE);
        return 3;
    }
    return meekbench::run(o);
}
