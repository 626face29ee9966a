// serve_bench — client-side driver for the evaluation service: builds a
// mixed request batch (several scenarios over several workload profiles),
// pushes it through an in-process serve::service, and reports end-to-end
// request throughput, simulated-instruction throughput, workload-cache hit
// rate, and per-job wall-time skew.
//
// The service is driven through its real wire interface (serialized NDJSON
// in, parsed NDJSON out), so the measured path includes protocol encode +
// decode, not just the simulator.
//
// Options:
//   --requests N       total requests in the batch (default 100)
//   --instructions N   dynamic length per evaluation (default 20000)
//   --threads N        worker threads, 0..1024 (default 0: MEEK_THREADS /
//                      hardware)
//   --seed N           workload seed the batch shares (default 7); also
//                      drives the load-gen arrival schedule
//
// Load-generator mode (open-loop QPS sweep over the same request mix, as a
// virtual-time queue simulation over the deterministic per-template service
// times, so its output is byte-identical run to run):
//   --load-gen         run the sweep instead of the single-batch bench
//   --qps A,B,...      arrival rates to sweep (default 1000)
//   --load-requests N  arrivals per QPS point (default 200)
//   --stats-json PATH  write the sweep's observability snapshot (per-QPS
//                      latency histograms + the service's own stats) as one
//                      meek.stats.v1 JSON line, atomically (temp + rename)
//   --slo SPEC         evaluate SPEC (e.g. "p99<=250us,error_rate<=0.1%")
//                      at every QPS point over sliding arrival-time
//                      windows of the latency stream, so a bad
//                      tail window cannot hide behind a good start — print
//                      one serve_bench_slo: report per point, attach the
//                      worst point's verdict to --stats-json, and exit 1
//                      when any point violates
//   --trace-json PATH  enable request tracing and export the span journal
//                      as Chrome trace-event JSON after the run
//   --trace-clock MODE trace timestamps: wall (default) or virtual
//   --admission        overload sweeps: bound the load-gen queue so arrivals
//                      past the cap are shed instead of served (the
//                      deterministic open_loop_admission queue-depth
//                      model). Latency percentiles and --slo cover admitted
//                      requests only — that is the point of shedding.
//   --max-inflight N   the admission cap (default 64); implies --admission
//
// A value flag also takes the --flag=VALUE form. Numbers must be whole
// decimal numbers in range (--requests, --instructions, --load-requests,
// --max-inflight and every --qps value >= 1), or the tool exits 2; so does
// an unknown flag.
//
// Each QPS point prints one line:
//   serve_bench_lat: mode=virtual qps=.. requests=.. servers=..
//                    completed=.. shed=.. p50_ns=.. p90_ns=.. p99_ns=..
//                    p999_ns=.. mean_ns=.. max_ns=..
// Every field is an exact u64, so the whole line is stable across runs at a
// fixed (seed, qps, requests, threads). `completed` counts admitted-and-served
// arrivals; completed + shed == requests.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/atomic_file.h"
#include "common/cli.h"
#include "obs/loadgen.h"
#include "obs/slo.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/service.h"

using namespace meek;

namespace {

// Sliding windows per QPS point for the --slo evaluation: enough to expose
// a degrading tail, few enough that each window keeps a useful sample count
// at the default --load-requests.
constexpr u32 k_slo_windows = 8;

int run_load_gen(serve::service& svc, const std::vector<std::string>& mix_lines,
                 const std::vector<u64>& qps_points, u64 load_requests, u64 seed,
                 u64 admission_queue,
                 const std::string& stats_json_path, const obs::slo_spec* slo) {
    // Resolve every template once through the real wire path: the outcome's
    // cycle count (1 cycle == 1 ns) is the deterministic service time the
    // virtual-time queue runs on.
    std::vector<u64> service_ns(mix_lines.size(), 0);
    for (const serve::response_row& row : svc.evaluate(mix_lines)) {
        if (!row.error.empty()) {
            std::fprintf(stderr, "load-gen template %llu failed: %s\n",
                         static_cast<unsigned long long>(row.request_index),
                         row.error.c_str());
            return 1;
        }
        service_ns[row.request_index] = static_cast<u64>(row.outcome.cycles);
    }

    const u32 servers = svc.pool().num_threads();
    obs::metrics_snapshot loadgen_snap;
    obs::slo_report worst_slo;
    bool any_slo = false;
    u64 total_shed = 0;

    for (const u64 qps : qps_points) {
        const obs::arrival_schedule_config cfg{.qps = qps,
                                               .requests = load_requests,
                                               .seed = seed,
                                               .mix_size = mix_lines.size(),
                                               .jitter = true};
        const std::vector<obs::arrival> arrivals = obs::build_arrival_schedule(cfg);

        const obs::open_loop_result res = obs::simulate_open_loop(
            arrivals, service_ns, servers, slo != nullptr ? k_slo_windows : 0,
            obs::open_loop_admission{.max_queue = admission_queue});
        const obs::log_histogram& lat = res.latency_ns;

        std::printf(
            "serve_bench_lat: mode=virtual qps=%llu requests=%llu servers=%u "
            "completed=%llu shed=%llu p50_ns=%llu p90_ns=%llu p99_ns=%llu "
            "p999_ns=%llu mean_ns=%llu max_ns=%llu\n",
            static_cast<unsigned long long>(qps),
            static_cast<unsigned long long>(load_requests), servers,
            static_cast<unsigned long long>(res.completed),
            static_cast<unsigned long long>(res.shed),
            static_cast<unsigned long long>(lat.p50()),
            static_cast<unsigned long long>(lat.p90()),
            static_cast<unsigned long long>(lat.p99()),
            static_cast<unsigned long long>(lat.p999()),
            static_cast<unsigned long long>(lat.count() ? lat.sum() / lat.count()
                                                       : 0),
            static_cast<unsigned long long>(lat.count() ? lat.max() : 0));
        loadgen_snap.add_histogram("loadgen.q" + std::to_string(qps) + ".latency_ns",
                                   lat);
        loadgen_snap.set_counter("loadgen.q" + std::to_string(qps) + ".shed", res.shed);
        total_shed += res.shed;

        if (slo != nullptr) {
            // Any bad arrival-time window violates.
            const obs::slo_report report = obs::evaluate_slo_windows(
                *slo, res.window_latency, /*errors=*/0, res.completed);
            const std::string prefix =
                "serve_bench_slo: qps=" + std::to_string(qps) + " ";
            std::fputs(obs::format_slo_report(report, prefix).c_str(), stdout);
            if (!any_slo || (report.violated && !worst_slo.violated) ||
                (report.violated == worst_slo.violated &&
                 report.max_burn_rate > worst_slo.max_burn_rate)) {
                worst_slo = report;
            }
            any_slo = true;
        }
    }

    if (!stats_json_path.empty()) {
        obs::metrics_snapshot snap = svc.stats_snapshot();
        for (const obs::histogram_entry& h : loadgen_snap.histograms) {
            snap.add_histogram(h.name, h.hist);
        }
        snap.set_gauge("loadgen.servers", servers);
        snap.set_counter("loadgen.requests_per_point", load_requests);
        snap.set_counter("admission.shed", total_shed);
        if (admission_queue > 0) {
            snap.set_gauge("admission.max_queue", admission_queue);
        }
        std::string error;
        const std::string doc =
            obs::stats_json(snap, any_slo ? &worst_slo : nullptr) + "\n";
        if (!write_file_atomic(stats_json_path, doc, &error)) {
            std::fprintf(stderr, "cannot write --stats-json '%s': %s\n",
                         stats_json_path.c_str(), error.c_str());
            return 1;
        }
    }
    return any_slo && worst_slo.violated ? 1 : 0;
}

// Drain the tracer and write the catapult export; shared by both modes.
int export_trace_json(const std::string& path) {
    if (path.empty()) return 0;
    obs::tracer& tr = obs::tracer::instance();
    const std::string doc = obs::chrome_trace_json(tr.drain(), tr.spans_dropped());
    std::string error;
    if (!write_file_atomic(path, doc, &error)) {
        std::fprintf(stderr, "cannot write --trace-json '%s': %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    u64 num_requests = 100;
    u64 instructions = 20'000;
    u64 seed = 7;
    serve::service_options opts;
    bool load_gen = false;
    bool admission = false;
    u64 max_inflight = 64;
    u64 load_requests = 200;
    std::vector<u64> qps_points = {1000};
    std::string stats_json_path;
    std::string trace_json_path;
    std::string slo_text;
    obs::trace_clock_mode trace_clock = obs::trace_clock_mode::wall;

    flag_reader args(argc, argv);
    while (args.next()) {
        if (args.is("--requests")) {
            num_requests = args.count(1);
        } else if (args.is("--instructions")) {
            instructions = args.count(1);
        } else if (args.is("--threads")) {
            opts.threads = static_cast<u32>(args.count(0, 1024));
        } else if (args.is("--seed")) {
            seed = args.count(0);
        } else if (args.is_switch("--load-gen")) {
            load_gen = true;
        } else if (args.is_switch("--admission")) {
            admission = true;
        } else if (args.is("--max-inflight")) {
            max_inflight = args.count(1);
            admission = true;
        } else if (args.is("--load-requests")) {
            load_requests = args.count(1);
        } else if (args.is("--qps")) {
            qps_points = args.count_list(1);
        } else if (args.is("--stats-json")) {
            stats_json_path = args.text();
        } else if (args.is("--trace-json")) {
            trace_json_path = args.text();
        } else if (args.is("--trace-clock")) {
            const std::string mode = args.text();
            if (mode == "wall") {
                trace_clock = obs::trace_clock_mode::wall;
            } else if (mode == "virtual") {
                trace_clock = obs::trace_clock_mode::virtual_;
            } else {
                args.fail(mode, "wall or virtual");
            }
        } else if (args.is("--slo")) {
            slo_text = args.text();
        } else {
            std::fprintf(stderr,
                         "usage: %s [--requests N] [--instructions N] [--threads N] "
                         "[--seed N] [--load-gen] [--qps A,B,...] "
                         "[--load-requests N] [--admission] "
                         "[--max-inflight N] [--stats-json PATH] "
                         "[--slo SPEC] [--trace-json PATH] "
                         "[--trace-clock wall|virtual]\n",
                         argv[0]);
            return 2;
        }
    }

    obs::slo_spec slo;
    if (!slo_text.empty()) {
        std::string error;
        if (!obs::parse_slo_spec(slo_text, &slo, &error)) {
            std::fprintf(stderr, "bad --slo spec: %s\n", error.c_str());
            return 2;
        }
    }
    if (!trace_json_path.empty()) obs::tracer::instance().enable(trace_clock);

    // The mixed batch: vanilla + an EA-LockStep point + four MEEK configs,
    // round-robined over profiles that stress different parts of the model
    // (integer, pointer-chasing, FP, divider-heavy).
    const std::vector<std::string> scenarios = {
        "vanilla",        "meek/f2/opt/4", "meek/f2/opt/2",
        "meek/axi/def/4", "meek/f2/def/6", "ea-lockstep",
    };
    const std::vector<std::string> workloads = {"hmmer", "mcf", "blackscholes",
                                                "swaptions"};

    if (load_gen) {
        // The sweep's request mix: every scenario × workload combination of
        // the same batch the single-shot bench runs, one template each.
        std::vector<std::string> mix_lines;
        for (const std::string& sc : scenarios) {
            for (const std::string& wl : workloads) {
                serve::run_request req;
                req.scenario = sc;
                req.workload = wl;
                req.instructions = instructions;
                req.seed = seed;
                mix_lines.push_back(serve::to_json(req));
            }
        }
        serve::service svc(opts);
        const int rc = run_load_gen(svc, mix_lines, qps_points, load_requests, seed,
                                    admission ? max_inflight : 0, stats_json_path,
                                    slo_text.empty() ? nullptr : &slo);
        const int trace_rc = export_trace_json(trace_json_path);
        return rc != 0 ? rc : trace_rc;
    }

    std::ostringstream batch;
    for (u64 i = 0; i < num_requests; ++i) {
        serve::run_request req;
        req.id = "r" + std::to_string(i);
        req.scenario = scenarios[i % scenarios.size()];
        req.workload = workloads[(i / scenarios.size()) % workloads.size()];
        req.instructions = instructions;
        req.seed = seed;
        batch << serve::to_json(req) << '\n';
    }

    serve::service svc(opts);
    std::istringstream in(batch.str());
    std::ostringstream out;

    const auto start = std::chrono::steady_clock::now();
    const serve::batch_stats stats = svc.serve_stream(in, out);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Parse the rows back (the client half of the protocol) and aggregate.
    u64 rows = 0, errors = 0, simulated_instructions = 0;
    {
        std::istringstream rows_in(out.str());
        std::string line;
        while (std::getline(rows_in, line)) {
            std::string err;
            const auto row = serve::parse_response(line, &err);
            if (!row) {
                std::fprintf(stderr, "bad response row: %s\n", err.c_str());
                return 1;
            }
            ++rows;
            if (!row->error.empty()) {
                ++errors;
            } else {
                simulated_instructions += row->outcome.instructions;
            }
        }
    }

    const serve::workload_cache_stats cs = svc.cache().stats();
    const sim::executor_timing t = svc.pool().timing();
    std::printf("serve_bench: %llu requests -> %llu rows (%llu errors) in %.3f s\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(errors), elapsed_s);
    std::printf("  throughput: %.1f requests/s, %.2f Minstr/s simulated (%u threads)\n",
                elapsed_s > 0 ? static_cast<double>(stats.requests) / elapsed_s : 0.0,
                elapsed_s > 0 ? static_cast<double>(simulated_instructions) / elapsed_s / 1e6
                              : 0.0,
                svc.pool().num_threads());
    std::printf("  cache: %llu hits / %llu lookups (%.1f%% hit rate), %llu evictions\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.lookups()), 100.0 * cs.hit_rate(),
                static_cast<unsigned long long>(cs.evictions));
    std::printf("  job wall-time ms: min %.2f mean %.2f max %.2f total %.2f\n",
                t.min_ms, t.mean_ms, t.max_ms, t.total_ms);
    // The same '# sched:' stderr line fig6/fig7 emit, so serve-path steal
    // and inject-ring behaviour is visible in CI logs batch by batch.
    bench::print_scheduler_summary(svc.pool());
    if (const int trace_rc = export_trace_json(trace_json_path); trace_rc != 0) {
        return trace_rc;
    }
    bool slo_violated = false;
    if (!slo_text.empty()) {
        // Single-batch mode has no windowed stream; the whole batch's
        // end-to-end request latency is one window.
        obs::log_histogram request_latency;
        for (const obs::histogram_entry& h : svc.stats_snapshot().histograms) {
            if (h.name == "service.request_ns") request_latency = h.hist;
        }
        const obs::slo_report report =
            obs::evaluate_slo(slo, request_latency, errors, rows);
        std::fputs(obs::format_slo_report(report, "serve_bench_slo: ").c_str(),
                   stdout);
        slo_violated = report.violated;
    }
    return errors == 0 && !slo_violated ? 0 : 1;
}
