// meek_gateway — the sharding front-end for a pool of meek_serve workers.
//
// Accepts the same blank-line-framed NDJSON batches as meek_serve on stdin
// (or --requests FILE) and runs them through the same batch core: lines that
// fail to parse or resolve, or that admission sheds, are answered here. The
// rest are sharded cost-aware across the worker pool
// (sched::balanced_assignment over sim::cost_hint estimates, so the long
// requests spread instead of piling on one worker), and the returned rows
// merge in global (request, repeat) order, each request's rows flushed once
// it and every earlier request have settled — stdout is byte-identical to a
// single-process meek_serve run of the same input. A
// worker that dies mid-batch turns into error rows in its slots; the batch
// never aborts, and the dead worker is respawned (processes) or reconnected
// (endpoints) before the next batch.
//
// Worker pool:
//   meek_gateway --workers 3                 spawn 3 meek_serve child
//                                            processes (sibling binary of
//                                            this one, or --worker-cmd PATH)
//   meek_gateway --endpoint tcp:host:port
//                --endpoint unix:/tmp/w.sock connect to running framed
//                                            daemons (meek_serve --listen),
//                                            one worker per --endpoint
//
// Options:
//   --workers N            child worker processes (default 2)
//   --worker-cmd PATH      worker binary (default: meek_serve next to argv[0])
//   --endpoint ADDR        repeatable; use remote sockets instead of children
//   --threads N            per-worker simulation threads (children only)
//   --cache-capacity N     per-worker workload cache entries (children only)
//   --outcome-capacity N   per-worker outcome cache entries (children only)
//   --requests FILE        one-shot: serve the file's batches, then exit
//   --framed               terminate each output batch with a blank line
//   --stats-json PATH      after serving, write the gateway's observability
//                          snapshot (meek.stats.v1: totals, per-worker
//                          error-row/respawn counts, worker round-trip
//                          latency histogram) as one JSON line, atomically
//                          (temp file + rename)
//   --trace-json PATH      enable request tracing (the gateway mints a trace
//                          per request line and injects it into the lines it
//                          forwards, so worker-side spans join the same
//                          trace) and export the gateway's span journal as
//                          Chrome trace-event JSON after serving
//   --trace-clock MODE     trace timestamps: wall (default) or virtual
//                          (deterministic ticks, worker-count independent)
//   --slo SPEC             evaluate SPEC against the worker round-trip
//                          latency after serving: report to stderr, "slo"
//                          section in --stats-json, exit 1 on violation
//   --quiet                suppress the stderr session summary
//
// Admission control (as in meek_serve; the gateway runs no simulation jobs,
// so meek_serve's --max-inflight has no counterpart here):
//   --admission            enable admission control with default limits
//   --max-queue-lines N    shed lines past N queued in the current batch
//   --max-queue-bytes N    shed lines past N bytes buffered
//   --line-rate R          token-bucket cap on admitted lines per second (a
//                          nonnegative real, e.g. 0.5)
//   --retry-after-ms N     retry_after_ms base for shed rows (default 100)
//   --batch-max-lines N    hard cap on buffered lines per batch
//   --batch-max-bytes N    hard cap on buffered bytes per batch
//   Each --max-*/--line-rate flag implies --admission. With both --slo and
//   --admission, the worker round-trip burn rate against the SLO spec
//   tightens/recovers admission scale after every batch.
//
// A value flag also takes the --flag=VALUE form. Numbers must be whole
// decimal numbers in range (--line-rate: a nonnegative real), or the tool
// exits 2; the flags shared with meek_serve parse in one place
// (serve_flags.h).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/gateway.h"
#include "serve_flags.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--workers N] [--worker-cmd PATH] [--endpoint ADDR]... \n"
                 "          [--threads N] [--cache-capacity N] [--outcome-capacity N]\n"
                 "          [--requests FILE] [--framed] [--stats-json PATH]\n"
                 "          [--trace-json PATH] [--trace-clock wall|virtual] "
                 "[--slo SPEC] [--quiet]\n"
                 "          [--admission] [--max-queue-lines N] "
                 "[--max-queue-bytes N]\n"
                 "          [--line-rate R] [--retry-after-ms N]\n"
                 "          [--batch-max-lines N] [--batch-max-bytes N]\n",
                 argv0);
    return 2;
}

// The default worker command: the meek_serve binary that was built next to
// this gateway. Falls back to PATH lookup when argv0 carries no directory.
std::string sibling_meek_serve(const char* argv0) {
    const std::filesystem::path self(argv0);
    if (!self.has_parent_path()) return "meek_serve";
    return (self.parent_path() / "meek_serve").string();
}

}  // namespace

int main(int argc, char** argv) {
    tools::serve_flags flags;
    serve::gateway_options opts;
    std::string worker_cmd = sibling_meek_serve(argv[0]);
    std::vector<std::string> worker_extra_args;

    flag_reader args(argc, argv);
    while (args.next()) {
        if (flags.take(args)) continue;
        if (args.is("--workers")) {
            opts.workers = static_cast<u32>(args.count(0, 1024));
        } else if (args.is("--worker-cmd")) {
            worker_cmd = args.text();
        } else if (args.is("--endpoint")) {
            std::string error;
            const auto addr = serve::parse_endpoint(args.text(), &error);
            if (!addr) {
                std::fprintf(stderr, "bad --endpoint: %s\n", error.c_str());
                return 2;
            }
            opts.endpoints.push_back(*addr);
        } else if (args.is("--threads")) {
            worker_extra_args.push_back("--threads");
            worker_extra_args.push_back(std::to_string(args.count(0, 1024)));
        } else if (args.is("--cache-capacity") || args.is("--outcome-capacity")) {
            worker_extra_args.push_back(args.is("--cache-capacity") ? "--cache-capacity"
                                                                    : "--outcome-capacity");
            worker_extra_args.push_back(std::to_string(args.count(0)));
        } else {
            return usage(argv[0]);
        }
    }
    if (opts.endpoints.empty() && opts.workers == 0) {
        std::fprintf(stderr, "--workers must be positive (or give --endpoint)\n");
        return 2;
    }
    flags.start();

    opts.worker_argv = {worker_cmd, "--framed", "--quiet"};
    opts.worker_argv.insert(opts.worker_argv.end(), worker_extra_args.begin(),
                            worker_extra_args.end());
    opts.limits = flags.limits;
    opts.admission = flags.admission;
    opts.slo_feedback = flags.slo_feedback();

    serve::gateway gw(opts);
    if (!gw.ok()) {
        std::fprintf(stderr, "no worker came up (cmd '%s', %zu endpoint(s))\n",
                     worker_cmd.c_str(), opts.endpoints.size());
        return 1;
    }

    serve::gateway_stats stats;
    if (!flags.serve_stdio(gw, &stats)) return 1;

    // SLO verdict first (it feeds the stats JSON): evaluated against the
    // worker round-trip latency, error rows over merged rows.
    obs::metrics_snapshot snap;
    gw.contribute_metrics(snap, stats);
    obs::slo_report slo_report;
    if (!flags.slo_text.empty()) {
        obs::log_histogram worker_rt;
        for (const obs::histogram_entry& h : snap.histograms) {
            if (h.name == "gateway.worker_rt_ns") worker_rt = h.hist;
        }
        slo_report = obs::evaluate_slo(flags.slo, worker_rt, stats.errors, stats.rows);
        std::fputs(obs::format_slo_report(slo_report, "# slo: ").c_str(), stderr);
    }
    if (!flags.write_exports(std::move(snap), slo_report, gw.admission())) return 1;

    if (!flags.quiet) {
        std::fprintf(stderr,
                     "# gateway: workers=%zu alive=%zu requests=%llu rows=%llu "
                     "errors=%llu worker_failures=%llu respawned=%llu "
                     "shed=%llu stream_errors=%llu client_aborts=%llu\n",
                     gw.worker_count(), gw.alive_workers(),
                     static_cast<unsigned long long>(stats.requests),
                     static_cast<unsigned long long>(stats.rows),
                     static_cast<unsigned long long>(stats.errors),
                     static_cast<unsigned long long>(stats.worker_failures),
                     static_cast<unsigned long long>(stats.workers_respawned),
                     static_cast<unsigned long long>(stats.shed),
                     static_cast<unsigned long long>(stats.stream_errors),
                     static_cast<unsigned long long>(stats.client_aborts));
        tools::print_admission_summary(gw.admission());
    }
    return slo_report.violated ? 1 : 0;
}
