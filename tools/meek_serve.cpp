// meek_serve — the batched multi-SoC evaluation daemon.
//
// Modes:
//   meek_serve                      stdin/stdout loop: each blank-line-
//                                   terminated group of NDJSON request lines
//                                   is one batch; each request's rows are
//                                   written as soon as every earlier row is.
//   meek_serve --requests FILE      one-shot: serve every batch in FILE,
//                                   then exit.
//   meek_serve --listen ADDR        network daemon: accept clients on a
//                                   tcp:HOST:PORT or unix:PATH endpoint and
//                                   serve each connection's batches (framed:
//                                   each batch's rows end with a blank line).
//
// Options:
//   --threads N            worker threads, 0..1024 (default 0: MEEK_THREADS /
//                          hardware)
//   --cache-capacity N     workload cache entries (default 64; 0 disables)
//   --outcome-capacity N   completed-result cache entries (default 256;
//                          0 disables — every request simulates)
//   --framed               stdio modes: terminate each batch's rows with a
//                          blank line (what the gateway expects of a worker)
//   --admission            enable admission control (with the default limits
//                          below; any limit flag also enables it)
//   --max-inflight N       shed when N executor jobs are already in flight
//   --max-queue-lines N    shed when N admitted lines are awaiting rows
//   --max-queue-bytes N    shed when N request bytes are awaiting rows
//   --line-rate R          token-bucket line rate: R lines/second sustained
//   --retry-after-ms N     base retry hint in shed rows (default 100)
//   --batch-max-lines N    per-batch buffering caps: lines past either cap
//   --batch-max-bytes N    become in-slot overloaded rows (0 = unlimited)
//   --max-connections N    --listen: exit after serving N clients (0 = run
//                          until killed); probes that send no request do not
//                          consume the budget
//   --accept-threads N     --listen: serve up to N client connections
//                          concurrently, 1..1024 (default 4)
//   --stats-json PATH      after serving, write the session's observability
//                          snapshot (meek.stats.v1: counters, gauges, and
//                          per-stage latency histograms) as one JSON line,
//                          atomically (temp file + rename)
//   --trace-json PATH      enable request tracing and, after serving, export
//                          the span journal as Chrome trace-event JSON
//                          (atomically; load in Perfetto / chrome://tracing)
//   --trace-clock MODE     trace timestamps: wall (default) or virtual —
//                          deterministic per-timeline ticks, byte-identical
//                          exports at any thread count
//   --slo SPEC             evaluate SPEC (e.g. "p99<=250us,error_rate<=1%")
//                          against the session's end-to-end request latency
//                          after serving: report to stderr, "slo" section in
//                          --stats-json, exit 1 on violation. With admission
//                          enabled the spec also drives the shed/admit
//                          feedback loop: per-batch burn rates above 1
//                          tighten the effective limits, recovery loosens
//                          them back
//   --quiet                suppress the stderr session summary
//
// A value flag also takes the --flag=VALUE form. Numbers must be whole
// decimal numbers in range (--line-rate: a nonnegative real), or the tool
// exits 2; the flags it shares with meek_gateway parse in one place
// (serve_flags.h).
//
// stdout carries only response rows — byte-identical for a given input at
// any thread count, tracing on or off — so it can be diffed against golden
// expectations; the session summary (cache hit rate, job timing) goes to
// stderr.
#include <cstdio>
#include <string>

#include "serve/service.h"
#include "serve/transport.h"
#include "serve_flags.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--requests FILE | --listen ADDR] [--threads N] "
                 "[--cache-capacity N] [--outcome-capacity N] [--framed] "
                 "[--admission] [--max-inflight N] "
                 "[--max-queue-lines N] [--max-queue-bytes N] [--line-rate R] "
                 "[--retry-after-ms N] [--batch-max-lines N] "
                 "[--batch-max-bytes N] [--max-connections N] "
                 "[--accept-threads N] [--stats-json PATH] [--trace-json PATH] "
                 "[--trace-clock wall|virtual] [--slo SPEC] [--quiet]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    tools::serve_flags flags;
    std::string listen_spec;
    serve::service_options opts;
    u64 max_connections = 0;
    u32 accept_threads = 4;

    flag_reader args(argc, argv);
    while (args.next()) {
        if (flags.take(args)) continue;
        if (args.is("--listen")) {
            listen_spec = args.text();
        } else if (args.is("--max-connections")) {
            max_connections = args.count(0);
        } else if (args.is("--accept-threads")) {
            accept_threads = static_cast<u32>(args.count(1, 1024));
        } else if (args.is("--max-inflight")) {  // the gateway runs no jobs
            flags.admission.max_inflight_jobs = args.count(0);
            flags.admission.enabled = true;
        } else if (args.is("--threads")) {
            opts.threads = static_cast<u32>(args.count(0, 1024));
        } else if (args.is("--cache-capacity")) {
            opts.cache_capacity = args.count(0);
        } else if (args.is("--outcome-capacity")) {
            opts.outcome_capacity = args.count(0);
        } else {
            return usage(argv[0]);
        }
    }

    if (!flags.requests_file.empty() && !listen_spec.empty()) {
        std::fprintf(stderr, "--requests and --listen are mutually exclusive\n");
        return 2;
    }
    flags.start();
    opts.admission = flags.admission;
    opts.limits = flags.limits;
    opts.slo_feedback = flags.slo_feedback();

    serve::service svc(opts);
    serve::batch_stats stats;
    serve::serve_connections_stats conn_stats;
    bool listened = false;

    if (!listen_spec.empty()) {
        std::string error;
        const auto addr = serve::parse_endpoint(listen_spec, &error);
        if (!addr) {
            std::fprintf(stderr, "bad --listen endpoint: %s\n", error.c_str());
            return 2;
        }
        const auto lis = serve::listener::open(*addr, &error);
        if (!lis) {
            std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
            return 1;
        }
        // The resolved address (ephemeral tcp ports in particular) goes to
        // stderr so a driver can discover where to connect.
        std::fprintf(stderr, "# listening on %s\n", lis->address().describe().c_str());
        const serve::serve_connections_stats cs = serve::serve_connections(
            svc, *lis,
            {.max_connections = max_connections, .accept_threads = accept_threads});
        stats.requests = cs.requests;
        stats.rows = cs.rows;
        stats.errors = cs.errors;
        stats.jobs = cs.jobs;
        conn_stats = cs;
        listened = true;
        if (!flags.quiet) {
            std::fprintf(stderr, "# connections=%llu\n",
                         static_cast<unsigned long long>(cs.connections));
        }
    } else if (!flags.serve_stdio(svc, &stats)) {
        return 1;
    }

    // SLO verdict first (it feeds the stats JSON): evaluated against the
    // session's end-to-end per-request latency, error rows over merged rows.
    obs::slo_report slo_report;
    if (!flags.slo_text.empty()) {
        obs::log_histogram request_latency;
        for (const obs::histogram_entry& h : svc.stats_snapshot().histograms) {
            if (h.name == "service.request_ns") request_latency = h.hist;
        }
        slo_report =
            obs::evaluate_slo(flags.slo, request_latency, stats.errors, stats.rows);
        std::fputs(obs::format_slo_report(slo_report, "# slo: ").c_str(), stderr);
    }

    obs::metrics_snapshot snap;
    if (!flags.stats_json_path.empty()) {
        snap = svc.stats_snapshot();
        if (listened) {
            snap.set_counter("connections.connections", conn_stats.connections);
            snap.set_counter("connections.requests", conn_stats.requests);
            snap.set_counter("connections.rows", conn_stats.rows);
            snap.set_counter("connections.errors", conn_stats.errors);
            snap.set_counter("connections.jobs", conn_stats.jobs);
        }
    }
    if (!flags.write_exports(std::move(snap), slo_report, svc.admission())) return 1;

    if (!flags.quiet) {
        const serve::workload_cache_stats cs = svc.cache().stats();
        const serve::outcome_cache_stats os = svc.outcomes().stats();
        const sim::executor_timing t = svc.pool().timing();
        const sched::pool_stats ps = svc.pool().scheduler_stats();
        std::fprintf(stderr,
                     "# requests=%llu rows=%llu errors=%llu jobs=%llu threads=%u "
                     "shed=%llu stream_errors=%llu client_aborts=%llu\n"
                     "# cache: hits=%llu misses=%llu evictions=%llu hit_rate=%.1f%%\n"
                     "# outcomes: hits=%llu misses=%llu evictions=%llu hit_rate=%.1f%%\n"
                     "# job wall-time ms: min=%.2f mean=%.2f max=%.2f total=%.2f\n"
                     "# sched: executed=%llu steals=%llu steal_attempts=%llu "
                     "steal_success=%.1f%% busy_ms=%.2f\n",
                     static_cast<unsigned long long>(stats.requests),
                     static_cast<unsigned long long>(stats.rows),
                     static_cast<unsigned long long>(stats.errors),
                     static_cast<unsigned long long>(stats.jobs),
                     svc.pool().num_threads(),
                     static_cast<unsigned long long>(stats.shed),
                     static_cast<unsigned long long>(stats.stream_errors),
                     static_cast<unsigned long long>(stats.client_aborts),
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     static_cast<unsigned long long>(cs.evictions),
                     100.0 * cs.hit_rate(),
                     static_cast<unsigned long long>(os.hits),
                     static_cast<unsigned long long>(os.misses),
                     static_cast<unsigned long long>(os.evictions),
                     100.0 * os.hit_rate(), t.min_ms, t.mean_ms, t.max_ms,
                     t.total_ms, static_cast<unsigned long long>(ps.executed()),
                     static_cast<unsigned long long>(ps.steals()),
                     static_cast<unsigned long long>(ps.steal_attempts()),
                     100.0 * ps.steal_success_rate(), ps.busy_ms());
        tools::print_admission_summary(svc.admission());
    }
    return slo_report.violated ? 1 : 0;
}
