// The batched evaluation service: a long-lived session that owns one
// executor and one content-addressed workload cache, accepts batches of
// NDJSON run requests, fans the resolved jobs out across the pool, and
// streams response rows back in deterministic (request, repeat) order.
//
// Determinism contract: for a given batch text, the response byte stream is
// identical at any thread count and any cache capacity — scheduling affects
// wall-clock only. Requests that fail to parse or resolve produce error rows
// in their slot instead of aborting the batch.
//
// Batch framing on a stream: one request per line; a blank line (or EOF)
// ends the batch, and a trailing '\r' is stripped by the framing layer so
// CRLF clients frame identically (serve::batch_reader). serve_stream()
// loops batches until EOF, which is the stdin/stdout daemon mode of
// tools/meek_serve. In *framed* mode — the socket transport's wire format,
// and `meek_serve --framed` — each batch's rows are followed by one blank
// line, mirroring the request framing, so a client can detect end-of-batch
// without counting rows.
//
// Pipelined emission: every batch is read line by line, each line's jobs
// are dispatched the moment it parses, and rows leave while later lines are
// still being read and executed, through a prefix reorder window — row k
// leaves once rows 0..k-1 are out and row k is complete — so the bytes are a
// function of the batch text alone. serve_batch flushes per drained prefix.
// Pool workers only serialize rows into a per-batch buffer; the bytes are
// written by the session thread or a per-batch writer thread, so a client
// that stops reading stalls only its own connection.
// Two things wait for the batch end: admitted lines retire from the
// admission queue, and a {"stats":true} row settles only after the batch's
// counters are added (rows behind it wait with it).
//
// Overload behavior: when admission control is configured, each valid
// request line is offered to the admission_controller at parse time; a shed
// line settles immediately with one in-slot
// {"error":"overloaded","retry_after_ms":N} row (never dropped, regardless
// of its repeats). Lines past the per-batch buffering caps (batch_limits)
// shed the same way. An SLO spec in `slo_feedback` closes the loop: the
// request-latency burn rate tightens admission while violated and loosens
// it on recovery.
#pragma once

#include <atomic>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/function_ref.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/admission.h"
#include "serve/outcome_cache.h"
#include "serve/protocol.h"
#include "serve/workload_cache.h"
#include "sim/executor.h"
#include "sim/job.h"

namespace meek::serve {

struct service_options {
    u32 threads = 0;                  // 0 => MEEK_THREADS / hardware_concurrency
    std::size_t cache_capacity = 64;  // workload cache entries; 0 disables caching
    std::size_t outcome_capacity = 256;  // completed-result cache; 0 disables
    batch_limits limits;              // per-batch line/byte buffering caps
    admission_options admission;      // line-level admission control (default off)
    // Nonempty clauses => after each batch the service.request_ns burn rate
    // against this spec feeds admission (tighten on violation, recover on
    // health). Independent of any tool-level --slo exit-code check.
    obs::slo_spec slo_feedback;
};

struct batch_stats {
    u64 requests = 0;  // lines attempted
    u64 rows = 0;      // response rows emitted (includes error rows)
    u64 errors = 0;    // error rows among them
    u64 jobs = 0;      // simulations actually dispatched
    u64 shed = 0;          // "overloaded" rows among the errors
    u64 stream_errors = 0;  // batches whose input stream died (in.bad())
    u64 client_aborts = 0;  // batches whose output stream died mid-response
};

class service {
public:
    explicit service(const service_options& opts = {});

    // Evaluate one batch of request lines; rows come back ordered by
    // (request index, repeat). A job that throws settles its slot with an
    // error row. No batch caps apply: the lines are already in memory.
    std::vector<response_row> evaluate(const std::vector<std::string>& lines,
                                       batch_stats* stats = nullptr);

    // Read one blank-line-terminated batch from `in`, evaluate it, and write
    // one NDJSON row per (request, repeat) to `out` as the prefix completes
    // (plus a blank terminator line when `framed`). Returns false when the
    // connection is finished: `in` exhausted before any request line, the
    // input stream died (in.bad(), counted as a stream_error), or `out`
    // failed mid-response (a client hang-up, counted as a client_abort) — a
    // false return tells serve_stream to stop looping instead of burning
    // batches nobody reads.
    bool serve_batch(std::istream& in, std::ostream& out, batch_stats* stats = nullptr,
                     bool framed = false);

    // Drain `in` batch by batch until EOF (or the connection dies), flushing
    // `out` after each batch; returns the aggregate stats of the session.
    batch_stats serve_stream(std::istream& in, std::ostream& out, bool framed = false);

    const workload_cache& cache() const { return cache_; }
    const outcome_cache& outcomes() const { return outcomes_; }
    sim::executor& pool() { return pool_; }
    obs::metrics_registry& metrics() { return metrics_; }
    const admission_controller& admission() const { return admission_; }
    admission_controller& admission() { return admission_; }

    // The session's full observability picture: the registry's counters and
    // per-stage latency histograms (service.parse_ns / resolve_ns /
    // execute_ns / serialize_ns), overlaid with the workload/outcome cache
    // stats, the admission controller's counters/gauges, and the executor's
    // pool counters + queue-wait/run histograms — the existing stat structs
    // re-plumbed into one sorted snapshot. This is what `meek_serve
    // --stats-json` exports and what a `{"stats":true}` request line returns
    // inline.
    obs::metrics_snapshot stats_snapshot() const;

private:
    // The one batch routine under evaluate() and serve_batch: pull lines
    // from `next` until the batch ends, parse/admit/dispatch each as it
    // arrives, and hand every drained run of in-order rows to `sink` (under
    // the reorder window's mutex, possibly on a pool worker, so the sink
    // must never block). Returns the number of request lines read, overflow
    // lines included.
    using line_source = function_ref<batch_reader::item(std::string_view*)>;
    using row_sink = function_ref<void(std::vector<response_row>&&)>;
    u64 run_batch(line_source next, row_sink sink, batch_stats* stats);

    // Feed the latest request-latency window's burn rate into admission.
    void slo_feedback_tick();

    service_options opts_;
    // Declared before the executor: jobs drained by the pool's destructor
    // never touch the registry, but the registry must outlive run_batch's
    // recording handles anyway — first is simplest.
    obs::metrics_registry metrics_;
    workload_cache cache_;
    outcome_cache outcomes_;
    admission_controller admission_;
    // slo_window_monitor is single-threaded by contract; serve_batch may run
    // concurrently on accept-pool threads, so ticks serialize here.
    std::mutex slo_mutex_;
    obs::slo_window_monitor slo_monitor_;
    sim::executor pool_;
    // Trace minting sequence: batch n, line i => mint_trace_id(n, i), so
    // trace ids are a pure function of the session's input, never of
    // scheduling. Only advanced while tracing is enabled; atomic because
    // serve_batch may run on several accept-pool threads at once.
    std::atomic<u64> batch_seq_{0};
};

}  // namespace meek::serve
