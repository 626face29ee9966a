// The batch core: the one batch state machine under both serving front-ends,
// serve::service (simulations on an executor) and serve::gateway (worker
// processes or sockets).
//
// Batch framing on a stream: one request per line; a blank line (or EOF)
// ends the batch, and a trailing '\r' is stripped (serve::batch_reader), so
// CRLF clients frame identically. serve_stream() loops batches until EOF. In
// *framed* mode — the socket wire format, `meek_serve --framed` and
// `meek_gateway --framed` — each batch's rows are followed by one blank line,
// so a client can detect end-of-batch without counting rows.
//
// The line step: every request line is parsed once, here — a {"stats":true}
// probe, a parse error, an admission shed (one in-slot
// {"error":"overloaded","retry_after_ms":N} row, whatever its repeats), a
// trace root, then one resolved slot per repeat (a resolve error is one error
// row). Lines past the batch_limits caps shed the same way without a parse.
// Each line is one unit of the reorder window. The lines the step settles are
// ready at once; the others go to the front-end's backend, which owes their
// rows: the service runs one pool job per slot as the line arrives, the
// gateway forwards the line to a worker once the whole batch is read. Line k
// leaves the window once lines 0..k-1 are out and k owes nothing, so the
// response bytes are a function of the batch text alone.
//
// A line *settles* when it leaves the window: its end-to-end latency sample
// and root span close and its rows are counted. At batch end, admitted lines
// retire from admission, overflow lines are noted, and the batch's counters
// are added before a stats probe answers — a probe (and every row behind it)
// waits for that, so its snapshot covers its own batch.
//
// The stream front (serve_batch) serializes drained rows into a per-batch
// outbox. Only the session thread or one per-batch writer thread ever writes
// to the client, so a client that stops reading stalls only its own
// connection. A one-line batch whose input has ended starts no writer thread.
// An SLO spec in the config closes the loop: after each batch, the burn rate
// of the configured latency histogram tightens admission while violated and
// loosens it on recovery.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/function_ref.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "sim/job.h"

namespace meek::serve {

struct batch_stats {
    u64 requests = 0;       // lines attempted
    u64 rows = 0;           // response rows emitted (includes error rows)
    u64 errors = 0;         // error rows among them
    u64 jobs = 0;           // simulations dispatched (service)
    u64 shed = 0;           // "overloaded" rows among the errors
    u64 stream_errors = 0;  // batches whose input stream died (in.bad())
    u64 client_aborts = 0;  // batches whose output stream died mid-response
    u64 worker_failures = 0;    // gateway: workers that died or desynced mid-batch
    u64 workers_respawned = 0;  // gateway: failed workers revived between batches
};

class batch_core {
public:
    virtual ~batch_core() = default;
    batch_core(const batch_core&) = delete;
    batch_core& operator=(const batch_core&) = delete;

    // Evaluate one batch of in-memory request lines; rows come back ordered
    // by (request index, repeat). No batch caps apply: the lines are already
    // in memory.
    std::vector<response_row> evaluate_rows(const std::vector<std::string>& lines,
                                            batch_stats* stats = nullptr);

    // Read one blank-line-terminated batch from `in` and write one NDJSON row
    // per (request, repeat) to `out` as the prefix completes (plus a blank
    // terminator line when `framed`). Returns false when the connection is
    // finished: `in` exhausted before any request line, the input stream
    // died (counted as a stream_error), or `out` failed mid-response (a
    // client hang-up, counted as a client_abort).
    bool serve_batch(std::istream& in, std::ostream& out, batch_stats* stats = nullptr,
                     bool framed = false);

    // Drain `in` batch by batch until EOF (or the connection dies); returns
    // the aggregate stats of the session.
    batch_stats serve_stream(std::istream& in, std::ostream& out, bool framed = false);

    obs::metrics_registry& metrics() { return metrics_; }
    const admission_controller& admission() const { return admission_; }
    admission_controller& admission() { return admission_; }

protected:
    using clock = std::chrono::steady_clock;
    static u64 elapsed_ns(clock::time_point from, clock::time_point to) {
        const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
        return d.count() > 0 ? static_cast<u64>(d.count()) : 0;
    }

    struct config {
        std::string name;       // metric prefix and log tag: "service" | "gateway"
        std::string root_span;  // each line's root span name
        bool stage_spans = false;  // parse/resolve/serialize spans under the root
        std::string slo_latency;   // histogram the SLO feedback loop reads
        batch_limits limits;
        admission_options admission;
        obs::slo_spec slo_feedback;  // empty => no feedback loop
    };
    explicit batch_core(const config& cfg);

    // Trace bookkeeping of one request line.
    struct line_trace {
        obs::trace_context root;  // {trace id, root span id}; zero when not tracing
        u64 parent_span = 0;      // adopted caller span (0 when minted)
        u64 root_begin = 0;
        bool minted = false;      // the trace id was minted here, not adopted
    };

    // One request line in the reorder window.
    struct line_slot {
        std::vector<response_row> rows;  // repeat order, prefilled by the line step
        u64 owed = 0;          // rows the backend still owes; the line drains at 0
        bool timed = false;    // a parsed line: settling records latency + root span
        bool settled = false;  // settled (rows counted) — once
        clock::time_point started{};
        line_trace trace;
    };

    // A line the step left to the backend; its slot owes one row per spec,
    // or one row for a stats probe (no specs).
    struct pending_line {
        std::size_t index = 0;      // request index == window slot
        std::size_t first_row = 0;  // batch-global index of its first row
        std::string_view raw;       // the line's bytes, valid during dispatch only
        std::vector<sim::run_spec> specs;
        obs::trace_context root;    // the line's root span (zero when not tracing)
        bool minted = false;
    };

    using line_source = function_ref<batch_reader::item(std::string_view*)>;
    using row_sink = function_ref<void(std::vector<response_row>&&)>;

    // The reorder window. Backends fill slots and call drain() under `m`.
    class window {
    public:
        std::mutex m;
        std::deque<line_slot> lines;  // guarded by m; a deque keeps slots in place

        // Hand the ready prefix to the sink. `m` held; called from the
        // session thread and from backend threads, so the sink never blocks.
        void drain();

    private:
        friend class batch_core;
        window(batch_core& core, row_sink sink) : core_(core), sink_(sink) {}
        void settle(line_slot& slot);

        batch_core& core_;
        row_sink sink_;
        obs::atomic_log_histogram* request_ns_ = nullptr;
        std::size_t next_emit_ = 0;
        u64 rows_ = 0;
        u64 errors_ = 0;
    };

    // The front-end half of one batch. Its threads and job hooks hold its
    // address, so it never copies.
    class backend {
    public:
        backend() = default;
        backend(const backend&) = delete;
        backend& operator=(const backend&) = delete;

        // Take a line that owes rows. Session thread, lines in order.
        virtual void dispatch(window& w, pending_line& line) = 0;
        // Return once every dispatched line owes nothing but stats probes;
        // add the backend's own counters to `stats` (may be null).
        virtual void finish(window& w, batch_stats* stats) = 0;
        // `w.m` held, the batch counters added: answer the stats probes.
        virtual void answer_probes(window& w) { (void)w; }

    protected:
        ~backend() = default;
    };

    // The one batch routine: pull lines from `next` until the batch ends, run
    // the line step on each, hand pending lines to `be`, settle, and hand
    // every drained run of in-order rows to `sink` (possibly from a backend
    // thread). Returns the number of request lines read, overflow included.
    u64 run_lines(line_source next, row_sink sink, batch_stats* stats, backend& be);

    // Each front-end runs run_lines with its own per-batch backend.
    virtual u64 run_batch(line_source next, row_sink sink, batch_stats* stats) = 0;

    const config cfg_;
    // Declared before everything a derived front-end owns: recording handles
    // resolved from the registry must stay valid until their jobs are gone.
    obs::metrics_registry metrics_;
    admission_controller admission_;

private:
    struct step_context;
    // The line step: fill `slot` with the line's prefilled rows and return
    // the specs the backend runs (empty: settled here, or a stats probe when
    // the slot owes one row).
    std::vector<sim::run_spec> line_step(std::string_view raw, std::size_t index,
                                         const step_context& ctx, line_slot& slot,
                                         bool* admitted, bool* shed);

    // Feed the latest latency window's burn rate into admission.
    void slo_feedback_tick();

    // slo_window_monitor is single-threaded by contract; serve_batch may run
    // concurrently on accept-pool threads, so ticks serialize here.
    std::mutex slo_mutex_;
    obs::slo_window_monitor slo_monitor_;
    // Trace minting sequence: batch n, line i => mint_trace_id(n, i), so
    // trace ids are a pure function of the session's input. Only advanced
    // while tracing is enabled; atomic because serve_batch may run on several
    // threads at once.
    std::atomic<u64> batch_seq_{0};
};

}  // namespace meek::serve
