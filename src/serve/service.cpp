#include "serve/service.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <istream>
#include <ostream>

#include "common/log.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace meek::serve {
namespace {

using clock = std::chrono::steady_clock;

u64 elapsed_ns(clock::time_point from, clock::time_point to) {
    const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
    return d.count() > 0 ? static_cast<u64>(d.count()) : 0;
}

// Trace bookkeeping for one request line.
struct line_trace {
    obs::trace_context root;  // {trace id, root "request" span id}
    u64 parent_span = 0;      // adopted caller span (0 when minted)
    u64 root_begin = 0;
};

// One request line, parsed/resolved/admitted into response slots — the unit
// shared by the buffered and streaming paths so their rows are built by the
// same code and stay byte-identical.
struct parsed_line {
    struct item {
        response_row row;            // id/error/seed prefilled
        bool has_spec = false;       // true => specs[spec] is dispatchable
        bool stats_row = false;      // row body built from a stats snapshot
        std::size_t spec = 0;        // index into `specs` when has_spec
    };
    std::vector<item> items;          // in repeat order
    std::vector<sim::run_spec> specs;  // this line's dispatchable specs
    bool admitted = false;            // counted into admission queue accounting
    bool shed = false;                // settled with an "overloaded" row
};

// Parse one line into its response slots: stats probe, parse error, shed
// "overloaded" row, or one slot per repeat with a resolved spec. Identical
// work and identical per-timeline tracer ticks on both serve paths — that is
// the streaming byte/trace determinism contract in one place.
parsed_line parse_one_line(std::string_view raw_line, std::size_t index,
                           u64 batch_seq, bool tracing, bool wall_clock,
                           obs::tracer& tracer,
                           obs::atomic_log_histogram& parse_ns,
                           obs::atomic_log_histogram& resolve_ns,
                           workload_cache* cache, admission_controller& admission,
                           line_trace* lt) {
    parsed_line out;
    const auto parse_start = clock::now();
    // Wall-mode span timestamps come from the tracer's own clock, and the
    // parse span starts before the trace id is known — take the pre-parse
    // reading on the (ignored) zero timeline. Virtual mode must not tick a
    // foreign timeline; it stamps after minting instead.
    const u64 pre_parse_ns = tracing && wall_clock ? tracer.now_ns(0) : 0;

    std::string stats_id;
    bool line_parsed_ok = false;
    parsed_request parsed;
    const bool is_stats = parse_stats_request(strip_cr(raw_line), &stats_id);
    if (!is_stats) {
        parsed = parse_request(strip_cr(raw_line));
        line_parsed_ok = parsed.ok();
    }
    parse_ns.record(elapsed_ns(parse_start, clock::now()));

    if (tracing) {
        u64 trace_id = 0;
        if (line_parsed_ok && parsed.request.trace) {
            trace_id = parsed.request.trace->trace_id;
            lt->parent_span = parsed.request.trace->span_id;
        } else {
            trace_id = obs::mint_trace_id(batch_seq, index);
        }
        lt->root.trace_id = trace_id;
        lt->root.span_id = obs::derive_span_id(trace_id, lt->parent_span, "request");
        lt->root_begin = wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);

        obs::span_record parse_span;
        parse_span.trace_id = trace_id;
        parse_span.parent_span_id = lt->root.span_id;
        parse_span.span_id = obs::derive_span_id(trace_id, lt->root.span_id, "parse");
        parse_span.begin_ns = wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);
        parse_span.end_ns = tracer.now_ns(trace_id);
        std::snprintf(parse_span.name, sizeof parse_span.name, "parse");
        tracer.record(parse_span);
    }

    if (is_stats) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.id = std::move(stats_id);
        s.stats_row = true;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        out.items.push_back(std::move(s));
        return out;
    }
    if (!line_parsed_ok) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.error = parsed.error;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        out.items.push_back(std::move(s));
        return out;
    }

    const run_request& req = parsed.request;

    // Admission gate, at line-parse time: only lines that would queue real
    // work are offered (stats probes stay free — they are how an operator
    // watches an overloaded service; malformed lines never queue anything).
    // A shed line settles with ONE row regardless of its repeats.
    const admission_controller::decision gate =
        admission.admit_line(raw_line.size(), req.repeats);
    if (!gate.admit) {
        parsed_line::item s;
        s.row = overloaded_row(index, gate.retry_after_ms, req.id);
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        out.items.push_back(std::move(s));
        out.shed = true;
        return out;
    }
    out.admitted = true;

    for (u64 r = 0; r < req.repeats; ++r) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.repeat = r;
        s.row.id = req.id;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        sim::run_spec spec;
        const auto resolve_start = clock::now();
        obs::trace_span resolve_span(tracing ? lt->root : obs::trace_context{},
                                     "resolve", r);
        const std::string err = resolve_request(req, r, &spec);
        resolve_span.close();
        resolve_ns.record(elapsed_ns(resolve_start, clock::now()));
        if (!err.empty()) {
            s.row.error = err;
            out.items.push_back(std::move(s));
            break;  // a request that cannot resolve yields one error row
        }
        spec.workloads = cache;
        s.row.seed = spec.workload_seed;
        s.has_spec = true;
        s.spec = out.specs.size();
        out.specs.push_back(std::move(spec));
        out.items.push_back(std::move(s));
    }
    return out;
}

// Close a line's root "request" span.
void close_root_span(obs::tracer& tracer, const line_trace& lt) {
    obs::span_record root;
    root.trace_id = lt.root.trace_id;
    root.span_id = lt.root.span_id;
    root.parent_span_id = lt.parent_span;
    root.begin_ns = lt.root_begin;
    root.end_ns = tracer.now_ns(lt.root.trace_id);
    std::snprintf(root.name, sizeof root.name, "request");
    tracer.record(root);
}

}  // namespace

service::service(const service_options& opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      outcomes_(opts.outcome_capacity),
      admission_(opts.admission),
      pool_(opts.threads) {}

std::vector<response_row> service::evaluate(const std::vector<std::string>& lines,
                                            batch_stats* stats) {
    // Stage histograms, resolved once per batch: recording is relaxed-atomic.
    obs::atomic_log_histogram& parse_ns = metrics_.get_histogram("service.parse_ns");
    obs::atomic_log_histogram& resolve_ns =
        metrics_.get_histogram("service.resolve_ns");
    obs::atomic_log_histogram& execute_ns =
        metrics_.get_histogram("service.execute_ns");
    obs::atomic_log_histogram& request_ns =
        metrics_.get_histogram("service.request_ns");

    // Tracing, resolved once per batch. Each line gets a trace: adopted from
    // the wire's "trace" field when present, minted from (batch, line)
    // otherwise — both pure functions of the input, so ids are identical at
    // any thread count. Under the virtual clock, session-thread spans tick
    // on the line's own timeline (= trace id) and executor job spans on the
    // job's span id, so timestamps are schedule-independent too.
    obs::tracer& tracer = obs::tracer::instance();
    const bool tracing = tracer.enabled();
    const bool wall_clock = tracer.clock_mode() == obs::trace_clock_mode::wall;
    const u64 batch_seq = tracing ? batch_seq_.fetch_add(1) : batch_seq_.load();

    std::vector<line_trace> line_traces(tracing ? lines.size() : 0);
    std::vector<clock::time_point> line_started(lines.size());
    std::vector<obs::trace_context> job_traces;  // parallel to `specs`

    // Phase 1: parse, resolve, and admit every line on the session thread;
    // collect the dispatchable specs in (request, repeat) order.
    struct slot {
        response_row row;            // id/error prefilled; outcome filled later
        std::size_t spec_index = 0;  // into `specs` when dispatchable
        bool has_spec = false;
        bool stats_row = false;      // filled from the snapshot after merging
    };
    std::vector<slot> slots;
    std::vector<sim::run_spec> specs;
    std::vector<u64> admitted_bytes;  // queue accounting to retire after merge
    bool any_stats_row = false;
    u64 shed = 0;
    line_trace scratch_trace;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        line_started[i] = clock::now();
        line_trace& lt = tracing ? line_traces[i] : scratch_trace;
        parsed_line pl =
            parse_one_line(lines[i], i, batch_seq, tracing, wall_clock, tracer,
                           parse_ns, resolve_ns, &cache_, admission_, &lt);
        if (pl.admitted) admitted_bytes.push_back(lines[i].size());
        if (pl.shed) ++shed;
        for (parsed_line::item& it : pl.items) {
            slot s;
            s.row = std::move(it.row);
            s.stats_row = it.stats_row;
            if (it.stats_row) any_stats_row = true;
            if (it.has_spec) {
                s.has_spec = true;
                s.spec_index = specs.size() + it.spec;
            }
            slots.push_back(std::move(s));
        }
        for (sim::run_spec& spec : pl.specs) {
            specs.push_back(std::move(spec));
            if (tracing) job_traces.push_back(lt.root);
        }
    }

    // Phase 2: fan the jobs out — longest spec first, through the completed-
    // result cache so a repeated identical evaluation is free; results return
    // in spec order. One execute-stage sample per batch: the end-to-end fan-
    // out wall time (per-job queue-wait/run splits live in the pool
    // histograms and, when tracing, in per-job queue_wait/run spans).
    const auto execute_start = clock::now();
    admission_.jobs_started(specs.size());
    const std::vector<sim::run_outcome> outcomes = pool_.map(
        specs, /*base_seed=*/0,
        [this](const sim::run_spec& spec, const sim::job_context&) {
            return outcomes_.outcome_for(spec);
        },
        [](const sim::run_spec& spec) { return sim::cost_hint(spec); }, job_traces);
    admission_.jobs_finished(specs.size());
    if (!specs.empty()) execute_ns.record(elapsed_ns(execute_start, clock::now()));

    // Phase 3: merge outcomes back into their slots. Simulated-work totals
    // are summed over the outcomes (cache hits included: a served result
    // represents that much simulated work regardless of where it came from),
    // so they are deterministic at any thread count.
    u64 sim_instructions = 0;
    u64 sim_big_cycles = 0;
    for (const sim::run_outcome& o : outcomes) {
        sim_instructions += o.instructions;
        sim_big_cycles += o.cycles;
    }
    std::vector<response_row> rows;
    rows.reserve(slots.size());
    u64 errors = 0;
    for (slot& s : slots) {
        if (s.has_spec) s.row.outcome = outcomes[s.spec_index];
        if (!s.row.error.empty()) ++errors;
        rows.push_back(std::move(s.row));
    }
    for (const u64 bytes : admitted_bytes) admission_.retire_line(bytes);

    // Per-line bookkeeping now that every row is settled: the end-to-end
    // request latency (what an SLO on this service is evaluated against —
    // recorded tracing or not), and the root span close.
    const auto batch_end = clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        request_ns.record(elapsed_ns(line_started[i], batch_end));
        if (tracing) close_root_span(tracer, line_traces[i]);
    }

    if (stats) {
        stats->requests += lines.size();
        stats->rows += rows.size();
        stats->jobs += specs.size();
        stats->errors += errors;
        stats->shed += shed;
    }
    metrics_.get_counter("service.requests").add(lines.size());
    metrics_.get_counter("service.rows").add(rows.size());
    metrics_.get_counter("service.jobs").add(specs.size());
    metrics_.get_counter("service.errors").add(errors);
    metrics_.get_counter("sim.instructions").add(sim_instructions);
    metrics_.get_counter("sim.big_cycles").add(sim_big_cycles);

    // Stats rows last: the snapshot includes this batch's own counters and
    // spans (minus serialization, which has not happened yet), and is built
    // once however many stats lines the batch carried.
    if (any_stats_row) {
        const std::string snapshot_json = obs::stats_json(stats_snapshot());
        for (std::size_t k = 0; k < rows.size(); ++k) {
            if (!slots[k].stats_row) continue;
            json_object_writer w;
            w.field("request", rows[k].request_index);
            w.field("repeat", u64{0});
            if (!rows[k].id.empty()) w.field("id", rows[k].id);
            w.field_raw("stats", snapshot_json);
            rows[k].raw = w.str();
        }
    }
    return rows;
}

bool service::serve_batch(std::istream& in, std::ostream& out, batch_stats* stats,
                          bool framed) {
    if (opts_.streaming) return serve_batch_streaming(in, out, stats, framed);

    const batch_read batch = read_batch(in, opts_.limits);
    if (batch.stream_error) {
        metrics_.get_counter("service.stream_errors").add(1);
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn, "serve: input stream died (I/O error, not EOF) after %zu lines",
                 batch.lines.size());
    }
    if (batch.empty()) return false;

    std::vector<response_row> rows = evaluate(batch.lines, stats);

    // The buffering-cap overflow tail: those lines hold request indices past
    // the evaluated ones but their content was discarded at read time — each
    // settles with an in-slot overloaded row, consistent with admission
    // shedding, so no accepted line is ever silently dropped.
    if (batch.overflow_lines > 0) {
        const u64 retry = admission_.options().retry_after_ms;
        for (u64 k = 0; k < batch.overflow_lines; ++k) {
            rows.push_back(overloaded_row(batch.lines.size() + k, retry));
        }
        admission_.note_batch_overflow(batch.overflow_lines);
        if (stats) {
            stats->requests += batch.overflow_lines;
            stats->rows += batch.overflow_lines;
            stats->errors += batch.overflow_lines;
            stats->shed += batch.overflow_lines;
        }
        metrics_.get_counter("service.requests").add(batch.overflow_lines);
        metrics_.get_counter("service.rows").add(batch.overflow_lines);
        metrics_.get_counter("service.errors").add(batch.overflow_lines);
    }

    obs::atomic_log_histogram& serialize_ns =
        metrics_.get_histogram("service.serialize_ns");
    bool aborted = false;
    for (const response_row& row : rows) {
        const auto start = clock::now();
        // The root "request" span closed inside evaluate(), so serialization
        // records as a second top-level span of the same trace (row.trace
        // carries {trace id, parent 0}; zero when tracing is off).
        obs::trace_span span(row.trace, "serialize", row.repeat);
        const std::string json = to_json(row);
        span.close();
        serialize_ns.record(elapsed_ns(start, clock::now()));
        out << json << '\n';
        if (!out) {  // client hung up mid-response (SIGPIPE ignored => badbit)
            aborted = true;
            break;
        }
    }
    if (!aborted && framed) out << '\n';  // end-of-batch marker
    out.flush();
    if (!out) aborted = true;
    if (aborted) {
        metrics_.get_counter("service.client_aborts").add(1);
        if (stats) stats->client_aborts += 1;
        MEEK_LOG(warn, "serve: client aborted mid-response, dropping connection");
    }
    slo_feedback_tick();
    return !aborted && !batch.stream_error;
}

bool service::serve_batch_streaming(std::istream& in, std::ostream& out,
                                    batch_stats* stats, bool framed) {
    obs::atomic_log_histogram& parse_ns = metrics_.get_histogram("service.parse_ns");
    obs::atomic_log_histogram& resolve_ns =
        metrics_.get_histogram("service.resolve_ns");
    obs::atomic_log_histogram& request_ns =
        metrics_.get_histogram("service.request_ns");
    obs::atomic_log_histogram& serialize_ns =
        metrics_.get_histogram("service.serialize_ns");
    // Simulated-work totals, recorded per completed job from the worker-side
    // hook (relaxed atomic adds — order-free, so deterministic sums).
    obs::counter& sim_instructions = metrics_.get_counter("sim.instructions");
    obs::counter& sim_big_cycles = metrics_.get_counter("sim.big_cycles");

    obs::tracer& tracer = obs::tracer::instance();
    const bool tracing = tracer.enabled();
    const bool wall_clock = tracer.clock_mode() == obs::trace_clock_mode::wall;
    const u64 batch_seq = tracing ? batch_seq_.fetch_add(1) : batch_seq_.load();

    // The reorder window: rows in global (request, repeat) order; row k is
    // written once rows 0..k-1 are out and k is ready, so the byte stream is
    // exactly the buffered path's at any thread count — completion order
    // only decides *when* the prefix advances. A deque keeps element
    // references stable while the session thread appends.
    struct pending {
        response_row row;
        bool ready = false;
        bool stats_row = false;
        // Set on a line's last row: settle-time bookkeeping.
        bool line_last = false;
        bool line_admitted = false;
        u64 line_bytes = 0;
        clock::time_point line_started{};
        line_trace lt;  // root span, closed at settle (tracing only)
    };
    struct stream_state {
        std::mutex m;
        std::condition_variable cv;
        std::deque<pending> rows;
        std::size_t next_emit = 0;
        bool aborted = false;
    } st;

    // Emit every ready row at the front of the window. Called with st.m held,
    // from the session thread (new ready-at-parse rows) and from pool workers
    // (completion hooks) — the mutex is the only writer gate on `out`.
    auto drain = [&](stream_state& state) {
        bool wrote = false;
        while (state.next_emit < state.rows.size() &&
               state.rows[state.next_emit].ready) {
            pending& p = state.rows[state.next_emit];
            if (p.stats_row && p.row.raw.empty()) {
                // Built lazily at emission: the snapshot sees every batch
                // counter and row settled before this probe's slot.
                json_object_writer w;
                w.field("request", p.row.request_index);
                w.field("repeat", u64{0});
                if (!p.row.id.empty()) w.field("id", p.row.id);
                w.field_raw("stats", obs::stats_json(stats_snapshot()));
                p.row.raw = w.str();
            }
            const auto start = clock::now();
            obs::trace_span span(p.row.trace, "serialize", p.row.repeat);
            const std::string json = to_json(p.row);
            span.close();
            serialize_ns.record(elapsed_ns(start, clock::now()));
            if (!state.aborted) {
                out << json << '\n';
                if (!out) {
                    state.aborted = true;
                    metrics_.get_counter("service.client_aborts").add(1);
                    MEEK_LOG(warn,
                             "serve: client aborted mid-response (streaming), "
                             "dropping connection");
                } else {
                    wrote = true;
                }
            }
            if (p.line_last) {
                request_ns.record(elapsed_ns(p.line_started, clock::now()));
                if (p.line_admitted) admission_.retire_line(p.line_bytes);
                if (tracing) close_root_span(tracer, p.lt);
            }
            ++state.next_emit;
        }
        // Flush per drained run of completed requests — the streaming
        // latency win; a blocked client is caught here as an abort too.
        if (wrote) {
            out.flush();
            if (!out && !state.aborted) {
                state.aborted = true;
                metrics_.get_counter("service.client_aborts").add(1);
            }
        }
    };

    // The session thread's input loop: read, parse, dispatch, line by line.
    std::string raw;
    bool saw_any = false;
    u64 line_index = 0;
    u64 buffered_bytes = 0;
    u64 jobs = 0;
    u64 shed = 0;
    u64 overflow = 0;
    line_trace scratch_trace;
    while (std::getline(in, raw)) {
        const std::string_view line = strip_cr(raw);
        if (is_blank_line(line)) {
            if (saw_any) break;  // end-of-batch marker
            continue;            // leading blank lines separate batches
        }
        saw_any = true;
        const std::size_t i = line_index++;

        // The same per-batch buffering caps read_batch enforces: past either
        // cap the line's content is dropped and its slot settles immediately
        // with an overloaded row (0 = unlimited).
        const bool over_lines = opts_.limits.max_lines != 0 && i >= opts_.limits.max_lines;
        const bool over_bytes = opts_.limits.max_bytes != 0 &&
                                buffered_bytes + line.size() > opts_.limits.max_bytes;
        if (over_lines || over_bytes) {
            ++overflow;
            std::lock_guard lock(st.m);
            pending p;
            p.row = overloaded_row(i, admission_.options().retry_after_ms);
            p.ready = true;
            st.rows.push_back(std::move(p));
            drain(st);
            continue;
        }
        buffered_bytes += line.size();

        const auto line_started = clock::now();
        line_trace& lt = scratch_trace;
        lt = line_trace{};
        parsed_line pl =
            parse_one_line(line, i, batch_seq, tracing, wall_clock, tracer,
                           parse_ns, resolve_ns, &cache_, admission_, &lt);
        if (pl.shed) ++shed;
        jobs += pl.specs.size();

        // Append this line's slots to the window and submit its jobs. The
        // completion hook fills the slot and advances the prefix; ready-at-
        // parse slots (errors, shed, stats) can emit right now.
        std::size_t first_row;
        {
            std::lock_guard lock(st.m);
            first_row = st.rows.size();
            for (std::size_t k = 0; k < pl.items.size(); ++k) {
                parsed_line::item& it = pl.items[k];
                pending p;
                p.row = std::move(it.row);
                p.stats_row = it.stats_row;
                p.ready = !it.has_spec;
                if (k + 1 == pl.items.size()) {
                    p.line_last = true;
                    p.line_admitted = pl.admitted;
                    p.line_bytes = line.size();
                    p.line_started = line_started;
                    p.lt = lt;
                }
                st.rows.push_back(std::move(p));
            }
            drain(st);
        }
        for (std::size_t k = 0; k < pl.items.size(); ++k) {
            const parsed_line::item& it = pl.items[k];
            if (!it.has_spec) continue;
            admission_.jobs_started(1);
            sim::run_spec spec = std::move(pl.specs[it.spec]);
            pool_.submit_indexed(
                first_row + k, /*base_seed=*/0,
                [this, spec = std::move(spec)](const sim::job_context&) {
                    return outcomes_.outcome_for(spec);
                },
                [this, &st, &drain, &sim_instructions, &sim_big_cycles](
                    const sim::job_context& ctx, sim::run_outcome result,
                    std::exception_ptr error) {
                    admission_.jobs_finished(1);
                    std::lock_guard lock(st.m);
                    pending& p = st.rows[ctx.index];
                    if (error) {
                        // The buffered path rethrows to the caller; a
                        // streaming row may already have neighbors on the
                        // wire, so the exception settles in-slot instead.
                        try {
                            std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            p.row.error = e.what();
                        } catch (...) {
                            p.row.error = "job failed";
                        }
                    } else {
                        sim_instructions.add(result.instructions);
                        sim_big_cycles.add(result.cycles);
                        p.row.outcome = std::move(result);
                    }
                    p.ready = true;
                    drain(st);
                    st.cv.notify_all();
                },
                tracing ? lt.root : obs::trace_context{});
        }
    }
    const bool stream_error = in.bad();
    if (stream_error) {
        metrics_.get_counter("service.stream_errors").add(1);
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn,
                 "serve: input stream died (I/O error, not EOF) after %llu lines",
                 static_cast<unsigned long long>(line_index));
    }

    // Wait for the window to drain: every row emitted (or skipped post-
    // abort) means every outstanding job has completed, so stack captures in
    // the hooks above cannot outlive this frame.
    u64 total_rows, errors;
    bool aborted;
    {
        std::unique_lock lock(st.m);
        st.cv.wait(lock, [&] { return st.next_emit == st.rows.size(); });
        total_rows = st.rows.size();
        errors = 0;
        for (const pending& p : st.rows) {
            if (!p.row.error.empty()) ++errors;
        }
        aborted = st.aborted;
    }
    if (line_index == 0) {
        slo_feedback_tick();
        return false;  // input exhausted before any request line
    }
    if (!aborted) {
        if (framed) out << '\n';
        out.flush();
        if (!out) {
            aborted = true;
            metrics_.get_counter("service.client_aborts").add(1);
        }
    }

    if (overflow > 0) admission_.note_batch_overflow(overflow);
    if (stats) {
        stats->requests += line_index;
        stats->rows += total_rows;
        stats->jobs += jobs;
        stats->errors += errors;
        stats->shed += shed + overflow;
        if (aborted) stats->client_aborts += 1;
    }
    metrics_.get_counter("service.requests").add(line_index);
    metrics_.get_counter("service.rows").add(total_rows);
    metrics_.get_counter("service.jobs").add(jobs);
    metrics_.get_counter("service.errors").add(errors);
    slo_feedback_tick();
    return !aborted && !stream_error;
}

batch_stats service::serve_stream(std::istream& in, std::ostream& out, bool framed) {
    batch_stats total;
    while (serve_batch(in, out, &total, framed)) {
    }
    return total;
}

void service::slo_feedback_tick() {
    if (opts_.slo_feedback.clauses.empty() || !admission_.enabled()) return;
    std::lock_guard lock(slo_mutex_);
    slo_monitor_.observe(metrics_.get_histogram("service.request_ns").snapshot());
    const std::vector<obs::log_histogram> windows = slo_monitor_.windows();
    const obs::slo_report report = obs::evaluate_slo_windows(
        opts_.slo_feedback, windows, metrics_.get_counter("service.errors").value(),
        metrics_.get_counter("service.rows").value());
    admission_.observe_burn_rate(report.max_burn_rate);
}

obs::metrics_snapshot service::stats_snapshot() const {
    obs::metrics_snapshot snap = metrics_.snapshot();
    const workload_cache_stats cs = cache_.stats();
    snap.set_counter("workload_cache.hits", cs.hits);
    snap.set_counter("workload_cache.misses", cs.misses);
    snap.set_counter("workload_cache.evictions", cs.evictions);
    snap.set_gauge("workload_cache.size", cache_.size());
    const outcome_cache_stats os = outcomes_.stats();
    snap.set_counter("outcome_cache.hits", os.hits);
    snap.set_counter("outcome_cache.misses", os.misses);
    snap.set_counter("outcome_cache.evictions", os.evictions);
    snap.set_gauge("outcome_cache.size", outcomes_.size());
    admission_.contribute_metrics(snap);
    pool_.contribute_metrics(snap);
    // Derived simulation throughput: simulated instructions per host second
    // of fan-out wall time (the sim_throughput bench's MIPS, as a service
    // gauge). Wall-time-derived, so — like steal counts — not part of the
    // deterministic counter set.
    if (const u64* instr = snap.counter_value("sim.instructions")) {
        if (const obs::log_histogram* exec = snap.histogram("service.execute_ns");
            exec != nullptr && exec->sum() > 0) {
            snap.set_gauge("sim.host_instr_per_sec",
                           static_cast<u64>(static_cast<double>(*instr) * 1e9 /
                                            static_cast<double>(exec->sum())));
        }
    }
    return snap;
}

}  // namespace meek::serve
