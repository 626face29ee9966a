#include "serve/service.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <istream>
#include <optional>
#include <ostream>
#include <thread>

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

// One request line, parsed/resolved/admitted into response slots.
struct parsed_line {
    struct item {
        response_row row;                   // id/error/seed prefilled
        std::optional<sim::run_spec> spec;  // set => dispatchable
        bool stats_row = false;             // row body built from a stats snapshot
    };
    std::vector<item> items;  // in repeat order
    bool admitted = false;    // counted into admission queue accounting
    bool shed = false;        // settled with an "overloaded" row
};

// Parse one line into its response slots: stats probe, parse error, shed
// "overloaded" row, or one slot per repeat with a resolved spec. Tracer
// ticks land on the line's own timeline, so traces are schedule-independent.
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
        const u64 parse_begin = wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);
        tracer.record(trace_id, obs::derive_span_id(trace_id, lt->root.span_id, "parse"),
                      lt->root.span_id, "parse", parse_begin, tracer.now_ns(trace_id));
    }

    // The fields every row of this line shares.
    response_row base;
    base.request_index = index;
    if (tracing) base.trace = {lt->root.trace_id, 0};
    if (is_stats) {
        base.id = std::move(stats_id);
        out.items.push_back({std::move(base), std::nullopt, /*stats_row=*/true});
        return out;
    }
    if (!line_parsed_ok) {
        base.error = parsed.error;
        out.items.push_back({std::move(base), std::nullopt, false});
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
        out.items.push_back(
            {overloaded_row(index, gate.retry_after_ms, req.id), std::nullopt, false});
        out.items.back().row.trace = base.trace;
        out.shed = true;
        return out;
    }
    out.admitted = true;

    base.id = req.id;
    for (u64 r = 0; r < req.repeats; ++r) {
        parsed_line::item s{base, std::nullopt, false};
        s.row.repeat = r;
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
        s.spec = std::move(spec);
        out.items.push_back(std::move(s));
    }
    return out;
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
    std::size_t next_line = 0;
    auto next = [&](std::string_view* line) {
        if (next_line == lines.size()) return batch_reader::item::end;
        *line = lines[next_line++];
        return batch_reader::item::line;
    };
    std::vector<response_row> rows;
    auto sink = [&rows](std::vector<response_row>&& ready) {
        for (response_row& row : ready) rows.push_back(std::move(row));
    };
    run_batch(next, sink, stats);
    return rows;
}

bool service::serve_batch(std::istream& in, std::ostream& out, batch_stats* stats,
                          bool framed) {
    obs::atomic_log_histogram& serialize_ns =
        metrics_.get_histogram("service.serialize_ns");
    batch_reader reader(in, opts_.limits);

    // Rows are serialized into `bytes` by whichever thread drains them
    // (under the window mutex, often a pool worker); only this thread and
    // the batch's writer thread ever block on `out`, so a client that stops
    // reading stalls its own connection and nothing else.
    struct outbox {
        std::mutex m;
        std::condition_variable_any cv;
        std::string bytes;     // serialized rows not yet written
        u64 lines = 0;         // request lines read so far
        bool reading = true;   // this thread may be blocked reading `in`
        bool closed = false;   // the batch's last byte is queued
        bool aborted = false;  // `out` failed: the client hung up
        std::jthread writer;   // last: an unwinding batch stops and joins it first
    } ob;
    // Write and flush queued bytes until the batch closes, the client hangs
    // up (SIGPIPE ignored => badbit) or a stop is requested. One flush per
    // drained prefix.
    auto pump = [&ob, &out](std::stop_token stop) {
        std::unique_lock lock(ob.m);
        while (!ob.aborted &&
               ob.cv.wait(lock, stop, [&] { return !ob.bytes.empty() || ob.closed; })) {
            if (ob.bytes.empty()) return;
            const std::string chunk = std::move(ob.bytes);
            ob.bytes.clear();
            lock.unlock();
            out << chunk;
            out.flush();
            lock.lock();
            ob.aborted = !out;
        }
    };
    auto next = [&](std::string_view* line) {
        const batch_reader::item item = reader.next(line);
        std::lock_guard lock(ob.m);
        if (item == batch_reader::item::end) ob.reading = false;
        else ++ob.lines;
        return item;
    };
    auto sink = [&](std::vector<response_row>&& rows) {
        std::string chunk;
        for (const response_row& row : rows) {
            const auto start = clock::now();
            // A top-level span of the row's trace (row.trace carries {trace
            // id, parent 0}; zero when tracing is off).
            obs::trace_span span(row.trace, "serialize", row.repeat);
            chunk += to_json(row);
            span.close();
            serialize_ns.record(elapsed_ns(start, clock::now()));
            chunk += '\n';
        }
        std::lock_guard lock(ob.m);
        if (ob.aborted) return;
        ob.bytes += chunk;
        // Rows ready while this thread may block on input, or behind which
        // more lines follow, need their own writer. A one-line batch whose
        // input has ended has nothing left to overlap: its rows go out from
        // this thread at batch end, sparing a single request a thread start.
        if (!ob.writer.joinable() && (ob.reading || ob.lines > 1)) {
            ob.writer = std::jthread(pump);
        }
        ob.cv.notify_one();
    };
    const u64 lines = run_batch(next, sink, stats);
    {
        std::lock_guard lock(ob.m);
        if (framed && lines > 0) ob.bytes += '\n';  // end-of-batch marker
        ob.closed = true;
    }
    ob.cv.notify_one();
    if (ob.writer.joinable()) {
        ob.writer.join();
    } else {
        pump(std::stop_token{});
    }

    if (reader.stream_error()) {
        metrics_.get_counter("service.stream_errors").add(1);
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn, "serve: input stream died (I/O error, not EOF) after %llu lines",
                 static_cast<unsigned long long>(lines));
    }
    if (lines == 0) return false;  // input exhausted before any request line

    if (ob.aborted) {
        metrics_.get_counter("service.client_aborts").add(1);
        if (stats) stats->client_aborts += 1;
        MEEK_LOG(warn, "serve: client aborted mid-response, dropping connection");
    }
    slo_feedback_tick();
    return !ob.aborted && !reader.stream_error();
}

u64 service::run_batch(line_source next, row_sink sink, batch_stats* stats) {
    // Stage histograms and counters, resolved once per batch: recording is
    // relaxed-atomic, so pool workers record without the window mutex.
    obs::atomic_log_histogram& parse_ns = metrics_.get_histogram("service.parse_ns");
    obs::atomic_log_histogram& resolve_ns =
        metrics_.get_histogram("service.resolve_ns");
    obs::atomic_log_histogram& execute_ns =
        metrics_.get_histogram("service.execute_ns");
    obs::atomic_log_histogram& request_ns =
        metrics_.get_histogram("service.request_ns");
    // Simulated work, summed per completed job over every served outcome
    // (cache hits included: a served result represents that much simulated
    // work wherever it came from) — order-free adds, so deterministic sums.
    obs::counter& sim_instructions = metrics_.get_counter("sim.instructions");
    obs::counter& sim_big_cycles = metrics_.get_counter("sim.big_cycles");

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

    // The reorder window: rows in global (request, repeat) order; row k is
    // drained once rows 0..k-1 are out and k is ready. A deque keeps element
    // references stable while the session thread appends.
    struct pending {
        response_row row;
        bool ready = false;
        bool line_last = false;  // a line's last row: settle-time bookkeeping
        clock::time_point line_started{};
        line_trace lt;  // root span, closed once the line's rows are out
    };
    struct window {
        std::mutex m;
        std::condition_variable cv;
        std::deque<pending> rows;
        std::size_t next_emit = 0;
        u64 jobs_done = 0;
        u64 errors = 0;
        clock::time_point last_done{};
    } w;

    // A line settles when its rows leave the window (or, held behind a
    // stats probe, just before the probe's snapshot): its end-to-end latency
    // sample and root span close there, before serialization and I/O.
    auto settle_line = [&](pending& p) {
        if (!p.line_last) return;
        p.line_last = false;
        request_ns.record(elapsed_ns(p.line_started, clock::now()));
        if (tracing) {
            tracer.record(p.lt.root.trace_id, p.lt.root.span_id, p.lt.parent_span,
                          "request", p.lt.root_begin, tracer.now_ns(p.lt.root.trace_id));
        }
    };
    // Hand the ready prefix to the sink. Called with w.m held, from the
    // session thread and from pool workers (completion hooks) — the mutex
    // is the only gate on the sink, so the sink must never block.
    auto drain = [&] {
        std::vector<response_row> ready;
        while (w.next_emit < w.rows.size() && w.rows[w.next_emit].ready) {
            settle_line(w.rows[w.next_emit]);
            ready.push_back(std::move(w.rows[w.next_emit++].row));
        }
        if (!ready.empty()) sink(std::move(ready));
    };

    // The session thread's input loop: read, parse, dispatch, line by line.
    u64 lines = 0;
    u64 jobs = 0;
    u64 shed = 0;
    u64 overflow = 0;
    std::vector<u64> admitted_bytes;      // queue accounting, retired at batch end
    std::vector<std::size_t> stats_rows;  // probe slots, settled at batch end
    clock::time_point first_dispatch{};
    std::string_view line;
    for (batch_reader::item item; (item = next(&line)) != batch_reader::item::end;) {
        const u64 i = lines++;
        if (item == batch_reader::item::overflow) {
            // Past a batch cap: the line's content is gone and its slot
            // settles right away with an overloaded row.
            ++overflow;
            pending p;
            p.row = overloaded_row(i, admission_.options().retry_after_ms);
            p.ready = true;
            std::lock_guard lock(w.m);
            w.rows.push_back(std::move(p));
            ++w.errors;
            drain();
            continue;
        }

        const auto line_started = clock::now();
        line_trace lt;
        parsed_line pl = parse_one_line(line, i, batch_seq, tracing, wall_clock, tracer,
                                        parse_ns, resolve_ns, &cache_, admission_, &lt);
        if (pl.admitted) admitted_bytes.push_back(line.size());
        if (pl.shed) ++shed;

        // Append this line's slots to the window; error and shed slots are
        // ready now and may drain at once.
        std::size_t first_row;
        {
            std::lock_guard lock(w.m);
            first_row = w.rows.size();
            for (std::size_t k = 0; k < pl.items.size(); ++k) {
                parsed_line::item& it = pl.items[k];
                if (it.stats_row) stats_rows.push_back(w.rows.size());
                pending p;
                p.row = std::move(it.row);
                p.ready = !it.spec && !it.stats_row;
                if (!p.row.error.empty()) ++w.errors;
                if (k + 1 == pl.items.size()) {
                    p.line_last = true;
                    p.line_started = line_started;
                    p.lt = lt;
                }
                w.rows.push_back(std::move(p));
            }
            drain();
        }

        // Dispatch the line's jobs; each completion hook fills its slot and
        // advances the prefix.
        for (std::size_t k = 0; k < pl.items.size(); ++k) {
            parsed_line::item& it = pl.items[k];
            if (!it.spec) continue;
            if (jobs++ == 0) first_dispatch = clock::now();
            admission_.jobs_started(1);
            pool_.submit_indexed(
                first_row + k, /*base_seed=*/0,
                [this, spec = std::move(*it.spec)](const sim::job_context&) {
                    return outcomes_.outcome_for(spec);
                },
                [this, &w, &drain, &sim_instructions, &sim_big_cycles](
                    const sim::job_context& ctx, sim::run_outcome result,
                    std::exception_ptr error) {
                    admission_.jobs_finished(1);
                    std::lock_guard lock(w.m);
                    pending& p = w.rows[ctx.index];
                    if (error) {
                        // Neighbours may already be out, so the exception
                        // settles in-slot instead of failing the batch.
                        try {
                            std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            p.row.error = e.what();
                        } catch (...) {
                            p.row.error = "job failed";
                        }
                        ++w.errors;
                    } else if (!result.error.empty()) {
                        // A run the simulator aborted is an error row too.
                        p.row.error = std::move(result.error);
                        ++w.errors;
                    } else {
                        sim_instructions.add(result.instructions);
                        sim_big_cycles.add(result.cycles);
                        p.row.outcome = std::move(result);
                    }
                    p.ready = true;
                    ++w.jobs_done;
                    w.last_done = clock::now();
                    drain();
                    w.cv.notify_all();
                },
                tracing ? lt.root : obs::trace_context{});
        }
    }
    if (lines == 0) return 0;

    // Batch end. Once every job has completed no hook can touch the window,
    // so its stack captures cannot outlive this frame.
    std::unique_lock lock(w.m);
    w.cv.wait(lock, [&] { return w.jobs_done == jobs; });
    // One execute-stage sample per batch: first dispatch to last completion
    // (per-job queue-wait/run splits live in the pool histograms and, when
    // tracing, in per-job queue_wait/run spans).
    if (jobs > 0) execute_ns.record(elapsed_ns(first_dispatch, w.last_done));
    for (const u64 bytes : admitted_bytes) admission_.retire_line(bytes);
    if (overflow > 0) admission_.note_batch_overflow(overflow);

    if (stats) {
        stats->requests += lines;
        stats->rows += w.rows.size();
        stats->jobs += jobs;
        stats->errors += w.errors;
        stats->shed += shed + overflow;
    }
    metrics_.get_counter("service.requests").add(lines);
    metrics_.get_counter("service.rows").add(w.rows.size());
    metrics_.get_counter("service.jobs").add(jobs);
    metrics_.get_counter("service.errors").add(w.errors);

    // Stats rows last: the snapshot includes this batch's own counters and
    // every line's request_ns sample, and is built once however many stats
    // lines the batch carried.
    if (!stats_rows.empty()) {
        for (std::size_t k = w.next_emit; k < w.rows.size(); ++k) settle_line(w.rows[k]);
        const std::string snapshot_json = obs::stats_json(stats_snapshot());
        for (const std::size_t k : stats_rows) {
            response_row& row = w.rows[k].row;
            json_object_writer jw;
            jw.field("request", row.request_index);
            jw.field("repeat", u64{0});
            if (!row.id.empty()) jw.field("id", row.id);
            jw.field_raw("stats", snapshot_json);
            row.raw = jw.str();
            w.rows[k].ready = true;
        }
        drain();
    }
    return lines;
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
