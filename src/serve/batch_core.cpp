#include "serve/batch_core.h"

#include <condition_variable>
#include <istream>
#include <ostream>
#include <thread>

#include "common/log.h"

namespace meek::serve {

// What the line step reads, resolved once per batch: recording is
// relaxed-atomic, so no lock is needed.
struct batch_core::step_context {
    obs::tracer& tracer;
    bool tracing;
    bool wall_clock;
    u64 batch_seq;
    obs::atomic_log_histogram& parse_ns;
    obs::atomic_log_histogram& resolve_ns;
};

batch_core::batch_core(const config& cfg) : cfg_(cfg), admission_(cfg.admission) {}

void batch_core::window::settle(line_slot& slot) {
    if (slot.settled) return;
    slot.settled = true;
    rows_ += slot.rows.size();
    for (const response_row& row : slot.rows) errors_ += row.error.empty() ? 0 : 1;
    if (!slot.timed) return;
    request_ns_->record(elapsed_ns(slot.started, clock::now()));
    const line_trace& lt = slot.trace;
    if (lt.root) {
        obs::tracer& tracer = obs::tracer::instance();
        tracer.record(lt.root.trace_id, lt.root.span_id, lt.parent_span,
                      core_.cfg_.root_span, lt.root_begin,
                      tracer.now_ns(lt.root.trace_id));
    }
}

void batch_core::window::drain() {
    std::vector<response_row> ready;
    while (next_emit_ < lines.size() && lines[next_emit_].owed == 0) {
        line_slot& slot = lines[next_emit_++];
        settle(slot);
        for (response_row& row : slot.rows) ready.push_back(std::move(row));
    }
    if (!ready.empty()) sink_(std::move(ready));
}

std::vector<sim::run_spec> batch_core::line_step(std::string_view raw, std::size_t index,
                                                 const step_context& ctx,
                                                 line_slot& slot, bool* admitted,
                                                 bool* shed) {
    obs::tracer& tracer = ctx.tracer;
    const auto parse_start = clock::now();
    // Wall-mode span timestamps come from the tracer's own clock, and the
    // root span starts before the trace id is known — take the pre-parse
    // reading on the (ignored) zero timeline. Virtual mode must not tick a
    // foreign timeline; it stamps after minting instead.
    const u64 pre_parse_ns = ctx.tracing && ctx.wall_clock ? tracer.now_ns(0) : 0;

    std::string stats_id;
    parsed_request parsed;
    const bool is_stats = parse_stats_request(strip_cr(raw), &stats_id);
    if (!is_stats) parsed = parse_request(strip_cr(raw));
    const bool runs = !is_stats && parsed.ok();
    ctx.parse_ns.record(elapsed_ns(parse_start, clock::now()));

    line_trace& lt = slot.trace;
    if (ctx.tracing) {
        u64 trace_id = 0;
        if (runs && parsed.request.trace) {
            trace_id = parsed.request.trace->trace_id;
            lt.parent_span = parsed.request.trace->span_id;
        } else {
            trace_id = obs::mint_trace_id(ctx.batch_seq, index);
            lt.minted = true;
        }
        lt.root.trace_id = trace_id;
        lt.root.span_id = obs::derive_span_id(trace_id, lt.parent_span, cfg_.root_span);
        lt.root_begin = ctx.wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);
        if (cfg_.stage_spans) {
            const u64 parse_begin = ctx.wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);
            tracer.record(trace_id, obs::derive_span_id(trace_id, lt.root.span_id, "parse"),
                          lt.root.span_id, "parse", parse_begin, tracer.now_ns(trace_id));
        }
    }

    // The fields every row of this line shares. row.trace parents the
    // row's "serialize" span.
    response_row base;
    base.request_index = index;
    if (ctx.tracing && cfg_.stage_spans) base.trace = {lt.root.trace_id, 0};
    if (is_stats) {
        base.id = std::move(stats_id);
        slot.rows.push_back(std::move(base));
        slot.owed = 1;
        return {};
    }
    if (!runs) {
        base.error = parsed.error;
        slot.rows.push_back(std::move(base));
        return {};
    }

    const run_request& req = parsed.request;
    // Admission gate, at line-parse time: only lines that would queue real
    // work are offered (stats probes stay free — they are how an operator
    // watches an overloaded service; malformed lines never queue anything).
    const admission_controller::decision gate = admission_.admit_line(raw.size(), req.repeats);
    if (!gate.admit) {
        slot.rows.push_back(overloaded_row(index, gate.retry_after_ms, req.id));
        slot.rows.back().trace = base.trace;
        *shed = true;
        return {};
    }
    *admitted = true;

    base.id = req.id;
    const obs::trace_context stage_root = cfg_.stage_spans ? lt.root : obs::trace_context{};
    std::vector<sim::run_spec> specs;
    for (u64 r = 0; r < req.repeats; ++r) {
        sim::run_spec spec;
        const auto resolve_start = clock::now();
        obs::trace_span resolve_span(stage_root, "resolve", r);
        const std::string err = resolve_request(req, r, &spec);
        resolve_span.close();
        ctx.resolve_ns.record(elapsed_ns(resolve_start, clock::now()));
        if (!err.empty()) {  // a request that cannot resolve yields one error row
            slot.rows.clear();
            base.error = err;
            slot.rows.push_back(std::move(base));
            return {};
        }
        slot.rows.push_back(base);
        slot.rows.back().repeat = r;
        slot.rows.back().seed = spec.workload_seed;
        specs.push_back(std::move(spec));
    }
    slot.owed = specs.size();
    return specs;
}

u64 batch_core::run_lines(line_source next, row_sink sink, batch_stats* stats,
                          backend& be) {
    obs::tracer& tracer = obs::tracer::instance();
    const bool tracing = tracer.enabled();
    const step_context ctx{
        tracer,
        tracing,
        tracer.clock_mode() == obs::trace_clock_mode::wall,
        tracing ? batch_seq_.fetch_add(1) : batch_seq_.load(),
        metrics_.get_histogram(cfg_.name + ".parse_ns"),
        metrics_.get_histogram(cfg_.name + ".resolve_ns"),
    };
    window w(*this, sink);
    w.request_ns_ = &metrics_.get_histogram(cfg_.name + ".request_ns");

    // The session thread's input loop: read, step, dispatch, line by line.
    u64 lines = 0;
    u64 shed = 0;
    u64 overflow = 0;
    std::size_t rows = 0;
    std::vector<u64> admitted_bytes;  // queue accounting, retired at batch end
    std::string_view raw;
    for (batch_reader::item item; (item = next(&raw)) != batch_reader::item::end;) {
        const std::size_t i = lines++;
        line_slot slot;
        pending_line pl;
        if (item == batch_reader::item::overflow) {
            // Past a batch cap: the line's content is gone and its slot
            // settles right away with an overloaded row.
            ++overflow;
            slot.rows.push_back(overloaded_row(i, admission_.options().retry_after_ms));
        } else {
            slot.timed = true;
            slot.started = clock::now();
            bool admitted = false;
            bool line_shed = false;
            pl.specs = line_step(raw, i, ctx, slot, &admitted, &line_shed);
            if (admitted) admitted_bytes.push_back(raw.size());
            if (line_shed) ++shed;
            pl.index = i;
            pl.first_row = rows;
            pl.raw = raw;
            pl.root = slot.trace.root;
            pl.minted = slot.trace.minted;
        }
        rows += slot.rows.size();
        const bool pending = slot.owed > 0;
        {
            std::lock_guard lock(w.m);
            w.lines.push_back(std::move(slot));
            w.drain();
        }
        if (pending) be.dispatch(w, pl);
    }
    if (lines == 0) return 0;

    be.finish(w, stats);
    // Batch end: every line owes nothing but stats probes, so no backend
    // thread touches the window any more.
    std::lock_guard lock(w.m);
    w.drain();
    // Lines held behind a probe settle now: the probe's snapshot includes
    // their latency samples and rows.
    for (std::size_t k = w.next_emit_; k < w.lines.size(); ++k) w.settle(w.lines[k]);
    for (const u64 bytes : admitted_bytes) admission_.retire_line(bytes);
    if (overflow > 0) admission_.note_batch_overflow(overflow);
    if (stats) {
        stats->requests += lines;
        stats->rows += w.rows_;
        stats->errors += w.errors_;
        stats->shed += shed + overflow;
    }
    metrics_.get_counter(cfg_.name + ".requests").add(lines);
    metrics_.get_counter(cfg_.name + ".rows").add(w.rows_);
    metrics_.get_counter(cfg_.name + ".errors").add(w.errors_);
    be.answer_probes(w);
    w.drain();
    return lines;
}

std::vector<response_row> batch_core::evaluate_rows(const std::vector<std::string>& lines,
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

bool batch_core::serve_batch(std::istream& in, std::ostream& out, batch_stats* stats,
                             bool framed) {
    obs::atomic_log_histogram& serialize_ns =
        metrics_.get_histogram(cfg_.name + ".serialize_ns");
    batch_reader reader(in, cfg_.limits);

    // Rows are serialized into `bytes` by whichever thread drains them
    // (under the window mutex, often a backend thread); only this thread and
    // the batch's writer thread ever block on `out`.
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
            // A top-level span of the row's trace (zero context: no span).
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

    const char* tag = cfg_.name.c_str();
    if (reader.stream_error()) {
        metrics_.get_counter(cfg_.name + ".stream_errors").add(1);
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn, "%s: input stream died (I/O error, not EOF) after %llu lines", tag,
                 static_cast<unsigned long long>(lines));
    }
    if (lines == 0) return false;  // input exhausted before any request line

    if (ob.aborted) {
        metrics_.get_counter(cfg_.name + ".client_aborts").add(1);
        if (stats) stats->client_aborts += 1;
        MEEK_LOG(warn, "%s: client aborted mid-response, dropping connection", tag);
    }
    slo_feedback_tick();
    return !ob.aborted && !reader.stream_error();
}

batch_stats batch_core::serve_stream(std::istream& in, std::ostream& out, bool framed) {
    batch_stats total;
    while (serve_batch(in, out, &total, framed)) {
    }
    return total;
}

void batch_core::slo_feedback_tick() {
    if (cfg_.slo_feedback.clauses.empty() || !admission_.enabled()) return;
    std::lock_guard lock(slo_mutex_);
    slo_monitor_.observe(metrics_.get_histogram(cfg_.slo_latency).snapshot());
    const std::vector<obs::log_histogram> windows = slo_monitor_.windows();
    const obs::slo_report report = obs::evaluate_slo_windows(
        cfg_.slo_feedback, windows, metrics_.get_counter(cfg_.name + ".errors").value(),
        metrics_.get_counter(cfg_.name + ".rows").value());
    admission_.observe_burn_rate(report.max_burn_rate);
}

}  // namespace meek::serve
