#include "serve/gateway.h"

#include <algorithm>
#include <cctype>
#include <istream>
#include <optional>
#include <ostream>
#include <thread>

#include "sched/placement.h"

namespace meek::serve {
namespace {

// Translate a worker row's sub-batch request index to the global one in
// place. The writer emits "request" as the first key, so this touches only
// the row's numeric prefix — every other byte passes through verbatim, which
// is what keeps the merged stream byte-identical to a single-process run.
bool rewrite_request_index(std::string* line, u64 global_index) {
    const std::size_t key = line->find("\"request\":");
    if (key == std::string::npos) return false;
    const std::size_t start = key + 10;
    std::size_t end = start;
    while (end < line->size() &&
           std::isdigit(static_cast<unsigned char>((*line)[end]))) {
        ++end;
    }
    if (end == start) return false;
    line->replace(start, end - start, std::to_string(global_index));
    return true;
}

// Insert ',"trace":{...}' before the closing brace of a request line the
// gateway verified parses, preserving every other byte — the worker adopts
// the gateway's context and parents its "request" span under our root.
std::string inject_trace_field(const std::string& line, const obs::trace_context& ctx) {
    const std::size_t close = line.rfind('}');
    if (close == std::string::npos) return line;
    std::string out = line.substr(0, close);
    out += ",\"trace\":{\"trace_id\":" + std::to_string(ctx.trace_id) +
           ",\"span_id\":" + std::to_string(ctx.span_id) + "}";
    out += line.substr(close);
    return out;
}

}  // namespace

// One endpoint of the pool: a spawned child process or a connected socket.
struct gateway::worker {
    std::unique_ptr<child_process> proc;
    std::unique_ptr<fd_stream> sock;
    std::optional<endpoint_address> endpoint;  // reconnect target (socket workers)
    bool failed = false;
    std::string failure;  // diagnostic detail (not part of the wire protocol)

    std::iostream* io() {
        if (proc) return &proc->io();
        return sock.get();
    }

    // Revival backoff, in batches: the first retry is immediate, but a
    // worker that keeps failing to come back is retried at doubling
    // intervals (capped) — a dead TCP endpoint means a blocking connect()
    // with no timeout, and paying that stall on every batch would let one
    // unreachable host throttle the whole session.
    u32 retry_backoff = 1;
    u32 batches_until_retry = 0;

    // Session-lifetime observability, surfaced per worker index through
    // gateway::contribute_metrics. error_rows counts both error rows this
    // worker actually returned and rows synthesized for slots it owed when
    // it failed mid-batch; respawns counts successful revivals.
    u64 error_rows = 0;
    u64 respawns = 0;

    // Unblock a writer stuck on a worker that stopped reading.
    void hang_up() {
        if (proc) proc->kill();
        if (sock) sock->hang_up();
    }

    void fail(const std::string& why) {
        failed = true;
        if (failure.empty()) failure = why;
    }

    void revive() {
        failed = false;
        failure.clear();
        retry_backoff = 1;
        batches_until_retry = 0;
    }

    void revival_failed() {
        batches_until_retry = retry_backoff;
        retry_backoff = std::min<u32>(retry_backoff * 2, 16);
    }
};

gateway::gateway(const gateway_options& opts)
    : batch_core({.name = "gateway",
                  .root_span = "gateway.request",
                  .stage_spans = false,
                  .slo_latency = "gateway.worker_rt_ns",
                  .limits = opts.limits,
                  .admission = opts.admission,
                  .slo_feedback = opts.slo_feedback}),
      opts_(opts),
      worker_rt_ns_(metrics_.get_histogram("gateway.worker_rt_ns")) {
    if (!opts_.endpoints.empty()) {
        for (const endpoint_address& addr : opts_.endpoints) {
            auto w = std::make_unique<worker>();
            w->endpoint = addr;
            std::string error;
            w->sock = connect_endpoint(addr, &error);
            if (!w->sock) w->fail("connect " + addr.describe() + ": " + error);
            workers_.push_back(std::move(w));
        }
        return;
    }
    for (u32 i = 0; i < opts_.workers; ++i) {
        auto w = std::make_unique<worker>();
        std::string error;
        w->proc = child_process::spawn(opts_.worker_argv, {}, &error);
        if (!w->proc) w->fail("spawn: " + error);
        workers_.push_back(std::move(w));
    }
}

gateway::~gateway() {
    // EOF on every child's stdin first, then reap: a pool of workers shuts
    // down in parallel instead of one blocking wait at a time. A worker that
    // desynced may be deaf to EOF (blocked mid-write, wedged), so failed
    // workers are killed outright — wait() must never hang the front-end.
    for (const auto& w : workers_) {
        if (!w->proc) continue;
        w->proc->close_stdin();
        if (w->failed) w->proc->kill();
    }
    for (const auto& w : workers_) {
        if (w->proc) w->proc->wait();
    }
}

std::size_t gateway::alive_workers() const {
    std::size_t n = 0;
    for (const auto& w : workers_) {
        if (!w->failed) ++n;
    }
    return n;
}

std::size_t gateway::revive_workers() {
    std::size_t revived = 0;
    for (const auto& wp : workers_) {
        worker& w = *wp;
        // A process worker that exited after a clean batch would otherwise be
        // counted healthy until this batch's write came back EPIPE — the
        // "dead worker looks healthy" hole.
        if (!w.failed && w.proc && w.proc->poll_exited()) {
            w.fail("worker exited between batches");
        }
        if (!w.failed) continue;
        if (w.batches_until_retry > 0) {
            --w.batches_until_retry;
            continue;
        }
        if (w.endpoint) {
            std::string error;
            if (auto sock = connect_endpoint(*w.endpoint, &error)) {
                w.sock = std::move(sock);
                w.revive();
                ++w.respawns;
                ++revived;
            } else {
                w.revival_failed();
            }
        } else if (!opts_.worker_argv.empty()) {
            if (w.proc) {
                w.proc->kill();
                w.proc->wait();
            }
            std::string error;
            if (auto proc = child_process::spawn(opts_.worker_argv, {}, &error)) {
                w.proc = std::move(proc);
                w.revive();
                ++w.respawns;
                ++revived;
            } else {
                w.revival_failed();
            }
        }
        // Still failed: the worker stays evicted — the assignment below
        // simply routes nothing to it.
    }
    return revived;
}

// The gateway's half of one batch: collect the lines the step left pending,
// then, once the batch is read, shard them, exchange each sub-batch with its
// worker, and fill whatever a failed worker still owed.
class gateway::fan_out final : public batch_core::backend {
public:
    explicit fan_out(gateway& gw) : gw_(gw) {}

    void dispatch(window&, pending_line& line) override {
        // The sharding cost: the executor's estimate for the line's jobs,
        // times its repeats. A stats probe costs nothing.
        costs_.resize(line.index + 1, 0.0);
        if (!line.specs.empty()) {
            costs_[line.index] = sim::cost_hint(line.specs.front()) *
                                 static_cast<double>(line.specs.size());
        }
        // Verbatim bytes, plus a minted trace context on a line that runs,
        // so the worker's "request" span parents under ours.
        std::string wire(line.raw);
        if (line.minted && !line.specs.empty()) wire = inject_trace_field(wire, line.root);
        forwarded_.push_back({line.index, std::move(wire), line.root, 0});
    }

    void finish(window& w, batch_stats* stats) override {
        const std::size_t num_workers = gw_.workers_.size();
        const std::size_t revived = gw_.revive_workers();
        const std::size_t failed_before = num_workers - gw_.alive_workers();

        // Cost-aware sharding over the *live* workers, with every line of the
        // batch costed (0 for lines settled here): a pure function of (costs,
        // live set). Which worker owns a line can shift when the pool
        // degrades, but row bytes and order are functions of the global
        // index, so the merged output cannot. With no live worker, lines keep
        // a nominal owner whose slots fill with error rows below.
        std::vector<std::size_t> alive;
        for (std::size_t k = 0; k < num_workers; ++k) {
            if (!gw_.workers_[k]->failed) alive.push_back(k);
        }
        costs_.resize(w.lines.size(), 0.0);  // session thread: no lock needed
        const std::vector<std::size_t> bins =
            sched::balanced_assignment(costs_, std::max<std::size_t>(alive.size(), 1));
        std::vector<std::vector<const forwarded*>> owned(num_workers);
        for (forwarded& f : forwarded_) {
            if (alive.empty()) {
                f.owner = num_workers == 0 ? 0 : f.index % num_workers;
            } else {
                f.owner = alive[bins[f.index]];
            }
            if (num_workers > 0) owned[f.owner].push_back(&f);
        }

        std::vector<std::jthread> threads;  // joined on unwind too
        for (std::size_t k = 0; k < num_workers; ++k) {
            if (owned[k].empty() || gw_.workers_[k]->failed) continue;
            threads.emplace_back([this, &w, &owned, k] {
                exchange(w, *gw_.workers_[k], owned[k]);
            });
        }
        for (std::jthread& t : threads) t.join();

        // Fill the slots a failed worker still owed: one error row per
        // missing (request, repeat), in place, so the batch shape survives
        // any worker dying.
        {
            std::lock_guard lock(w.m);
            for (const forwarded& f : forwarded_) {
                line_slot& slot = w.lines[f.index];
                for (std::size_t r = slot.rows.size() - slot.owed; r < slot.rows.size(); ++r) {
                    slot.rows[r].error = "gateway: worker " + std::to_string(f.owner) +
                                         " failed mid-batch";
                    if (num_workers > 0) ++gw_.workers_[f.owner]->error_rows;
                }
                slot.owed = 0;
            }
            w.drain();
        }
        if (stats) {
            stats->workers_respawned += revived;
            // Only failures during this batch; a worker lost earlier in the
            // session was already counted.
            stats->worker_failures += (num_workers - gw_.alive_workers()) - failed_before;
        }
    }

private:
    struct forwarded {
        std::size_t index;  // global request index
        std::string wire;   // the bytes sent to the worker
        obs::trace_context root;
        std::size_t owner;
    };

    // One worker's sub-batch: write it while reading the rows back — a
    // worker answers lines while it reads the rest, so writing everything
    // first deadlocks once the sub-batch and its rows outgrow the pipe or
    // socket buffers. Each row must fill the next owed slot, in (line,
    // repeat) order; anything else, or EOF before the end-of-batch marker,
    // fails the worker.
    void exchange(window& w, worker& wk, const std::vector<const forwarded*>& owned) {
        std::streambuf* const link = wk.io()->rdbuf();
        const auto rt_start = clock::now();
        obs::tracer& tracer = obs::tracer::instance();
        const bool tracing = tracer.enabled();
        // Per-line ticks on the line's own timeline: a worker-rt span never
        // depends on which worker (or how many) ran the sub-batch.
        std::vector<u64> rt_begin;
        if (tracing) {
            for (const forwarded* f : owned) rt_begin.push_back(tracer.now_ns(f->root.trace_id));
        }
        bool wrote = false;
        std::jthread writer([&] {
            std::ostream out(link);  // the streambuf's put area, apart from reads
            for (const forwarded* f : owned) out << f->wire << '\n';
            out << '\n';
            out.flush();
            wrote = out.good();
        });
        std::istream io(link);
        std::size_t at = 0;  // owned[at] is the line the next row fills
        // Fill the next owed slot with one worker row; false when the row
        // is not that slot's.
        const auto take = [&](std::string_view text) {
            std::string raw{strip_cr(text)};
            std::optional<response_row> row = parse_response(raw);
            if (!row || at >= owned.size() || row->request_index != at ||
                !rewrite_request_index(&raw, owned[at]->index)) {
                return false;
            }
            std::lock_guard lock(w.m);
            line_slot& slot = w.lines[owned[at]->index];
            const std::size_t repeat = slot.rows.size() - slot.owed;
            if (row->repeat != repeat) return false;
            if (!row->error.empty()) ++wk.error_rows;
            if (repeat == 0 && row->error == "overloaded") {
                // The worker shed the line: one row settles it.
                slot.rows.resize(1);
                slot.owed = 1;
            }
            row->request_index = owned[at]->index;
            row->raw = std::move(raw);
            slot.rows[repeat] = std::move(*row);
            if (--slot.owed > 0) return true;
            if (tracing) {
                const obs::trace_context& root = owned[at]->root;
                const u64 id = root.trace_id;
                tracer.record(id, obs::derive_span_id(id, root.span_id, "gateway.worker_rt"),
                              root.span_id, "gateway.worker_rt", rt_begin[at],
                              tracer.now_ns(id));
            }
            ++at;
            w.drain();
            return true;
        };
        const char* failure = "EOF before end-of-batch marker";
        std::string line;
        while (std::getline(io, line)) {
            if (is_blank_line(line)) {  // end-of-batch marker
                failure = at == owned.size() ? nullptr : "desynced response stream";
                break;
            }
            if (!take(line)) {
                failure = "desynced response stream";
                break;
            }
        }
        if (!failure) gw_.worker_rt_ns_.record(elapsed_ns(rt_start, clock::now()));
        // A worker we stopped reading may have stopped reading us too.
        if (failure) wk.hang_up();
        writer.join();
        if (!wrote) wk.fail("write to worker failed");
        if (failure) wk.fail(failure);
    }

    gateway& gw_;
    std::vector<double> costs_;          // per request index
    std::vector<forwarded> forwarded_;  // in request order
};

u64 gateway::run_batch(line_source next, row_sink sink, batch_stats* stats) {
    fan_out be(*this);
    return run_lines(next, sink, stats, be);
}

std::vector<std::string> gateway::evaluate(const std::vector<std::string>& lines,
                                           gateway_stats* stats) {
    std::vector<std::string> out;
    for (const response_row& row : evaluate_rows(lines, stats)) out.push_back(to_json(row));
    return out;
}

void gateway::contribute_metrics(obs::metrics_snapshot& snap,
                                 const gateway_stats& totals) const {
    snap.set_counter("gateway.requests", totals.requests);
    snap.set_counter("gateway.rows", totals.rows);
    snap.set_counter("gateway.errors", totals.errors);
    snap.set_counter("gateway.worker_failures", totals.worker_failures);
    snap.set_counter("gateway.workers_respawned", totals.workers_respawned);
    snap.set_counter("gateway.shed", totals.shed);
    snap.set_counter("gateway.stream_errors", totals.stream_errors);
    snap.set_counter("gateway.client_aborts", totals.client_aborts);
    admission_.contribute_metrics(snap);
    snap.set_gauge("gateway.workers", workers_.size());
    snap.set_gauge("gateway.workers_alive", alive_workers());
    snap.add_histogram("gateway.worker_rt_ns", worker_rt_ns_.snapshot());
    for (std::size_t k = 0; k < workers_.size(); ++k) {
        const std::string p = "gateway.worker." + std::to_string(k);
        snap.set_counter(p + ".error_rows", workers_[k]->error_rows);
        snap.set_counter(p + ".respawns", workers_[k]->respawns);
        snap.set_gauge(p + ".alive", workers_[k]->failed ? 0 : 1);
    }
}

}  // namespace meek::serve
