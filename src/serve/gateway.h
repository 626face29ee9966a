// The sharding gateway: a front-end that makes a pool of meek_serve workers
// look like one service. It runs the same batch core as serve::service
// (serve/batch_core.h) — framing, the line step, admission, the reorder
// window, the stream front — so lines that parse or resolve to an error, or
// that admission or the batch caps shed, settle here with the bytes a
// single-process service emits and never reach a worker. What differs:
//
// Sharding: once the whole batch is read, the remaining lines are sharded
// *cost-aware* across the live workers: each line's estimated cost
// (sim::cost_hint of its resolved spec, times its repeats) feeds
// sched::balanced_assignment, a pure function of (costs, live workers); on a
// batch of equal-cost lines it degenerates to round-robin.
//
// Merge: each worker answers its sub-batch in order, so its rows are checked
// against the slots they fill — the next owed (line, repeat), or one
// "overloaded" row settling a line the worker shed. The only rewrite is the
// "request" index, translated from the worker's sub-batch numbering to the
// global one; every other byte passes through. A row that breaks this order,
// or a stream that ends early, fails the worker: every slot it still owed
// becomes an in-slot error row and the rest of the batch is unaffected.
//
// Workers are child processes (`meek_serve --framed --quiet` over stdio
// pipes) or framed socket endpoints (`meek_serve --listen`). Before each
// batch, process workers are probed for silent exits and failed workers are
// revived (respawned or reconnected); a worker that cannot be revived is
// evicted from the assignment with exponential backoff, in batches, on
// further attempts. Only when *no* worker is alive do slots come back as
// error rows.
//
// The SLO feedback loop reads the worker round-trip histogram.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/batch_core.h"
#include "serve/transport.h"

namespace meek::serve {

struct gateway_options {
    // Process workers: spawn `workers` copies of `worker_argv` (the command
    // should speak framed batches on stdio, i.e. meek_serve --framed).
    // Ignored when `endpoints` is non-empty.
    u32 workers = 2;
    std::vector<std::string> worker_argv;

    // Remote workers: framed socket endpoints, one worker each.
    std::vector<endpoint_address> endpoints;

    batch_limits limits;          // per-batch line/byte buffering caps
    admission_options admission;  // front-end admission control (default off)
    // Nonempty clauses => after each batch the worker round-trip burn rate
    // against this spec feeds admission (tighten on violation, recover).
    obs::slo_spec slo_feedback;
};

using gateway_stats = batch_stats;

class gateway : public batch_core {
public:
    // Spawns / connects the pool. A worker that cannot be brought up is
    // recorded as failed (revival is retried before every batch) rather than
    // aborting the gateway; `ok()` is false only when *no* worker came up.
    explicit gateway(const gateway_options& opts);
    ~gateway() override;

    bool ok() const { return alive_workers() > 0; }
    std::size_t worker_count() const { return workers_.size(); }
    std::size_t alive_workers() const;

    // Shard one batch across the pool and merge the responses: one NDJSON
    // row per (request, repeat) in global order, ready to print.
    std::vector<std::string> evaluate(const std::vector<std::string>& lines,
                                      gateway_stats* stats = nullptr);

    // Pour the gateway's observability into `snap`: the session totals as
    // gateway.* counters, the per-sub-batch worker round-trip latency
    // histogram (write of the first request line to the end-of-batch marker,
    // per worker per batch), an alive-workers gauge, and per-worker
    // gateway.worker.<k>.error_rows / .respawns counters — error rows are
    // attributed to the worker that emitted (or, for synthesized rows, owed)
    // them, so one flaky worker is visible by index.
    void contribute_metrics(obs::metrics_snapshot& snap,
                            const gateway_stats& totals) const;

private:
    struct worker;
    class fan_out;

    u64 run_batch(line_source next, row_sink sink, batch_stats* stats) override;

    // Between-batches lifecycle pass: probe process workers for silent exits,
    // then respawn/reconnect every failed worker. Returns how many revived.
    std::size_t revive_workers();

    const gateway_options opts_;
    std::vector<std::unique_ptr<worker>> workers_;
    // Worker sub-batch round-trip latency (gateway.worker_rt_ns), recorded
    // concurrently by the per-worker fan-out threads.
    obs::atomic_log_histogram& worker_rt_ns_;
};

}  // namespace meek::serve
