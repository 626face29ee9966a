// The batched evaluation service: a long-lived session that owns one
// executor and one content-addressed workload cache, accepts batches of
// NDJSON run requests through the batch core (serve/batch_core.h: framing,
// the line step, admission, the reorder window, the stream front), and runs
// one pool job per (request, repeat) slot as each line arrives.
//
// Determinism contract: for a given batch text, the response byte stream is
// identical at any thread count and any cache capacity — scheduling affects
// wall-clock only. Requests that fail to parse or resolve, and jobs that
// throw or abort, produce error rows in their slot instead of aborting the
// batch. Pool workers only serialize rows; they never write to a client.
//
// A {"stats":true} line answers with one row carrying this session's
// stats_snapshot(), taken after the batch's own counters are added.
#pragma once

#include "serve/batch_core.h"
#include "serve/outcome_cache.h"
#include "serve/workload_cache.h"
#include "sim/executor.h"

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

class service : public batch_core {
public:
    explicit service(const service_options& opts = {});

    // Evaluate one batch of request lines; rows come back ordered by
    // (request index, repeat).
    std::vector<response_row> evaluate(const std::vector<std::string>& lines,
                                       batch_stats* stats = nullptr) {
        return evaluate_rows(lines, stats);
    }

    const workload_cache& cache() const { return cache_; }
    const outcome_cache& outcomes() const { return outcomes_; }
    sim::executor& pool() { return pool_; }

    // The session's full observability picture: the registry's counters and
    // per-stage latency histograms (service.parse_ns / resolve_ns /
    // execute_ns / request_ns / serialize_ns), overlaid with the
    // workload/outcome cache stats, the admission controller's
    // counters/gauges, and the executor's pool counters + queue-wait/run
    // histograms, in one sorted snapshot. This is what `meek_serve
    // --stats-json` exports and what a `{"stats":true}` request line returns.
    obs::metrics_snapshot stats_snapshot() const;

private:
    class pool_batch;
    u64 run_batch(line_source next, row_sink sink, batch_stats* stats) override;

    workload_cache cache_;
    outcome_cache outcomes_;
    sim::executor pool_;
};

}  // namespace meek::serve
