// Admission control for the serve path: the component that decides, at
// line-parse time, whether a request is allowed to queue or is shed with an
// in-slot `{"error":"overloaded","retry_after_ms":N}` row.
//
// Three pressure signals, each optional (0 = unlimited):
//   * in-flight jobs   — simulations submitted to the executor and not yet
//                        completed, counted from dispatch (the pipelined
//                        executor's saturation signal);
//   * queued lines     — request lines admitted and not yet retired
//                        (buffered ahead of evaluation);
//   * queued bytes     — the same backlog, in request bytes;
// plus an optional token-bucket line rate (lines/second with a burst cap) for
// front-ends that want a hard ceiling on arrival rate regardless of backlog.
//
// SLO feedback loop: `observe_burn_rate` feeds the PR-8 slo monitor's worst
// window burn rate (observed/threshold) back into admission. A burning SLO
// (rate > 1) tightens every limit by `tighten_factor`; a healthy window
// loosens them by `recover_factor` back toward 1.0. The scale floor keeps a
// melted-down service from shedding literally everything — some probes must
// get through for recovery to be observable.
//
// Decisions are load-dependent by nature, but with limits disabled (the
// default-constructed controller) every line is admitted at zero cost, so
// golden byte-identity contracts are untouched.
//
// Thread-safe: one controller is shared by every connection of a service
// (that is the point — admission guards the *process*, not one stream).
#pragma once

#include <mutex>
#include <string>

#include "common/types.h"
#include "obs/metrics.h"

namespace meek::serve {

struct admission_options {
    bool enabled = false;
    u64 max_inflight_jobs = 0;  // executor jobs submitted, not completed
    u64 max_queue_lines = 0;    // admitted lines not yet retired
    u64 max_queue_bytes = 0;    // admitted bytes not yet retired
    double line_rate = 0.0;     // token bucket: lines/second (0 = off)
    u64 line_burst = 64;        // token bucket capacity
    u64 retry_after_ms = 100;   // base resubmit hint in shed rows

    // SLO feedback shape (see observe_burn_rate).
    double tighten_factor = 0.5;
    double recover_factor = 1.25;
    double min_scale = 0.125;
};

struct admission_stats {
    u64 admitted = 0;
    u64 shed = 0;               // every shed line, whatever the cause
    u64 shed_inflight = 0;      // by cause, summing (with batch_limit) to shed
    u64 shed_queue_lines = 0;
    u64 shed_queue_bytes = 0;
    u64 shed_line_rate = 0;
    u64 shed_batch_limit = 0;   // batch_reader overflow rows (noted, not decided)
    u64 slo_tightenings = 0;
    u64 slo_recoveries = 0;
};

class admission_controller {
public:
    admission_controller() = default;
    explicit admission_controller(const admission_options& opts) : opts_(opts) {}

    bool enabled() const { return opts_.enabled; }
    const admission_options& options() const { return opts_; }

    struct decision {
        bool admit = true;
        u64 retry_after_ms = 0;     // nonzero only when shed
        const char* reason = nullptr;  // "inflight" | "queue_lines" | ...
    };

    // Consulted once per parsed request line. `line_bytes` is the wire size
    // of the line, `estimated_jobs` its fan-out (repeats). `now_ns` feeds the
    // token bucket; 0 means "read the steady clock" — tests pass explicit
    // times so rate decisions are deterministic. An admitted line must later
    // be retired (retire_line) to release its queue accounting.
    decision admit_line(u64 line_bytes, u64 estimated_jobs, u64 now_ns = 0);

    // Queue/backlog accounting: a line admitted by admit_line is retired once
    // its rows are settled (emitted or merged).
    void retire_line(u64 line_bytes);

    // In-flight job accounting, bumped by the executor submit/completion
    // hooks of whoever owns this controller.
    void jobs_started(u64 n);
    void jobs_finished(u64 n);

    // Batch-limit overflow rows are shed rows too — they just were decided by
    // batch_reader's caps instead of this controller. Keep one ledger.
    void note_batch_overflow(u64 lines);

    // Feed the slo monitor's worst-window burn rate: > 1 tightens the
    // effective limits (each limit scales by `scale()`), <= 1 recovers
    // toward full capacity. No-op while admission is disabled.
    void observe_burn_rate(double burn_rate);

    u64 inflight_jobs() const;
    u64 queued_lines() const;
    u64 queued_bytes() const;
    double scale() const;
    admission_stats stats() const;

    // admission.* counters and gauges for the metrics snapshot.
    void contribute_metrics(obs::metrics_snapshot& snap) const;

    // The "admission" section of meek.stats.v1: configured limits, live
    // scale/backlog, and the shed ledger, as one JSON object fragment.
    std::string to_json() const;

private:
    u64 effective(u64 limit) const;  // limit scaled by scale_, floored at 1

    admission_options opts_;
    mutable std::mutex mutex_;
    u64 inflight_jobs_ = 0;
    u64 queued_lines_ = 0;
    u64 queued_bytes_ = 0;
    double scale_ = 1.0;
    double tokens_ = -1.0;  // token bucket fill; <0 = not yet initialized
    u64 last_refill_ns_ = 0;
    admission_stats stats_;
};

}  // namespace meek::serve
