#include "serve/service.h"

#include <condition_variable>

#include "obs/stats_json.h"
#include "serve/json.h"

namespace meek::serve {

service::service(const service_options& opts)
    : batch_core({.name = "service",
                  .root_span = "request",
                  .stage_spans = true,
                  .slo_latency = "service.request_ns",
                  .limits = opts.limits,
                  .admission = opts.admission,
                  .slo_feedback = opts.slo_feedback}),
      cache_(opts.cache_capacity),
      outcomes_(opts.outcome_capacity),
      pool_(opts.threads) {}

// The service's half of one batch: one pool job per slot, dispatched the
// moment its line is read; each completion fills its row and drains.
class service::pool_batch final : public batch_core::backend {
public:
    explicit pool_batch(service& svc)
        : svc_(svc),
          sim_instructions_(svc.metrics_.get_counter("sim.instructions")),
          sim_big_cycles_(svc.metrics_.get_counter("sim.big_cycles")) {}

    void dispatch(window& w, pending_line& line) override {
        if (line.specs.empty()) {  // a stats probe, answered at batch end
            probes_.push_back(line.index);
            return;
        }
        for (std::size_t k = 0; k < line.specs.size(); ++k) {
            sim::run_spec& spec = line.specs[k];
            spec.workloads = &svc_.cache_;
            if (jobs_++ == 0) first_dispatch_ = clock::now();
            svc_.admission_.jobs_started(1);
            svc_.pool_.submit_indexed(
                line.first_row + k, /*base_seed=*/0,
                [this, spec = std::move(spec)](const sim::job_context&) {
                    return svc_.outcomes_.outcome_for(spec);
                },
                [this, &w, index = line.index, k](const sim::job_context&,
                                                  sim::run_outcome result,
                                                  std::exception_ptr error) {
                    svc_.admission_.jobs_finished(1);
                    std::lock_guard lock(w.m);
                    line_slot& slot = w.lines[index];
                    response_row& row = slot.rows[k];
                    if (error) {
                        // Neighbours may already be out, so the exception
                        // settles in-slot instead of failing the batch.
                        try {
                            std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            row.error = e.what();
                        } catch (...) {
                            row.error = "job failed";
                        }
                    } else if (!result.error.empty()) {
                        // A run the simulator aborted is an error row too.
                        row.error = std::move(result.error);
                    } else {
                        // Simulated work, summed over every served outcome
                        // (cache hits included) — order-free adds.
                        sim_instructions_.add(result.instructions);
                        sim_big_cycles_.add(result.cycles);
                        row.outcome = std::move(result);
                    }
                    ++jobs_done_;
                    last_done_ = clock::now();
                    if (--slot.owed == 0) w.drain();
                    done_.notify_all();
                },
                line.root);
        }
    }

    void finish(window& w, batch_stats* stats) override {
        // Once every job has completed no hook can touch the window, so its
        // captures cannot outlive the batch.
        std::unique_lock lock(w.m);
        done_.wait(lock, [&] { return jobs_done_ == jobs_; });
        // One execute-stage sample per batch: first dispatch to last
        // completion (per-job splits live in the pool histograms and, when
        // tracing, in per-job queue_wait/run spans).
        obs::atomic_log_histogram& execute_ns =
            svc_.metrics_.get_histogram("service.execute_ns");
        if (jobs_ > 0) execute_ns.record(elapsed_ns(first_dispatch_, last_done_));
        svc_.metrics_.get_counter("service.jobs").add(jobs_);
        if (stats) stats->jobs += jobs_;
    }

    void answer_probes(window& w) override {
        if (probes_.empty()) return;
        // Built once however many probes the batch carried.
        const std::string snapshot_json = obs::stats_json(svc_.stats_snapshot());
        for (const std::size_t index : probes_) {
            line_slot& slot = w.lines[index];
            response_row& row = slot.rows.front();
            json_object_writer jw;
            jw.field("request", row.request_index);
            jw.field("repeat", u64{0});
            if (!row.id.empty()) jw.field("id", row.id);
            jw.field_raw("stats", snapshot_json);
            row.raw = jw.str();
            slot.owed = 0;
        }
    }

private:
    service& svc_;
    obs::counter& sim_instructions_;
    obs::counter& sim_big_cycles_;
    std::vector<std::size_t> probes_;
    u64 jobs_ = 0;
    u64 jobs_done_ = 0;  // guarded by the window mutex, like last_done_
    clock::time_point first_dispatch_{};
    clock::time_point last_done_{};
    std::condition_variable done_;
};

u64 service::run_batch(line_source next, row_sink sink, batch_stats* stats) {
    pool_batch be(*this);
    return run_lines(next, sink, stats, be);
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
