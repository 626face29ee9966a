// The three benchmark phases. Each is built in the timed set-up (workload
// generation plus construction); `round` then runs one measured round,
// `emit` turns the rounds since `clear` into end-to-end metrics, and
// `trace_layers` times single layers under benchmark spans, from which
// `layer_metrics` derives the per-layer numbers. Every round of a phase does
// identical work and must reproduce the first round's modelled results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/config.h"
#include "fault/campaign.h"
#include "isa/arch_state.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/executor.h"
#include "workloads/generator.h"

namespace meekbench {

class phase {
public:
    virtual ~phase() = default;
    virtual void round(report& rep, bool traced) = 0;
    virtual void emit(report& rep) const = 0;
    // Median throughput of the rounds since clear(): the reference for the
    // tracing overhead.
    virtual double throughput() const = 0;
    virtual void clear() = 0;
    virtual void trace_layers() {}
    virtual void layer_metrics(const std::vector<meek::obs::span_record>& spans,
                               report& rep) const = 0;
    // Digest over every modelled number the phase produced: identical on
    // every run of the same seed and size.
    virtual u64 modelled_digest() const = 0;
    double generate_ms() const { return generate_ms_; }
    // Process resident peak right after this phase's first round.
    double peak_rss_mb() const { return peak_rss_mb_; }

protected:
    double generate_ms_ = 0.0;
    double peak_rss_mb_ = 0.0;
    u32 rounds_ = 0;  // rounds run so far, over the whole run
};

// Modelled caches start empty in every simulation; runs are long enough
// that the cold-start window does not dominate (see README.md).
class kernel_phase final : public phase {
public:
    explicit kernel_phase(const options& opts);
    void round(report& rep, bool traced) override;
    void emit(report& rep) const override;
    double throughput() const override { return median(meek_mips_); }
    void clear() override;
    void trace_layers() override;
    void layer_metrics(const std::vector<meek::obs::span_record>& spans,
                       report& rep) const override;
    u64 modelled_digest() const override;
    // Once per run: the big core's final state against a little core's
    // application-mode run of the same program.
    void check_reference(report& rep);

private:
    // Exact modelled counters of one program's vanilla and meek runs (all
    // u64, so the digest hashes the bytes).
    struct counts {
        u64 instructions = 0, vanilla_cycles = 0, meek_cycles = 0, drain_cycles = 0;
        u64 segments_verified = 0, mispredicts = 0, l1d_misses = 0, l2_misses = 0;
        u64 replayed = 0, busy = 0, stall_lsl = 0, stall_wm = 0, stall_srcp = 0;
        u64 pushed = 0, delivered = 0, rejects = 0, retries = 0;
        u64 stall_collecting = 0, stall_forwarding = 0, stall_checker = 0;
        bool operator==(const counts&) const = default;
    };
    struct program_state {
        std::string name;
        meek::generated_workload wl;
        // The first round's results: every later round must repeat them.
        bool seen = false;
        counts first;
        meek::arch_state final_state;
        // Layer-timing denominators accumulated by trace_layers().
        u64 layer_instructions = 0, layer_big_cycles = 0, layer_little_instr = 0;
        u64 layer_packets = 0;
    };

    const options& opts_;
    meek::soc_config meek_cfg_;
    meek::big_core_config vanilla_cfg_;
    std::vector<program_state> programs_;
    std::vector<double> meek_mips_, vanilla_mips_;
};

class campaign_phase final : public phase {
public:
    explicit campaign_phase(const options& opts);
    void round(report& rep, bool traced) override;
    void emit(report& rep) const override;
    double throughput() const override { return median(rates_); }
    void clear() override { rates_.clear(); }
    void trace_layers() override;
    void layer_metrics(const std::vector<meek::obs::span_record>& spans,
                       report& rep) const override;
    u64 modelled_digest() const override;
    // Once per run: merged records with 1 worker equal those with N, and
    // every program is long enough that shards end on their budget.
    void check_worker_invariance(report& rep);
    void check_program_lengths(report& rep) const;

private:
    struct profile_state {
        std::string name;
        std::vector<meek::generated_workload> programs;  // one campaign each
        // Executor view of the most recent round.
        double shard_ms_p50 = 0.0, shard_ms_max = 0.0, shard_ms_mean = 0.0;
        u64 injected = 0, detected = 0, masked = 0;
    };
    meek::fault_campaign_config config_for(u32 campaign) const;

    const options& opts_;
    meek::soc_config meek_cfg_;
    std::vector<profile_state> profiles_;
    std::unique_ptr<meek::sim::executor> ex_;
    // Digest of each (profile, program) campaign's merged records, first round.
    std::vector<u64> digests_;
    std::vector<double> latencies_ns_;  // detected faults of the first round
    std::vector<u64> kind_counts_;      // detections per check_error_kind
    std::vector<double> rates_;         // faults/s per round since clear()
    // Scheduler view of the most recent round.
    double queue_wait_ms_p99_ = 0.0, utilization_ = 0.0;
    u64 steals_ = 0;
};

class serve_phase final : public phase {
public:
    explicit serve_phase(const options& opts);
    void round(report& rep, bool traced) override;
    void emit(report& rep) const override;
    double throughput() const override { return median(rates_); }
    void clear() override;
    void layer_metrics(const std::vector<meek::obs::span_record>& spans,
                       report& rep) const override;
    u64 modelled_digest() const override { return digest_; }

private:
    struct request {
        meek::serve::run_request req;
        std::string line;     // req on the wire, without a trace context
        std::size_t key = 0;  // index of its distinct spec
    };
    void build_expected_rows();

    const options& opts_;
    std::vector<request> requests_;
    std::vector<meek::sim::run_spec> distinct_;  // by key
    std::vector<std::string> expected_;          // by request index
    u64 digest_ = 0;                              // over expected_
    meek::serve::service_options service_opts_;
    // Per-round samples since clear().
    std::vector<double> rates_, p50_ms_, tail_ms_, hit_p50_ms_, miss_p50_ms_;
    tail_stat tail_;  // of the most recent round
    double repeat_share_ = 0.0;
    // Per-layer figures from the most recent round.
    meek::obs::metrics_snapshot snapshot_;
    double utilization_ = 0.0, queue_wait_ms_p99_ = 0.0;
    u64 steals_ = 0;
};

}  // namespace meekbench
