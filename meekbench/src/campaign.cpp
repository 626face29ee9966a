// campaign phase: sharded fault campaigns through
// run_fault_campaign(..., executor&) with min(nproc, 4) workers, injecting
// core-side faults into two PARSEC profiles whose detection latencies differ
// by about 10x: swaptions (divide-heavy, slow to replay) and dedup. It is the
// only phase that drives the packet hook, the detection path, per-shard
// warmup and the parallel executor.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/clock.h"
#include "meek/soc.h"
#include "phases.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

namespace meekbench {
namespace {

using meek::obs::trace_span;

constexpr const char* k_kind_names[] = {
    "none",           "load_addr_mismatch", "store_addr_mismatch",
    "store_data_mismatch", "csr_addr_mismatch", "log_kind_mismatch",
    "ercp_mismatch",  "control_divergence", "parity_fault"};
constexpr std::size_t k_kinds = std::size(k_kind_names);

// Instructions one full shard simulates: run_fault_campaign sizes a shard's
// budget as warmup + faults x (gap + 2000) + horizon + 50000 and stops it
// there, because the programs are generated longer than that (checked).
u64 shard_budget(const meek::fault_campaign_config& cfg) {
    const u32 faults = std::min(cfg.num_faults, cfg.faults_per_shard);
    return cfg.shard_warmup_instructions + u64{faults} * (cfg.gap_instructions + 2'000) +
           cfg.detection_horizon + 50'000;
}

u64 records_digest(const meek::campaign_result& r) {
    meek::fnv1a h;
    for (const meek::fault_record& f : r.faults) {
        h.u(f.inject_seq);
        h.u(f.inject_big_cycle);
        h.u(f.detect_big_cycle);
        h.u(f.detected ? 1 : 0);
        h.u(static_cast<u64>(f.kind));
        h.u(static_cast<u64>(f.corrupted_kind));
    }
    return h.h;
}

}  // namespace

campaign_phase::campaign_phase(const options& opts) : opts_(opts) {
    meek_cfg_ = meek::sim::meek_scenario(4).soc();
    const u64 length = shard_budget(config_for(0));
    const auto t0 = clock_type::now();
    u64 index = 0;
    for (const char* name : {"swaptions", "dedup"}) {
        profile_state p;
        p.name = name;
        for (u32 v = 0; v < opts.size.campaign_programs; ++v, ++index) {
            p.programs.push_back(meek::generate_workload(
                *meek::find_profile(name), length * 3 / 2,
                meek::sim::derive_stream_seed(opts.seed, 200 + index)));
        }
        profiles_.push_back(std::move(p));
    }
    generate_ms_ = seconds_since(t0) * 1e3;
    const u32 workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    ex_ = std::make_unique<meek::sim::executor>(workers);
}

void campaign_phase::check_program_lengths(report& rep) const {
    for (const profile_state& p : profiles_) {
        for (const meek::generated_workload& wl : p.programs) {
            rep.check(wl.expected_dynamic_instructions >= shard_budget(config_for(0)),
                      "campaign " + p.name + ": program shorter than a shard's budget");
        }
    }
}

meek::fault_campaign_config campaign_phase::config_for(u32 campaign) const {
    meek::fault_campaign_config cfg;
    cfg.num_faults = opts_.size.campaign_faults;
    cfg.seed = meek::sim::derive_stream_seed(opts_.seed, 300 + campaign);
    return cfg;
}

void campaign_phase::round(report& rep, bool traced) {
    const u32 round = rounds_++;
    const u32 campaigns = opts_.size.campaign_programs;
    const meek::clock_domain big_clock(meek_cfg_.big.freq_mhz);
    double wall_s = 0.0, job_ms = 0.0;
    u64 injected = 0, steals = 0;
    meek::obs::log_histogram queue_wait;
    for (std::size_t pi = 0; pi < profiles_.size(); ++pi) {
        profile_state& p = profiles_[pi];
        ex_->reset_timing();
        ex_->reset_scheduler_stats();
        p.injected = p.detected = p.masked = 0;
        std::vector<double> call_ms;
        for (u32 c = 0; c < campaigns; ++c) {
            const meek::fault_campaign_config cfg = config_for(c);
            const auto t0 = clock_type::now();
            trace_span span(traced ? root_context(phase_campaign, pi)
                                   : meek::obs::trace_context{},
                            "campaign", u64{round} * campaigns + c);
            const meek::campaign_result r =
                meek::run_fault_campaign(meek_cfg_, p.programs[c].prog, cfg, *ex_);
            span.close();
            call_ms.push_back(seconds_since(t0) * 1e3);
            wall_s += call_ms.back() / 1e3;

            injected += r.faults.size();
            p.injected += r.faults.size();
            p.detected += r.detected;
            p.masked += r.masked;
            // A shard whose budget runs out (long-undetected faults wait out
            // the horizon) injects fewer than asked; every injected fault
            // must still end detected or masked.
            rep.check(r.detected + r.masked == r.faults.size(),
                      "campaign " + p.name + ": detected + masked != injected");
            const u64 digest = records_digest(r);
            if (round == 0) {
                digests_.push_back(digest);
                if (pi == 0 && c == 0) kind_counts_.assign(k_kinds, 0);
                for (const meek::fault_record& f : r.faults) {
                    if (!f.detected) continue;
                    latencies_ns_.push_back(
                        big_clock.cycles_to_ns(f.detect_big_cycle - f.inject_big_cycle));
                    ++kind_counts_[static_cast<std::size_t>(f.kind) % k_kinds];
                }
            }
            rep.check(digest == digests_[pi * campaigns + c],
                      "campaign " + p.name + ": merged records differ between rounds");
        }
        const meek::sim::executor_timing t = ex_->timing();
        if (t.jobs > 0) {
            p.shard_ms_p50 = static_cast<double>(ex_->run_time_histogram().p50()) / 1e6;
            p.shard_ms_max = t.max_ms;
            p.shard_ms_mean = t.mean_ms;
        } else {  // single-shard campaigns run inline, not on the executor
            p.shard_ms_p50 = median(call_ms);
            p.shard_ms_max = *std::max_element(call_ms.begin(), call_ms.end());
            p.shard_ms_mean = p.shard_ms_p50;
        }
        job_ms += t.total_ms;
        queue_wait.merge(ex_->queue_wait_histogram());
        steals += ex_->scheduler_stats().steals();
    }
    if (round == 0) peak_rss_mb_ = resident_peak_mb();
    rates_.push_back(static_cast<double>(injected) / wall_s);
    queue_wait_ms_p99_ = static_cast<double>(queue_wait.p99()) / 1e6;
    steals_ = steals;
    utilization_ = job_ms / (wall_s * 1e3 * ex_->num_threads());
}

void campaign_phase::emit(report& rep) const {
    u64 injected = 0, detected = 0;
    for (const profile_state& p : profiles_) {
        injected += p.injected;
        detected += p.detected;
    }
    double sum = 0.0;
    for (const double ns : latencies_ns_) sum += ns;
    const tail_stat t = tail(latencies_ns_);
    rep.put("faults_per_s", median(rates_), "1/s");
    rep.put("detect_rate", static_cast<double>(detected) / static_cast<double>(injected),
            "ratio");
    rep.put("detect_mean_ns", sum / static_cast<double>(latencies_ns_.size()), "ns");
    rep.put("detect_tail_ns", t.value, "ns");
    std::fprintf(stderr,
                 "# campaign: %zu rounds of %llu faults on %u workers; detect_tail_ns "
                 "is p%g over %zu detected faults (%zu beyond)\n",
                 rates_.size(), static_cast<unsigned long long>(injected),
                 ex_->num_threads(), t.percentile, t.samples, t.beyond);
}

u64 campaign_phase::modelled_digest() const {
    meek::fnv1a h;
    for (const u64 d : digests_) h.u(d);
    return h.h;
}

void campaign_phase::check_worker_invariance(report& rep) {
    meek::sim::executor serial(1);
    const meek::campaign_result r =
        meek::run_fault_campaign(meek_cfg_, profiles_[0].programs[0].prog, config_for(0), serial);
    rep.check(!digests_.empty() && records_digest(r) == digests_[0],
              "campaign: merged records differ between 1 and N workers");
}

void campaign_phase::trace_layers() {
    const u32 reps = opts_.workload == "campaign" ? opts_.size.layer_repeats : 1;
    const u64 warmup = config_for(0).shard_warmup_instructions;
    for (std::size_t pi = 0; pi < profiles_.size(); ++pi) {
        for (u32 rep = 0; rep < reps; ++rep) {
            meek::meek_soc soc(meek_cfg_);
            soc.load_program(profiles_[pi].programs[rep % profiles_[pi].programs.size()].prog);
            meek::run_limits limits;
            limits.max_instructions = warmup;
            trace_span span(root_context(phase_campaign, pi), "fault.warmup", rep);
            soc.run(limits);
        }
    }
}

void campaign_phase::layer_metrics(const std::vector<meek::obs::span_record>& spans,
                                   report& rep) const {
    const meek::fault_campaign_config cfg = config_for(0);
    const double per_shard = std::min(cfg.num_faults, cfg.faults_per_shard);
    for (std::size_t pi = 0; pi < profiles_.size(); ++pi) {
        const profile_state& p = profiles_[pi];
        const u64 trace = root_context(phase_campaign, pi).trace_id;
        const double warmup_ms = span_ns(spans, trace, "fault.warmup") / 1e6 /
                                 span_count(spans, trace, "fault.warmup");
        const std::string& n = p.name;
        rep.put("fault.shard_ms_p50." + n, p.shard_ms_p50, "ms");
        rep.put("fault.shard_ms_max." + n, p.shard_ms_max, "ms");
        rep.put("fault.warmup_ms." + n, warmup_ms, "ms");
        rep.put("fault.warmup_share." + n, warmup_ms / p.shard_ms_mean, "ratio");
        rep.put("fault.sim_instructions_per_fault." + n,
                static_cast<double>(shard_budget(cfg)) / per_shard, "instr");
        rep.put("fault.injected." + n, static_cast<double>(p.injected), "count");
        rep.put("fault.detected." + n, static_cast<double>(p.detected), "count");
        rep.put("fault.masked." + n, static_cast<double>(p.masked), "count");
    }
    for (std::size_t k = 1; k < k_kinds; ++k) {
        rep.put(std::string("fault.detected_by.") + k_kind_names[k],
                static_cast<double>(kind_counts_[k]), "count");
    }
    rep.put("sched.queue_wait_ms_p99.campaign", queue_wait_ms_p99_, "ms");
    rep.put("sched.steals.campaign", static_cast<double>(steals_), "count");
    rep.put("sched.utilization.campaign", utilization_, "ratio");
}

}  // namespace meekbench
