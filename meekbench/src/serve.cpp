// serve phase: a closed loop of 2 client threads over one service with 2
// executor workers. Each client sends a one-line NDJSON batch through
// service::serve_batch and waits for the row, which is the gateway's
// round-trip pattern. The fixed-seed request stream draws from 24 specs
// (3 scenarios x 4 profiles x 2 short lengths); a request reuses its spec's
// hot seed or takes a fresh one, so about half of the requests repeat a
// completed spec and hit the outcome cache, and the rest simulate. Every
// round starts a fresh service (empty caches) and replays the same stream.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "phases.h"
#include "serve/protocol.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

namespace meekbench {
namespace {

using meek::obs::trace_span;

constexpr const char* k_scenarios[] = {"vanilla", "meek/f2/opt/4", "meek/axi/def/2"};
constexpr const char* k_profiles[] = {"hmmer", "mcf", "swaptions", "dedup"};
constexpr u64 k_lengths[] = {10'000, 20'000};

double p50_value(const meek::obs::metrics_snapshot& snap, const char* name) {
    const meek::obs::log_histogram* h = snap.histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->p50());
}

double hit_rate(const meek::obs::metrics_snapshot& snap, const std::string& cache) {
    const u64* hits = snap.counter_value(cache + ".hits");
    const u64* misses = snap.counter_value(cache + ".misses");
    if (hits == nullptr || misses == nullptr || *hits + *misses == 0) return 0.0;
    return static_cast<double>(*hits) / static_cast<double>(*hits + *misses);
}

}  // namespace

serve_phase::serve_phase(const options& opts) : opts_(opts) {
    const auto t0 = clock_type::now();
    struct spec_ref {
        const char* scenario;
        const char* profile;
        u64 length;
    };
    std::vector<spec_ref> specs;
    for (const char* sc : k_scenarios) {
        for (const char* prof : k_profiles) {
            for (const u64 len : k_lengths) specs.push_back({sc, prof, len});
        }
    }
    // Blocks of 24 requests: each block asks for every spec once, in a fixed
    // order. For each profile a seeded one of its two lengths takes the
    // block's fresh workload seed and the other its hot seed, for all three
    // scenarios alike. The spec mix and order, the number of fresh programs
    // per block, and so a round's work and cache footprint, are the same for
    // every benchmark seed; the seed picks the programs and which length is
    // fresh.
    meek::rng r(meek::sim::derive_stream_seed(opts.seed, 400));
    std::map<std::pair<std::size_t, u64>, std::size_t> keys;
    std::size_t fresh_length[std::size(k_profiles)] = {};
    for (u32 i = 0; i < opts.size.serve_requests; ++i) {
        const std::size_t j = i % specs.size();  // spec index
        if (j == 0) {
            for (std::size_t& len : fresh_length) len = r.below(std::size(k_lengths));
        }
        const spec_ref& ref = specs[j];
        // Seeds name a (profile, length) program, not a scenario, so the
        // scenarios that ask for the same program share one generation.
        const std::size_t program = j % (specs.size() / std::size(k_scenarios));
        const std::size_t profile = program / std::size(k_lengths);
        const bool fresh = program % std::size(k_lengths) == fresh_length[profile];
        const u64 seed =
            fresh ? meek::sim::derive_stream_seed(opts.seed, 10'000 + i - j + program)
                  : meek::sim::derive_stream_seed(opts.seed, 500 + program);
        const auto [it, inserted] = keys.emplace(std::make_pair(j, seed), distinct_.size());
        if (inserted) {
            meek::sim::run_spec spec;
            spec.sc = *meek::sim::find_scenario(ref.scenario);
            spec.workload = *meek::find_profile(ref.profile);
            spec.instructions = ref.length;
            spec.workload_seed = seed;
            distinct_.push_back(std::move(spec));
        }
        request q;
        q.key = it->second;
        q.req.id = "q";
        q.req.id += std::to_string(q.key);
        q.req.scenario = ref.scenario;
        q.req.workload = ref.profile;
        q.req.instructions = ref.length;
        q.req.seed = seed;
        q.line = meek::serve::to_json(q.req) + "\n";
        requests_.push_back(std::move(q));
    }
    generate_ms_ = seconds_since(t0) * 1e3;
    service_opts_.threads = 2;
}

void serve_phase::build_expected_rows() {
    meek::sim::executor ex(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const std::vector<meek::sim::run_outcome> outcomes = meek::sim::execute_all(ex, distinct_);
    expected_.clear();
    meek::fnv1a h;
    for (const request& q : requests_) {
        meek::serve::response_row row;
        row.id = q.req.id;
        row.seed = distinct_[q.key].workload_seed;
        row.outcome = outcomes[q.key];
        expected_.push_back(meek::serve::to_json(row));
        h.str(expected_.back());
    }
    digest_ = h.h;
    if (opts_.broken == break_kind::row) expected_[0].back() = '!';
}

void serve_phase::round(report& rep, bool traced) {
    const u32 round = rounds_++;
    const std::size_t n = requests_.size();
    std::vector<double> latency_ms(n, 0.0);
    std::vector<char> repeat(n, 0);
    std::vector<std::string> rows(n);
    const auto completed = std::make_unique<std::atomic<bool>[]>(distinct_.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> client_error{false};

    meek::serve::service svc(service_opts_);
    auto client = [&] {
        try {
            for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
                const request& q = requests_[i];
                repeat[i] = completed[q.key].load(std::memory_order_acquire);
                const auto t0 = clock_type::now();
                trace_span span(traced ? root_context(phase_serve + round, i)
                                       : meek::obs::trace_context{},
                                "serve.req");
                std::string line = q.line;
                if (traced) {
                    meek::serve::run_request with_trace = q.req;
                    with_trace.trace = span.context();
                    line = meek::serve::to_json(with_trace) + "\n";
                }
                std::istringstream in(line);
                std::ostringstream out;
                svc.serve_batch(in, out);
                std::string row = out.str();
                if (!row.empty() && row.back() == '\n') row.pop_back();
                const bool parsed = meek::serve::parse_response(row).has_value();
                span.close();
                latency_ms[i] = seconds_since(t0) * 1e3;
                if (parsed) rows[i] = std::move(row);
                completed[q.key].store(true, std::memory_order_release);
            }
        } catch (...) {
            client_error = true;
        }
    };
    const auto t0 = clock_type::now();
    std::thread a(client), b(client);
    a.join();
    b.join();
    const double wall_s = seconds_since(t0);
    if (round == 0) peak_rss_mb_ = resident_peak_mb();

    snapshot_ = svc.stats_snapshot();
    const meek::sim::executor_timing t = svc.pool().timing();
    utilization_ = t.total_ms / (wall_s * 1e3 * svc.pool().num_threads());
    queue_wait_ms_p99_ = static_cast<double>(svc.pool().queue_wait_histogram().p99()) / 1e6;
    steals_ = svc.pool().scheduler_stats().steals();

    if (expected_.empty()) build_expected_rows();
    rep.check(!client_error, "serve: a client failed");
    std::vector<double> hit, miss;
    for (std::size_t i = 0; i < n; ++i) {
        rep.check(rows[i] == expected_[i],
                  "serve: a row differs from the row of a direct sim::execute of its spec");
        (repeat[i] ? hit : miss).push_back(latency_ms[i]);
    }
    rates_.push_back(static_cast<double>(n) / wall_s);
    p50_ms_.push_back(median(latency_ms));
    tail_ = tail(latency_ms);
    tail_ms_.push_back(tail_.value);
    hit_p50_ms_.push_back(median(hit));
    miss_p50_ms_.push_back(median(miss));
    repeat_share_ = static_cast<double>(hit.size()) / static_cast<double>(n);
}

void serve_phase::clear() {
    rates_.clear();
    p50_ms_.clear();
    tail_ms_.clear();
    hit_p50_ms_.clear();
    miss_p50_ms_.clear();
}

void serve_phase::emit(report& rep) const {
    rep.put("rows_per_s", median(rates_), "1/s");
    rep.put("latency_p50_ms", median(p50_ms_), "ms");
    rep.put("latency_tail_ms", median(tail_ms_), "ms");
    std::fprintf(stderr,
                 "# serve: %zu rounds of %zu requests, 2 clients, 2 workers; latency_p50_ms "
                 "and latency_tail_ms are medians over rounds of each round's p50 and p%g "
                 "(%zu samples, %zu beyond); %.1f%% of requests repeat a completed spec\n",
                 rates_.size(), requests_.size(), tail_.percentile, tail_.samples, tail_.beyond,
                 100.0 * repeat_share_);
}

void serve_phase::layer_metrics(const std::vector<meek::obs::span_record>&,
                                report& rep) const {
    rep.put("serve.parse_ns_p50", p50_value(snapshot_, "service.parse_ns"), "ns");
    rep.put("serve.resolve_ns_p50", p50_value(snapshot_, "service.resolve_ns"), "ns");
    rep.put("serve.execute_ns_p50", p50_value(snapshot_, "service.execute_ns"), "ns");
    rep.put("serve.serialize_ns_p50", p50_value(snapshot_, "service.serialize_ns"), "ns");
    rep.put("serve.outcome_hit_rate", hit_rate(snapshot_, "outcome_cache"), "ratio");
    rep.put("serve.workload_hit_rate", hit_rate(snapshot_, "workload_cache"), "ratio");
    rep.put("serve.hit_latency_ms_p50", median(hit_p50_ms_), "ms");
    rep.put("serve.miss_latency_ms_p50", median(miss_p50_ms_), "ms");
    rep.put("sched.queue_wait_ms_p99.serve", queue_wait_ms_p99_, "ms");
    rep.put("sched.steals.serve", static_cast<double>(steals_), "count");
    rep.put("sched.utilization.serve", utilization_, "ratio");
}

}  // namespace meekbench
