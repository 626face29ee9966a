#include "search/driver.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>

#include "area/area_model.h"
#include "common/atomic_file.h"
#include "common/bits.h"
#include "fault/campaign.h"
#include "sched/placement.h"
#include "serve/json.h"
#include "serve/workload_cache.h"
#include "sim/job.h"
#include "workloads/generator.h"

namespace meek::search {
namespace {

// ------------------------------------------------------------------ rungs ---

// One evaluation pass: which budget, and whether coverage is probed. Halving
// runs a cheap probe-free rung 0 before the full-budget rung 1; the other
// strategies are a single full rung 0.
struct rung_budget {
    u32 rung = 0;
    u64 instructions = 0;
    bool probe = false;
};

sim::run_spec perf_spec(const design_point& pt, const workload_profile& profile,
                        const rung_budget& budget, const search_options& opts) {
    sim::run_spec spec;
    spec.sc = pt.sc;
    spec.workload = profile;
    spec.instructions = budget.instructions;
    spec.workload_seed = opts.seed;
    spec.soc_override = pt.soc;
    return spec;
}

fault_campaign_config probe_config(const search_options& opts) {
    fault_campaign_config fc;
    fc.num_faults = opts.probe.faults;
    fc.gap_instructions = opts.probe.gap_instructions;
    fc.seed = opts.probe.seed;
    return fc;
}

u64 probe_program_length(const fault_campaign_config& fc) {
    return u64{fc.num_faults} * (fc.gap_instructions + 2'000) + 50'000;
}

// Everything that must match for a checkpointed measurement to satisfy a
// (point, rung) slot: the point's name and exact experiment fingerprint plus
// the probe configuration. A checkpoint written under any other search setup
// is ignored and the point re-evaluated, never trusted.
u64 point_context_fingerprint(const design_point& pt, const workload_profile& profile,
                              const rung_budget& budget, const search_options& opts) {
    fnv1a h;
    h.str(pt.name);
    h.u(sim::run_spec_fingerprint(perf_spec(pt, profile, budget, opts)));
    h.u(budget.probe ? 1 : 0);
    if (budget.probe) {
        h.u(opts.probe.faults);
        h.u(opts.probe.seed);
        h.u(opts.probe.gap_instructions);
    }
    return h.h;
}

std::string checkpoint_path(const std::string& dir, std::size_t point_index,
                            u32 rung) {
    return dir + "/point_" + std::to_string(point_index) + "_r" +
           std::to_string(rung) + ".ckpt";
}

u64 double_bits(double d) {
    u64 bits;
    std::memcpy(&bits, &d, sizeof bits);
    return bits;
}

double bits_double(u64 bits) {
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

// Shard-file pattern as in fault::save_shard_checkpoint: serialized in
// memory, then written atomically (temp + rename); doubles persisted as exact
// bit patterns so a loaded result is bit-identical to the measuring shard's.
bool save_point_checkpoint(const std::string& path, std::size_t point_index,
                           u32 rung, u64 context, const point_result& r) {
    char head[128];
    char tail[512];
    const int h = std::snprintf(head, sizeof head,
                                "meek-search-ckpt v1\n"
                                "point %zu rung %u context %" PRIx64 "\n",
                                point_index, rung, context);
    const int t = std::snprintf(
        tail, sizeof tail,
        " %d %d %d %" PRIx64 " %" PRIx64 " %" PRIx64 " %" PRIx64 " %" PRIu64 " %" PRIu64
        " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
        static_cast<int>(r.system), r.off_registry ? 1 : 0, r.skipped ? 1 : 0,
        double_bits(r.area_mm2), double_bits(r.overhead), double_bits(r.slowdown),
        double_bits(r.coverage), r.cycles, r.baseline_cycles, r.probe_detected,
        r.probe_masked, r.stall_collecting, r.stall_forwarding, r.stall_checker);
    if (h <= 0 || static_cast<std::size_t>(h) >= sizeof head || t <= 0 ||
        static_cast<std::size_t>(t) >= sizeof tail) {
        return false;
    }
    std::string doc = head + r.name + tail;
    if (!r.error.empty()) doc += "error " + r.error + "\n";
    return write_file_atomic(path, doc);
}

std::optional<point_result> load_point_checkpoint(const std::string& path,
                                                  std::size_t point_index, u32 rung,
                                                  u64 context) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return std::nullopt;

    std::optional<point_result> out;
    char magic[32] = {};
    std::size_t idx = 0;
    unsigned file_rung = 0;
    u64 file_context = 0;
    char name[128] = {};
    int system = 0, off_registry = 0, skipped = 0;
    u64 area = 0, overhead = 0, slowdown = 0, coverage = 0;
    point_result r;

    const bool ok =
        std::fscanf(f, "meek-search-ckpt %31s", magic) == 1 &&
        std::strcmp(magic, "v1") == 0 &&
        std::fscanf(f, " point %zu rung %u context %" SCNx64, &idx, &file_rung,
                    &file_context) == 3 &&
        idx == point_index && file_rung == rung && file_context == context &&
        std::fscanf(f,
                    " %127s %d %d %d %" SCNx64 " %" SCNx64 " %" SCNx64 " %" SCNx64
                    " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64,
                    name, &system, &off_registry, &skipped, &area, &overhead,
                    &slowdown, &coverage, &r.cycles, &r.baseline_cycles,
                    &r.probe_detected, &r.probe_masked, &r.stall_collecting,
                    &r.stall_forwarding, &r.stall_checker) == 15;
    if (ok) {
        r.name = name;
        r.system = static_cast<sim::system_kind>(system);
        r.off_registry = off_registry != 0;
        r.skipped = skipped != 0;
        r.area_mm2 = bits_double(area);
        r.overhead = bits_double(overhead);
        r.slowdown = bits_double(slowdown);
        r.coverage = bits_double(coverage);
        // A failed point carries its error on one more line.
        char line[512];
        if (std::fscanf(f, " error ") != EOF && std::fgets(line, sizeof line, f) != nullptr) {
            r.error = line;
            if (!r.error.empty() && r.error.back() == '\n') r.error.pop_back();
        }
        out = std::move(r);
    }
    std::fclose(f);
    return out;
}

// ------------------------------------------------------------- evaluation ---

point_result reduce_point(const design_point& pt, const sim::run_outcome& out,
                          u64 baseline_cycles, const area_model& areas) {
    point_result r;
    r.name = pt.name;
    r.system = pt.sc.system;
    r.off_registry = pt.off_registry;
    r.cycles = out.cycles;
    r.baseline_cycles = baseline_cycles;
    r.skipped = out.skipped;
    r.error = out.error;
    if (r.skipped || !r.error.empty()) return r;

    r.slowdown = baseline_cycles == 0
                     ? 0.0
                     : static_cast<double>(out.cycles) /
                           static_cast<double>(baseline_cycles);
    const double big_area = areas.big_core_area(pt.soc.big);
    switch (pt.sc.system) {
        case sim::system_kind::vanilla:
            // The baseline itself: no silicon added, nothing detected.
            r.slowdown = 1.0;
            break;
        case sim::system_kind::meek:
            r.area_mm2 = areas.meek_extra_area(pt.soc);
            r.stall_collecting = out.stats.stall_collecting;
            r.stall_forwarding = out.stats.stall_forwarding;
            r.stall_checker = out.stats.stall_checker;
            // Coverage is filled by the probe phase.
            break;
        case sim::system_kind::ea_lockstep:
            // Equal-silicon construction: the two scaled cores occupy exactly
            // big + MEEK-extra, so the silicon added on top of one vanilla
            // big core is the same extra budget. Cycle-level DMR detects any
            // single fault by comparison.
            r.area_mm2 = areas.meek_extra_area(pt.soc);
            r.coverage = 1.0;
            break;
        case sim::system_kind::nzdc:
            // Compiler transform: zero silicon; duplicated execution checks
            // every supported instruction.
            r.coverage = 1.0;
            break;
    }
    r.overhead = big_area > 0.0 ? r.area_mm2 / big_area : 0.0;
    return r;
}

// The estimated evaluation cost of one candidate on this rung: the perf
// run's cost hint, plus — for MEEK points on a probing rung — the serial
// fault-campaign probe, which dominates (one full SoC simulation of the
// probe program). Drives the cost-balanced shard split below; never results.
double candidate_cost(const design_point& pt, const workload_profile& profile,
                      const rung_budget& budget, const search_options& opts) {
    double cost = sim::cost_hint(perf_spec(pt, profile, budget, opts));
    if (budget.probe && pt.sc.system == sim::system_kind::meek) {
        const fault_campaign_config fc = probe_config(opts);
        const double probe_instructions =
            static_cast<double>(probe_program_length(fc));
        cost += probe_instructions * (1.5 + 0.25 * pt.soc.num_little_cores);
    }
    return cost;
}

// One rung's measurements over the candidate subset, sharded by a cost-
// balanced split of the candidate list (sched::balanced_assignment — a pure
// function of the candidates and the rung, so every shard process derives
// the identical ownership map; with equal costs it collapses to the old
// "position mod shard_count" split). results[i] is the universe-indexed slot
// (nullopt: not a candidate or owned by a shard whose checkpoint is
// missing).
struct rung_eval {
    std::vector<std::optional<point_result>> results;
    std::vector<u32> missing_shards;
    u64 resumed = 0;
};

rung_eval evaluate_rung(const std::vector<design_point>& points,
                        const std::vector<std::size_t>& candidates,
                        const workload_profile& profile, const rung_budget& budget,
                        const search_options& opts, sim::executor& ex,
                        serve::outcome_cache* outcomes) {
    rung_eval eval;
    eval.results.resize(points.size());

    const bool checkpointing = !opts.checkpoint_dir.empty();
    std::vector<std::size_t> to_eval;  // universe indices this shard simulates
    std::vector<bool> missing(opts.shard_count, false);

    std::vector<double> costs;
    costs.reserve(candidates.size());
    for (const std::size_t idx : candidates) {
        costs.push_back(candidate_cost(points[idx], profile, budget, opts));
    }
    const std::vector<std::size_t> owners =
        sched::balanced_assignment(costs, opts.shard_count);

    for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const std::size_t idx = candidates[pos];
        const u32 owner = static_cast<u32>(owners[pos]);
        const bool own = owner == opts.shard_index;
        std::optional<point_result> loaded;
        if (checkpointing && (!own || opts.resume)) {
            loaded = load_point_checkpoint(
                checkpoint_path(opts.checkpoint_dir, idx, budget.rung), idx,
                budget.rung,
                point_context_fingerprint(points[idx], profile, budget, opts));
        }
        if (loaded) {
            if (own) ++eval.resumed;
            eval.results[idx] = *std::move(loaded);
        } else if (own) {
            to_eval.push_back(idx);
        } else {
            missing[owner] = true;
        }
    }
    for (u32 s = 0; s < opts.shard_count; ++s) {
        if (missing[s]) eval.missing_shards.push_back(s);
    }
    if (to_eval.empty()) return eval;

    // Phase A: performance runs — one shared vanilla baseline plus one run
    // per point, longest submitted first, deduped through the completed-
    // result cache when one is attached.
    serve::workload_cache workloads(/*capacity=*/4);
    std::vector<sim::run_spec> specs;
    specs.reserve(to_eval.size() + 1);
    sim::run_spec baseline;
    baseline.sc = sim::vanilla_scenario();
    baseline.workload = profile;
    baseline.instructions = budget.instructions;
    baseline.workload_seed = opts.seed;
    specs.push_back(baseline);
    for (const std::size_t idx : to_eval) {
        specs.push_back(perf_spec(points[idx], profile, budget, opts));
    }
    for (sim::run_spec& spec : specs) spec.workloads = &workloads;

    const std::vector<sim::run_outcome> outs = ex.map(
        specs, /*base_seed=*/0,
        [outcomes](const sim::run_spec& spec, const sim::job_context&) {
            return outcomes != nullptr ? outcomes->outcome_for(spec)
                                       : sim::execute(spec);
        },
        [](const sim::run_spec& spec) { return sim::cost_hint(spec); });
    const u64 baseline_cycles = outs[0].cycles;

    const area_model areas;
    for (std::size_t i = 0; i < to_eval.size(); ++i) {
        eval.results[to_eval[i]] =
            reduce_point(points[to_eval[i]], outs[i + 1], baseline_cycles, areas);
    }

    // Phase B: coverage probes for the MEEK points — one serial fault
    // campaign per point over a shared probe program, each an independent
    // executor job.
    if (budget.probe) {
        std::vector<std::size_t> probe_idx;
        for (const std::size_t idx : to_eval) {
            if (points[idx].sc.system == sim::system_kind::meek &&
                !eval.results[idx]->skipped && eval.results[idx]->error.empty()) {
                probe_idx.push_back(idx);
            }
        }
        if (!probe_idx.empty()) {
            const fault_campaign_config fc = probe_config(opts);
            const std::shared_ptr<const generated_workload> probe_wl =
                workloads.workload_for(profile, probe_program_length(fc),
                                       opts.probe.seed);
            const std::vector<campaign_result> probes = ex.map(
                probe_idx, /*base_seed=*/0,
                [&points, &probe_wl, &fc](const std::size_t idx,
                                          const sim::job_context&) {
                    return run_fault_campaign(points[idx].soc, probe_wl->prog, fc);
                });
            for (std::size_t i = 0; i < probe_idx.size(); ++i) {
                point_result& r = *eval.results[probe_idx[i]];
                r.probe_detected = probes[i].detected;
                r.probe_masked = probes[i].masked;
                r.coverage = probes[i].detection_rate();
            }
        }
    }

    if (checkpointing) {
        for (const std::size_t idx : to_eval) {
            const std::string path =
                checkpoint_path(opts.checkpoint_dir, idx, budget.rung);
            if (!save_point_checkpoint(
                    path, idx, budget.rung,
                    point_context_fingerprint(points[idx], profile, budget, opts),
                    *eval.results[idx])) {
                // A merging shard waits on this file: a silent write failure
                // would stall the cross-process protocol, not just cost a
                // re-simulation.
                std::fprintf(stderr, "# warning: failed to write checkpoint %s\n",
                             path.c_str());
            }
        }
    }
    return eval;
}

// Successive-halving rung-0 score: lower is better. Coverage is not measured
// on the cheap rung, so promotion ranks the perf/area trade alone; skipped
// and failed points sort last.
double rung0_score(const point_result& r) {
    if (r.skipped || !r.error.empty()) return 1e300;
    return r.slowdown * (1.0 + r.overhead);
}

}  // namespace

search_result run_search(const std::vector<design_point>& points,
                         const search_options& opts, sim::executor& ex,
                         serve::outcome_cache* outcomes) {
    search_result out;
    out.universe = points.size();

    const workload_profile* profile = find_profile(opts.workload);
    if (profile == nullptr || points.empty()) {
        out.complete = points.empty();
        return out;
    }

    // Candidate selection (global and deterministic — every shard derives the
    // same list).
    std::vector<std::size_t> candidates(points.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    if (opts.strategy == strategy_kind::random_sample) {
        candidates = sample_indices(points.size(), opts.sample_count, opts.sample_seed);
    }

    rung_budget full;
    full.instructions = opts.instructions;
    full.probe = true;

    if (opts.strategy == strategy_kind::successive_halving) {
        rung_budget cheap;
        cheap.rung = 0;
        cheap.instructions =
            std::max<u64>(2'000, opts.instructions / std::max<u64>(2, opts.halving_divisor));
        cheap.probe = false;
        const rung_eval r0 =
            evaluate_rung(points, candidates, *profile, cheap, opts, ex, outcomes);
        out.resumed_points += r0.resumed;
        if (!r0.missing_shards.empty()) {
            out.complete = false;
            out.missing_shards = r0.missing_shards;
            return out;
        }
        std::vector<double> scores;
        scores.reserve(candidates.size());
        for (const std::size_t idx : candidates) scores.push_back(rung0_score(*r0.results[idx]));
        candidates = promote(candidates, scores, opts.halving_keep);
        full.rung = 1;
    }

    out.pruned = points.size() - candidates.size();

    const rung_eval rf =
        evaluate_rung(points, candidates, *profile, full, opts, ex, outcomes);
    out.resumed_points += rf.resumed;
    if (!rf.missing_shards.empty()) {
        out.complete = false;
        out.missing_shards = rf.missing_shards;
        return out;
    }

    out.evaluated.reserve(candidates.size());
    for (const std::size_t idx : candidates) out.evaluated.push_back(*rf.results[idx]);

    // Frontier over the non-skipped, non-failed measurements, translated
    // back to evaluated-row indices.
    std::vector<objectives> objs;
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < out.evaluated.size(); ++i) {
        if (out.evaluated[i].skipped || !out.evaluated[i].error.empty()) continue;
        objs.push_back(out.evaluated[i].objs());
        live.push_back(i);
    }
    for (const std::size_t f : pareto_frontier(objs)) out.frontier.push_back(live[f]);
    return out;
}

std::string to_csv(const search_result& r, bool frontier_only) {
    std::string csv =
        "name,system,off_registry,skipped,area_mm2,overhead,slowdown,coverage,"
        "cycles,baseline_cycles,probe_detected,probe_masked,frontier\n";
    std::vector<bool> on_frontier(r.evaluated.size(), false);
    for (const std::size_t i : r.frontier) on_frontier[i] = true;
    char buf[160];
    for (std::size_t i = 0; i < r.evaluated.size(); ++i) {
        if (frontier_only && !on_frontier[i]) continue;
        const point_result& p = r.evaluated[i];
        csv += p.name;
        csv += ',';
        csv += sim::system_kind_name(p.system);
        std::snprintf(buf, sizeof buf,
                      ",%d,%d,%.6f,%.6f,%.6f,%.6f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%d\n",
                      p.off_registry ? 1 : 0, p.skipped ? 1 : 0, p.area_mm2,
                      p.overhead, p.slowdown, p.coverage, p.cycles,
                      p.baseline_cycles, p.probe_detected, p.probe_masked,
                      on_frontier[i] ? 1 : 0);
        csv += buf;
    }
    return csv;
}

std::string to_ndjson(const search_result& r, bool frontier_only) {
    std::string out;
    std::vector<bool> on_frontier(r.evaluated.size(), false);
    for (const std::size_t i : r.frontier) on_frontier[i] = true;
    for (std::size_t i = 0; i < r.evaluated.size(); ++i) {
        if (frontier_only && !on_frontier[i]) continue;
        const point_result& p = r.evaluated[i];
        serve::json_object_writer w;
        w.field("name", p.name);
        w.field("system", sim::system_kind_name(p.system));
        w.field("off_registry", p.off_registry);
        w.field("skipped", p.skipped);
        w.field_fixed("area_mm2", p.area_mm2, 6);
        w.field_fixed("overhead", p.overhead, 6);
        w.field_fixed("slowdown", p.slowdown, 6);
        w.field_fixed("coverage", p.coverage, 6);
        w.field("cycles", p.cycles);
        w.field("baseline_cycles", p.baseline_cycles);
        w.field("probe_detected", p.probe_detected);
        w.field("probe_masked", p.probe_masked);
        w.field("frontier", on_frontier[i]);
        if (!p.error.empty()) w.field("error", p.error);
        out += w.str();
        out += '\n';
    }
    return out;
}

}  // namespace meek::search
