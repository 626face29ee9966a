// meek_search — sharded design-space exploration with a Pareto-frontier
// reducer.
//
// Enumerates every scenario in the sim registry plus off-registry MEEK points
// from a declarative parameter grid, evaluates each point on one workload
// (slowdown vs the vanilla big core, silicon from the area model, detection
// coverage from a fault-campaign probe), and prints the Pareto frontier over
// (area, slowdown, coverage).
//
//   meek_search                                  default grid, exhaustive
//   meek_search --strategy halving --keep 0.25   cheap rung, then survivors
//   meek_search --shard 0/4 --checkpoint-dir d   evaluate every 4th point
//   meek_search --workers 4 --checkpoint-dir d   spawn 4 shard processes,
//                                                wait, merge — one command
//
// Sharding: each `--shard k/n` invocation evaluates its slice and persists
// per-point checkpoints; the invocation that finds every other shard's
// checkpoints present emits the complete merged frontier, byte-identical to
// an unsharded run. `--resume` also reuses this shard's own completed
// checkpoints, so a killed shard restarts at its first missing point.
// `--workers n` is the single-command form of the same protocol: it spawns n
// copies of this invocation as `--shard k/n` child processes (the serve
// layer's process-endpoint transport), waits for them, and then emits the
// merged frontier itself.
//
// stdout carries only result rows (CSV by default, `--format ndjson` for
// line-delimited JSON; `--all` emits dominated rows too, with a frontier 0/1
// column) — byte-identical for a given search at any thread count. Progress
// and session statistics go to stderr, with one "# failed: <point>: <error>"
// line per point whose run failed (such a point is never on the frontier;
// its NDJSON row carries the error).
//
// Grid axes (repeatable; comma-separated values):
//   --grid cores=2,4,6    little-core counts      --grid lsl=2048,4096  LSL bytes
//   --grid fabric=f2,axi  forwarding fabric       --grid depth=8,16     DC-Buffer depth
//   --grid tuning=opt,def little-core tuning      --grid unroll=1,4,8   divider unroll
//   --grid freq=1600,2000 checker clock (MHz)
// With no --grid flags the default sweep applies (lsl x depth x freq around
// the Table II point); --no-registry restricts the universe to grid points.
// cores takes 1..64 (the wire's inline-knob bound), lsl and depth are >= 1,
// and unroll/freq 0 means the tuning default.
//
// A value flag also takes the --flag=VALUE form. A malformed or out-of-range
// value exits 2 with a message; an unknown flag prints usage and exits 2.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "search/dispatch.h"
#include "search/driver.h"
#include "serve/outcome_cache.h"
#include "sim/executor.h"
#include "workloads/profile.h"

using namespace meek;

namespace {

constexpr u64 u32_max = std::numeric_limits<u32>::max();

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--workload NAME] [--instructions N] [--seed N]\n"
        "          [--strategy exhaustive|random|halving] [--samples N]\n"
        "          [--sample-seed N] [--keep F] [--budget-div N]\n"
        "          [--probe-faults N] [--probe-seed N]\n"
        "          [--grid key=v1,v2,...] [--no-registry]\n"
        "          [--shard K/N | --workers N] [--checkpoint-dir DIR] [--resume]\n"
        "          [--threads N] [--format csv|ndjson] [--all]\n",
        argv0);
    return 2;
}

// Append one --grid KEY=V1,V2,... axis to `grid`; a malformed axis or value
// exits 2 with a message.
void apply_grid_axis(flag_reader& args, search::parameter_grid& grid) {
    const std::string spec = args.text();
    const std::size_t eq = spec.find('=');
    const std::string key = spec.substr(0, eq);
    const std::string list = eq == std::string::npos ? "" : spec.substr(eq + 1);
    auto numbers = [&](auto& axis, u64 min, u64 max) {
        std::vector<u64> values;
        if (!parse_count_list(list, min, max, &values)) {
            args.fail(spec, key + "=N,N,... with each N a whole number in [" +
                                std::to_string(min) + ", " + std::to_string(max) + "]");
        }
        axis.insert(axis.end(), values.begin(), values.end());
    };
    auto names = [&](const char* want) {
        std::vector<std::string> values;
        if (!split_list(list, &values)) args.fail(spec, want);
        return values;
    };
    if (key == "cores") {
        numbers(grid.little_cores, 1, sim::max_little_cores);
    } else if (key == "lsl") {
        numbers(grid.lsl_bytes, 1, u32_max);
    } else if (key == "depth") {
        numbers(grid.dc_buffer_depths, 1, u32_max);
    } else if (key == "unroll") {  // 0: the tuning default
        numbers(grid.div_unrolls, 0, u32_max);
    } else if (key == "freq") {  // 0: the tuning default
        numbers(grid.checker_freq_mhz, 0, std::numeric_limits<u64>::max());
    } else if (key == "fabric") {
        const char* want = "fabric=F,F,... with each F f2 or axi";
        for (const std::string& v : names(want)) {
            if (v != "f2" && v != "axi") args.fail(spec, want);
            grid.fabrics.push_back(v == "f2" ? fabric_kind::f2
                                             : fabric_kind::axi_interconnect);
        }
    } else if (key == "tuning") {
        const char* want = "tuning=T,T,... with each T opt or def";
        for (const std::string& v : names(want)) {
            if (v != "opt" && v != "def") args.fail(spec, want);
            grid.tunings.push_back(v == "opt" ? little_core_tuning::optimized
                                              : little_core_tuning::default_rocket);
        }
    } else {
        args.fail(spec, "KEY=V1,V2,... with KEY one of cores, fabric, tuning, lsl, "
                        "depth, unroll, freq");
    }
}

}  // namespace

int main(int argc, char** argv) {
    search::search_options opts;
    search::parameter_grid grid;
    bool grid_given = false;
    bool include_registry = true;
    bool frontier_only = true;
    bool ndjson = false;
    bool shard_given = false;
    u32 workers = 0;
    u32 threads = 0;

    flag_reader args(argc, argv);
    while (args.next()) {
        if (args.is("--workload")) {
            opts.workload = args.text();
        } else if (args.is("--instructions")) {
            opts.instructions = args.count(1);
        } else if (args.is("--seed")) {
            opts.seed = args.count(0);
        } else if (args.is("--strategy")) {
            const std::string v = args.text();
            const auto kind = search::parse_strategy(v);
            if (!kind) args.fail(v, "exhaustive, random or halving");
            opts.strategy = *kind;
        } else if (args.is("--samples")) {
            opts.sample_count = args.count(1);
        } else if (args.is("--sample-seed")) {
            opts.sample_seed = args.count(0);
        } else if (args.is("--keep")) {
            opts.halving_keep = args.real(0.0, 1.0);
        } else if (args.is("--budget-div")) {
            opts.halving_divisor = args.count(2);
        } else if (args.is("--probe-faults")) {
            opts.probe.faults = static_cast<u32>(args.count(0, u32_max));
        } else if (args.is("--probe-seed")) {
            opts.probe.seed = args.count(0);
        } else if (args.is("--grid")) {
            apply_grid_axis(args, grid);
            grid_given = true;
        } else if (args.is_switch("--no-registry")) {
            include_registry = false;
        } else if (args.is("--shard")) {
            const std::string v = args.text();
            const std::size_t slash = v.find('/');
            u64 k = 0;
            u64 n = 0;
            if (slash == std::string::npos ||
                !parse_count(v.substr(slash + 1), 1, u32_max, &n) ||
                !parse_count(v.substr(0, slash), 0, n - 1, &k)) {
                args.fail(v, "K/N with K < N");
            }
            opts.shard_index = static_cast<u32>(k);
            opts.shard_count = static_cast<u32>(n);
            shard_given = true;
        } else if (args.is("--workers")) {
            workers = static_cast<u32>(args.count(0, 1024));
        } else if (args.is("--checkpoint-dir")) {
            opts.checkpoint_dir = args.text();
        } else if (args.is_switch("--resume")) {
            opts.resume = true;
        } else if (args.is("--threads")) {
            threads = static_cast<u32>(args.count(0, 1024));
        } else if (args.is("--format")) {
            const std::string v = args.text();
            if (v != "csv" && v != "ndjson") args.fail(v, "csv or ndjson");
            ndjson = v == "ndjson";
        } else if (args.is_switch("--all")) {
            frontier_only = false;
        } else {
            return usage(argv[0]);
        }
    }

    if (find_profile(opts.workload) == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
        return 1;
    }
    if (opts.shard_count > 1 && opts.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--shard needs --checkpoint-dir to merge across runs\n");
        return 2;
    }
    if (workers > 0 && shard_given) {
        std::fprintf(stderr, "--workers spawns its own --shard children; pick one\n");
        return 2;
    }
    if (workers > 1 && opts.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--workers needs --checkpoint-dir for the shard merge\n");
        return 2;
    }
    if (!grid_given) grid = search::default_grid();

    if (workers > 1) {
        // Re-issue this exact invocation as one child per shard (minus the
        // --workers flag, in either form), wait, then fall through and merge:
        // with every checkpoint present the search below simulates nothing.
        search::shard_dispatch_options dispatch;
        dispatch.shard_count = workers;
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--workers") {
                ++i;  // skip the value too
            } else if (arg.rfind("--workers=", 0) != 0) {
                dispatch.argv_base.push_back(arg);
            }
        }
        std::fprintf(stderr, "# dispatching %u shard worker(s)\n", workers);
        const search::shard_dispatch_result spawned = search::dispatch_shards(dispatch);
        if (!spawned.ok) {
            if (!spawned.error.empty()) {
                std::fprintf(stderr, "shard dispatch failed: %s\n", spawned.error.c_str());
            }
            for (std::size_t k = 0; k < spawned.exit_codes.size(); ++k) {
                if (spawned.exit_codes[k] != 0) {
                    std::fprintf(stderr, "shard %zu/%u exited with %d\n", k, workers,
                                 spawned.exit_codes[k]);
                }
            }
            return 1;
        }
        opts.shard_index = 0;
        opts.shard_count = workers;
        opts.resume = true;
    }

    const std::vector<search::design_point> points =
        search::enumerate_points(grid, include_registry);
    if (points.empty()) {
        std::fprintf(stderr, "empty universe (--no-registry with no grid axes?)\n");
        return 1;
    }

    sim::executor ex(threads);
    serve::outcome_cache outcomes;
    std::fprintf(stderr,
                 "# universe: %zu points (%s registry), strategy %s, workload %s, "
                 "%llu instr, probe %u faults, shard %u/%u, %u thread(s)\n",
                 points.size(), include_registry ? "with" : "no",
                 search::strategy_name(opts.strategy), opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.instructions),
                 opts.probe.faults, opts.shard_index, opts.shard_count,
                 ex.num_threads());

    const search::search_result result = search::run_search(points, opts, ex, &outcomes);

    if (!result.complete) {
        std::fprintf(stderr, "# shard %u/%u done; waiting for shard(s):",
                     opts.shard_index, opts.shard_count);
        for (const u32 s : result.missing_shards) std::fprintf(stderr, " %u", s);
        std::fprintf(stderr,
                     "\n# re-run the missing shards against the same "
                     "--checkpoint-dir, then any shard emits the merged frontier\n");
        return 0;
    }

    const std::string rendered = ndjson ? search::to_ndjson(result, frontier_only)
                                        : search::to_csv(result, frontier_only);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    const serve::outcome_cache_stats os = outcomes.stats();
    const sim::executor_timing t = ex.timing();
    std::fprintf(stderr,
                 "# evaluated=%zu pruned=%zu resumed=%llu frontier=%zu\n"
                 "# outcomes: hits=%llu misses=%llu hit_rate=%.1f%%\n"
                 "# job wall-time ms: min=%.2f mean=%.2f max=%.2f total=%.2f\n",
                 result.evaluated.size(), result.pruned,
                 static_cast<unsigned long long>(result.resumed_points),
                 result.frontier.size(), static_cast<unsigned long long>(os.hits),
                 static_cast<unsigned long long>(os.misses), 100.0 * os.hit_rate(),
                 t.min_ms, t.mean_ms, t.max_ms, t.total_ms);
    for (const search::point_result& p : result.evaluated) {
        if (!p.error.empty()) {
            std::fprintf(stderr, "# failed: %s: %s\n", p.name.c_str(), p.error.c_str());
        }
    }
    return 0;
}
