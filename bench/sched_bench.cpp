// sched_bench — scheduler contention microbenchmark for sched::pool under
// the fine-grained-task regime the serve and search paths produce.
//
// For each (worker count, shape) it posts `--tasks` ~1 µs spin tasks from an
// external producer thread — the gateway/service posting pattern — and
// measures:
//   * post_ms   — wall time to push the whole batch in,
//   * join_ms   — last post until the final task retired,
//   * total_ms  — first post until the final task retired,
//   * mtasks_per_s — batch throughput (posts + steals + runs) over total,
//   * overhead_ns — per-task scheduling overhead: wall ns per task minus
//     task_ns / workers, the share of each task's cost the pool added.
// Shapes: `uniform` homes tasks round-robin (pure throughput), `skewed`
// homes 10 of every 11 tasks on worker 0 (the 10:1 placement lie that forces
// the steal path to carry the batch). Each config runs `--repeat` times on a
// fresh pool; the best run is reported, machine-readable, one line per
// config:
//
//   sched_bench: workers=4 shape=uniform tasks=40000 task_ns=1000 ... overhead_ns=180.4 ...
//
// `--check` exits nonzero unless overhead_ns stays at or below
// kMaxOverheadNs at every worker count and shape. The bound is 1% of the
// shortest real job class (serve jobs, p50 about 0.6 ms), so the pool can
// never cost an end-to-end metric more than about 1%.
//
// Options: --quick (CI size: 40k tasks, workers 1/4), --workers CSV,
// --tasks N, --task-ns N, --repeat R, --check, each value flag also as
// --flag=VALUE. Values must be whole decimal numbers; --task-ns may be 0
// (empty tasks), the others must be positive. Anything else exits 2.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <vector>

#include "common/cli.h"
#include "sched/pool.h"

using namespace meek;

namespace {

constexpr double kMaxOverheadNs = 5'000.0;

struct run_result {
    double post_ms = 0.0;
    double join_ms = 0.0;
    double total_ms = 0.0;
    double mtasks_per_s = 0.0;
    sched::pool_stats stats;
};

// Busy-spin for ~ns nanoseconds: the 1 µs task stand-in. Clock-based, so it
// is honest under oversubscription (a preempted task still "costs" its
// budget in wall time, which is exactly what a contended scheduler sees).
void spin_for_ns(long ns) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < until) {
    }
}

std::size_t task_home(std::size_t i, u32 workers, bool skewed) {
    if (!skewed || workers == 1) return i % workers;
    // 10:1 skew — 10 of every 11 tasks land on worker 0, the remainder
    // round-robins over the other workers so they are producers of steals,
    // not idle from the start.
    if (i % 11 != 10) return 0;
    return 1 + (i / 11) % (workers - 1);
}

run_result run_once(u32 workers, bool skewed, std::size_t tasks, long task_ns) {
    sched::pool p(workers);
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < tasks; ++i) {
        p.post(task_home(i, workers, skewed), [&, task_ns] {
            spin_for_ns(task_ns);
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done.load(std::memory_order_acquire) == tasks; });
    }
    const auto t2 = std::chrono::steady_clock::now();

    run_result r;
    r.post_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.join_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    r.total_ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
    r.mtasks_per_s = r.total_ms > 0.0
                         ? static_cast<double>(tasks) / (r.total_ms * 1e3)
                         : 0.0;
    r.stats = p.stats();
    return r;
}

run_result best_of(u32 workers, bool skewed, std::size_t tasks, long task_ns,
                   u32 repeat) {
    run_result best;
    for (u32 i = 0; i < repeat; ++i) {
        run_result r = run_once(workers, skewed, tasks, task_ns);
        if (i == 0 || r.total_ms < best.total_ms) best = r;
    }
    return best;
}

double overhead_ns(const run_result& r, u32 workers, std::size_t tasks,
                   long task_ns) {
    return r.total_ms * 1e6 / static_cast<double>(tasks) -
           static_cast<double>(task_ns) / workers;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<u32> workers = {1, 4, 16};
    std::size_t tasks = 200'000;
    long task_ns = 1'000;
    u32 repeat = 3;
    bool check = false;

    flag_reader args(argc, argv);
    while (args.next()) {
        if (args.is_switch("--quick")) {
            workers = {1, 4};
            tasks = 40'000;
        } else if (args.is("--workers")) {
            const std::vector<u64> list = args.count_list(1, 1024);
            workers.assign(list.begin(), list.end());
        } else if (args.is("--tasks")) {
            tasks = args.count(1, 100'000'000);
        } else if (args.is("--task-ns")) {
            task_ns = static_cast<long>(args.count(0, 1'000'000'000));
        } else if (args.is("--repeat")) {
            repeat = static_cast<u32>(args.count(1, 1'000));
        } else if (args.is_switch("--check")) {
            check = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--workers CSV] [--tasks N] "
                         "[--task-ns N] [--repeat R] [--check]\n",
                         argv[0]);
            return 2;
        }
    }

    bool check_ok = true;
    for (const u32 w : workers) {
        for (const bool skewed : {false, true}) {
            const char* shape = skewed ? "skewed" : "uniform";
            const run_result r = best_of(w, skewed, tasks, task_ns, repeat);
            const double ovh = overhead_ns(r, w, tasks, task_ns);
            std::printf(
                "sched_bench: workers=%u shape=%s tasks=%zu task_ns=%ld "
                "post_ms=%.3f join_ms=%.3f total_ms=%.3f mtasks_per_s=%.3f "
                "overhead_ns=%.1f steals=%llu steal_attempts=%llu "
                "steal_success=%.1f%%\n",
                w, shape, tasks, task_ns, r.post_ms, r.join_ms, r.total_ms,
                r.mtasks_per_s, ovh,
                static_cast<unsigned long long>(r.stats.steals()),
                static_cast<unsigned long long>(r.stats.steal_attempts()),
                100.0 * r.stats.steal_success_rate());
            if (check) {
                const bool ok = ovh <= kMaxOverheadNs;
                std::printf("[check] per-task scheduling overhead <= %.0f ns "
                            "(workers=%u shape=%s): %s\n",
                            kMaxOverheadNs, w, shape, ok ? "OK" : "FAIL");
                if (!ok) check_ok = false;
            }
            std::fflush(stdout);
        }
    }
    return check_ok ? 0 : 1;
}
