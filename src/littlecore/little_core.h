// In-order scalar little core (Rocket-class, 5-stage pipeline) upgraded with
// the Mode Switch Unit and Load-Store Log (Fig. 4). Two operational modes:
//
//  * application mode — ordinary execution against main memory through its
//    own L1 caches (used by "other threads" and by the l.* programming-model
//    demos);
//  * check mode — replay of a recorded segment: architectural state is reset
//    from the SRCP, loads and non-repeatable instructions are satisfied from
//    the LSL with inline address/data comparison, and the final state is
//    compared against the ERCP.
//
// All timing is in the low-frequency domain (1.6 GHz). CPI comes from an
// in-order scoreboard: 1 IPC peak, per-class latencies (div/FPU per tuning),
// load-use bubbles, 2-cycle taken-branch flushes and I$ misses.
#pragma once

#include <functional>
#include <optional>

#include "common/config.h"
#include "isa/arch_state.h"
#include "isa/exec.h"
#include "isa/program.h"
#include "littlecore/lsl.h"
#include "mem/cache.h"
#include "mem/functional_memory.h"

namespace meek {

enum class core_mode : u8 { application, check };

enum class checker_phase : u8 {
    idle,        // no segment assigned
    wait_srcp,   // busy-waiting on status data (Al. 2 line 19)
    apply,       // l.apply: loading architectural state from the LSL
    replay,      // re-executing the segment
    compare,     // ERCP comparison
    report,      // result latched, waiting for the controller to collect
};

enum class check_error_kind : u8 {
    none,
    load_addr_mismatch,    // replayed load address != logged address
    store_addr_mismatch,
    store_data_mismatch,
    csr_addr_mismatch,
    log_kind_mismatch,     // replay wanted a different entry type than logged
    ercp_mismatch,         // final architectural state differs from the ERCP
    control_divergence,    // replay left the text segment / overran the count
    parity_fault,          // load data failed its parity check at the LSL
};

struct check_error {
    check_error_kind kind = check_error_kind::none;
    u32 segment = 0;
    u64 seq = 0;               // dynamic instruction seq where detected (approx)
    cycle_t detect_lo_cycle = 0;
};

struct segment_result {
    u32 segment = 0;
    bool passed = true;
    check_error error;
    u64 replayed_instructions = 0;
    cycle_t finished_lo_cycle = 0;
};

struct little_core_stats {
    u64 replayed_instructions = 0;
    u64 segments_checked = 0;
    u64 segments_failed = 0;
    cycle_t busy_cycles = 0;          // cycles not idle
    cycle_t stall_lsl_empty = 0;      // waiting for run-time data to arrive
    cycle_t stall_watermark = 0;      // one-instruction-behind rule
    cycle_t stall_srcp = 0;           // busy-wait for status data
    cycle_t apply_compare_cycles = 0; // l.apply + ERCP comparison overhead
    u64 app_instructions = 0;
};

class little_core {
public:
    // `watermark` points at the big core's committed-instruction counter and
    // implements the deadlock-avoidance rule of Fig. 5(b): the checker stays
    // at least one instruction behind the main thread.
    little_core(const little_core_config& cfg, u32 core_id,
                functional_memory& memory);

    // Snapshot copy of `other` (check-mode progress, LSL contents, caches,
    // park state, stats) bound to `memory` and `watermark` instead of the
    // original's.
    little_core(const little_core& other, functional_memory& memory,
                const u64* watermark);
    little_core& operator=(const little_core&) = delete;

    void set_program(const program& prog) { prog_ = &prog; }
    void set_watermark(const u64* watermark) { watermark_ = watermark; }

    // --- Check mode (driven by the MEEK controller) ---
    struct segment_job {
        u32 segment = 0;
        u64 start_seq = 0;
    };
    void assign_segment(const segment_job& job);
    bool idle() const { return phase_ == checker_phase::idle; }
    bool has_result() const { return phase_ == checker_phase::report; }
    segment_result collect_result();

    // --- Park state (event-driven low-domain advance) ---
    // After every tick() the core publishes why its next tick would be a
    // no-op, so the SoC can jump over provably-idle spans in one step:
    //   runnable    — must be ticked every little cycle (no skipping);
    //   idle_wait   — idle/report: nothing happens until assign/collect;
    //   busy_wait   — busy-waiting on busy_until_ (wake at park_wake());
    //   extern_wait — stalled on external input (SRCP/ERCP words, LSL
    //                 entries, the commit watermark); an event must unpark.
    enum class park_state : u8 { runnable, idle_wait, busy_wait, extern_wait };
    park_state park() const { return park_; }
    cycle_t park_wake() const { return park_wake_; }  // little cycles; busy_wait only

    // Bulk accounting for `n` skipped little cycles: replicates exactly what
    // `n` consecutive ticks would have recorded (a parked tick only bumps
    // busy/stall counters and returns — no other state changes).
    void account_parked(cycle_t n);

    // External wake: the commit watermark advanced (the only park condition
    // not signalled through deliver()/assign_segment()).
    void notify_external() {
        if (park_ == park_state::extern_wait) park_ = park_state::runnable;
    }

    // The smallest watermark whose arrival can change what this core does:
    // a core stalled on the one-behind rule retries that same stall below
    // its need, and one idle or waiting for status words retries its stall
    // whatever the watermark (~0). Any step matters to a running core or one
    // waiting for run-time entries (0).
    u64 watermark_need() const {
        if (park_ == park_state::idle_wait) return ~u64{0};
        if (park_ != park_state::extern_wait) return 0;
        switch (park_stall_) {
            case park_stall::watermark: return start_seq_ + replayed_ + 2;
            case park_stall::srcp: return ~u64{0};
            default: return 0;
        }
    }

    // Whether the running check needs nothing more from outside at
    // `watermark` or above: the ERCP is complete in the LSL (it is the
    // segment's last packet, so everything before it is in too) and replay
    // up to the ERCP compare needs no later commit (one-behind rule). Its
    // result is then settled, whatever the big core does next.
    bool inputs_complete(u64 watermark) const {
        const auto count = lsl_.expected_count();
        return phase_ != checker_phase::idle && phase_ != checker_phase::report &&
               lsl_.ercp_ready() && count && start_seq_ + *count + 2 <= watermark;
    }

    // Runs little cycles [now, end) alone, exactly as that many tick()s with
    // no external input in between would: parked spans are bulk-accounted
    // and only runnable cycles (and busy wakes) execute. Returns early, with
    // the next little cycle, right after the tick that latched a result, and
    // for an unbounded run (end == ~0) once parked with no wake of its own.
    cycle_t advance_to(cycle_t now, cycle_t end);

    // Fabric delivery port. Returns false if the LSL rejected the packet.
    // Load data is parity-checked on arrival (the paper duplicates/protects
    // the data end-to-end: cache parity is carried through the LSQ and F2).
    bool deliver(const fwd_packet& p);
    load_store_log& lsl() { return lsl_; }

    // Advance one low-frequency-domain cycle.
    void tick(cycle_t now_lo);

    // --- Application mode (standalone execution, OS threads, l.* demos) ---
    // Runs `max_instructions` starting from the core's current architectural
    // state; returns cycles consumed (low-domain). Used by tests/examples and
    // the Fig. 10 perf/area bench.
    struct app_run_result {
        u64 instructions = 0;
        cycle_t cycles = 0;
        bool halted = false;
    };
    app_run_result run_application(u64 max_instructions);

    arch_state& state() { return state_; }
    const little_core_stats& stats() const { return stats_; }
    const little_core_config& config() const { return cfg_; }
    u32 core_id() const { return core_id_; }
    core_mode mode() const { return mode_; }

    // Last l.rslt value for the programming-model demo (1 = pass).
    u64 last_result() const { return last_result_; }

private:
    little_core(const little_core&) = default;

    struct instr_timing {
        cycle_t issue = 0;
        cycle_t complete = 0;
    };

    // Executes one replay instruction if its inputs (LSL entries, watermark)
    // allow; returns false when stalled this cycle.
    bool replay_step(cycle_t now_lo);
    instr_timing time_instruction(const instr& ins, cycle_t earliest,
                                  cycle_t extra_latency);
    u32 op_latency(op_class c) const;
    void fail(check_error_kind kind, cycle_t now_lo);

    // Rocket-style front end: small BTB + 2-bit BHT. Returns the fetch-bubble
    // penalty (0 when predicted correctly) for a resolved control transfer.
    cycle_t control_penalty(const instr& ins, addr_t pc, bool taken, addr_t target);

    little_core_config cfg_;
    u32 core_id_;
    functional_memory* memory_;
    const program* prog_ = nullptr;
    const u64* watermark_ = nullptr;

    cache_model l1i_;
    cache_model l1d_;
    // I$ line the previous replay fetch hit: still its set's MRU line with no
    // MSHR, so a fetch from it is a hit without a tag lookup. Reset wherever
    // l1i_ is accessed otherwise.
    static constexpr u64 k_no_line = ~u64{0};
    u64 fetch_hit_line_ = k_no_line;
    load_store_log lsl_;

    core_mode mode_ = core_mode::application;
    checker_phase phase_ = checker_phase::idle;
    arch_state state_;
    arch_state saved_app_state_;  // MSU-recorded context (l.record semantics)

    // Replay bookkeeping.
    u32 segment_ = 0;
    u64 start_seq_ = 0;
    u64 replayed_ = 0;
    cycle_t busy_until_ = 0;
    cycle_t phase_cycles_left_ = 0;
    std::array<cycle_t, k_num_arch_regs> xready_{};
    std::array<cycle_t, k_num_arch_regs> fready_{};
    cycle_t div_busy_until_ = 0;
    cycle_t fpu_next_accept_ = 0;
    segment_result pending_result_;
    u64 last_result_ = 1;

    struct btb_slot {
        addr_t pc = 0;
        addr_t target = 0;
        bool valid = false;
    };
    std::array<btb_slot, 64> btb_{};
    std::array<u8, 256> bht_{};  // 2-bit counters, taken when >= 2
    bool parity_error_pending_ = false;

    enum class park_stall : u8 { none, srcp, watermark, lsl };
    park_state park_ = park_state::runnable;
    park_stall park_stall_ = park_stall::none;
    cycle_t park_wake_ = 0;

    little_core_stats stats_;
};

}  // namespace meek
