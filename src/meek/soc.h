// MEEK SoC top level: one big OoO core + N little checker cores joined by
// the forwarding fabric, with the DEU observing commits and the segmentation
// controller implementing the RCP protocol of Figs. 1/2.
//
// Clocking: the big core runs in the 3.2 GHz domain; the fabric and little
// cores run in the 1.6 GHz domain (one low cycle per two big cycles).
//
// The slowdown MEEK induces on the big core appears exclusively as commit
// backpressure, split into the Fig. 9 taxonomy:
//   * collecting — the DEU's snapshot read-out occupies the PRF ports;
//   * forwarding — a DC-Buffer channel is full (fabric cannot drain fast
//     enough);
//   * checker    — an RCP is due but no little core / LSL is free, or the
//     reserved LSL is full mid-segment.
//
// Two low-domain timelines (event-driven mode). Commits only raise the
// "due" low cycle, the one the lockstep model would have ticked to; the
// fabric is brought to it at once and the checkers lag behind:
//   * the fabric runs ahead of the checkers. Its deliveries are buffered per
//     core with their low cycle. That is exact because an LSL never rejects
//     one: the DEU fires an RCP as soon as a segment holds lsl_entries()
//     run-time entries, so a segment never outgrows its LSL (begin() rejects
//     an LSL with no run-time entry), and the cores feed nothing else back
//     into the fabric. A rejected buffered arrival throws std::logic_error.
//   * the checkers catch up only where the big core observes them: RCP
//     assignment (find_idle_core), the pending-RCP wait, the drain in
//     finish(), the end of advance() and the stall/quiescence error paths.
//     With a packet or error hook attached they catch up at every low-domain
//     advance, so hooks run in the same host order as in lockstep. Each core
//     then runs alone from event to event (its buffered arrivals, the steps
//     of a watermark history that gives it the commit watermark as of its
//     own cycle, and its busy wakes; little_core::advance_to), and results
//     are applied in (report cycle, core) order, the lockstep order.
//   * a checker whose inputs are complete (its ERCP is in the LSL and the
//     one-behind rule no longer binds it) may run ahead of the due cycle to
//     its result, which is applied once the due cycle reaches it. The
//     pending-RCP wait and the drain use this; in the wait a single checker
//     left behind also runs alone up to its next fabric arrival.
// The exhaustive mode ticks every core on every low cycle in lockstep and
// is the oracle the event-driven mode is checked against.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigcore/ooo_core.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/function_ref.h"
#include "deu/deu.h"
#include "fabric/fabric.h"
#include "littlecore/little_core.h"

namespace meek {

struct detection_event {
    check_error_kind kind = check_error_kind::none;
    u32 segment = 0;
    cycle_t detect_big_cycle = 0;
};

struct soc_stats {
    u64 segments_started = 0;
    u64 segments_verified = 0;
    u64 segments_failed = 0;
    u64 errors_detected = 0;

    // Backpressure buckets, in big-core cycles of commit stall.
    cycle_t stall_collecting = 0;
    cycle_t stall_forwarding = 0;
    cycle_t stall_checker = 0;

    cycle_t total_stall() const {
        return stall_collecting + stall_forwarding + stall_checker;
    }
};

struct meek_run_result {
    run_result big;            // big-core view (cycles include stalls)
    cycle_t drain_cycles = 0;  // extra big cycles to finish outstanding checks
    soc_stats soc;
    bool verified_ok = false;  // all segments passed (expected when no faults)
    // Non-empty when the run was aborted because the SoC could provably make
    // no further progress (e.g. a zero-capacity fabric that can never accept
    // a packet) or exhausted its stall budget. Replaces the former livelock.
    std::string error;
};

// Internal abort signal for stalled-forever configurations; meek_soc::run()
// converts it into meek_run_result::error.
struct soc_stall_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

class meek_soc : public commit_sink {
public:
    meek_soc(const soc_config& cfg);

    // Snapshot copy: the copy owns its own memory, cores, fabric and
    // counters, and continues exactly as the original would from here — so
    // a fault-free prefix can be simulated once and forked. Hooks are not
    // copied (they usually capture per-run observer state); attach fresh
    // ones to the copy.
    meek_soc(const meek_soc& other);
    meek_soc& operator=(const meek_soc&) = delete;

    // Loads the application program onto the big core (and makes the text
    // visible to the little cores' fetch path).
    void load_program(const program& prog);

    // b.check: enable/disable the checking capacity.
    void set_checking(bool enabled);

    // Runs the application thread to completion (or to `limits`), then
    // drains all outstanding checker work. Same as begin(), advance(limits),
    // finish().
    meek_run_result run(const run_limits& limits = {});

    // The same run in resumable steps. begin() hands segment 0 to the first
    // checker. advance() runs the application thread until it halts, a stop
    // is requested, or its instruction count since begin() reaches
    // `limits.max_instructions` (its commit cycle `limits.max_cycles`); it
    // may be called again with larger limits, on this SoC or on a copy.
    // finish() fires the final RCP and drains the checkers. However a run is
    // split, its result is bit-identical to begin(), advance(L), finish().
    void begin();
    void advance(const run_limits& limits);
    meek_run_result finish();

    // Early stop, typically requested from a hook: the big core stops after
    // the instruction it is committing, and finish() still checks
    // everything committed up to there.
    using commit_sink::request_stop;

    // --- Instrumentation / fault-injection hooks ---
    // Called on every packet right before it enters the fabric; campaigns
    // corrupt packets here (the paper injects "errors in the forwarded data
    // from the F2 connected to the big core").
    // The owning std::function is cold storage; the per-packet call sites
    // dispatch through a function_ref (null fast path = one predictable
    // branch, no type-erasure layers when a campaign is attached).
    using packet_hook = std::function<void(fwd_packet&)>;
    void set_packet_hook(packet_hook hook) {
        packet_hook_ = std::move(hook);
        if (packet_hook_) {
            packet_ref_ = function_ref<void(fwd_packet&)>(packet_hook_);
        } else {
            packet_ref_.reset();
        }
    }

    using error_hook = std::function<void(const detection_event&)>;
    void set_error_hook(error_hook hook) {
        error_hook_ = std::move(hook);
        if (error_hook_) {
            error_ref_ = function_ref<void(const detection_event&)>(error_hook_);
        } else {
            error_ref_.reset();
        }
    }

    // Low-domain advance strategy. Event-driven (default) runs the fabric and
    // the checkers on their own timelines (see the header comment), skipping
    // spans with nothing due and bulk-accounting stall counters; exhaustive
    // ticks everything on every low cycle and is the reference mode (env
    // MEEK_LOW_ADVANCE=exhaustive selects it globally). Both produce
    // bit-identical results. Select before begin().
    void set_event_driven_low_advance(bool on) { event_driven_ = on; }
    bool event_driven_low_advance() const { return event_driven_; }

    // commit_sink interface (driven by the big core).
    cycle_t on_commit(const commit_record& rec, cycle_t proposed) override;
    void on_halt(cycle_t at) override;

    const soc_stats& stats() const { return stats_; }
    const ooo_core& big_core() const { return *big_; }
    ooo_core& big_core() { return *big_; }
    const little_core& little(u32 i) const { return *littles_[i]; }
    const fabric_model& fabric() const { return *fabric_; }
    const data_extraction_unit& deu() const { return deu_; }
    const std::vector<detection_event>& detections() const { return detections_; }
    const soc_config& config() const { return cfg_; }

    double big_cycle_to_ns(cycle_t c) const { return big_clock_.cycles_to_ns(c); }

private:
    struct pending_rcp {
        arch_snapshot snapshot;
        u32 boundary = 0;      // snapshot index (segment it starts)
        u64 start_seq = 0;     // first instruction of the new segment
    };

    // Advance the low-frequency domain until `big_cycle`. Exhaustive mode
    // ticks everything and collects results as they appear; event-driven
    // mode raises the due cycle and brings only the fabric to it.
    void advance_low_to(cycle_t big_cycle);
    void tick_low_once();
    void collect_results();
    void record_result(const segment_result& r);

    // next_activity_lo() returns the earliest low cycle >= low_ticks_done_
    // at which any state can change (k_never when the SoC is quiescent and
    // only external input could wake it); the checkers must be caught up.
    // step_low_for_wait() performs one event step inside a wait loop and
    // throws soc_stall_error on quiescence or an exhausted stall budget.
    static constexpr cycle_t k_never = ~cycle_t{0};
    cycle_t next_activity_lo() const;
    void step_low_for_wait(cycle_t& guard, const char* what);

    // Event-driven timelines. raise_due() moves the due cycle to `to_lo`,
    // running the fabric alone (deliveries land in arrivals_); run_fabric()
    // runs it over [from_lo, to_lo) and returns the cycle after its last
    // tick. catch_up_checkers() brings every checker to the due cycle;
    // run_checker() runs one core alone from its own cycle to `to_lo`
    // (k_never: until it reports or nothing can wake it), collecting a
    // result only once it is due. run_ahead_released_checkers() runs every
    // checker whose inputs are complete (little_core::inputs_complete) to its
    // result: nothing the big core does can change that result, which stays
    // uncollected until the due cycle reaches it.
    // wait_for_idle_checker() is the pending-RCP wait.
    struct arrival {
        cycle_t lo = 0;
        fwd_packet packet;
    };
    struct watermark_step {
        cycle_t from_lo = 0;  // first low cycle that sees `value`
        u64 value = 0;
    };
    struct checker_report {
        cycle_t lo = 0;
        u32 core = 0;
        segment_result result;
    };
    void raise_due(cycle_t to_lo);
    cycle_t run_fabric(cycle_t from_lo, cycle_t to_lo);
    void catch_up_checkers();
    void run_checker(u32 core, cycle_t to_lo);
    void run_ahead_released_checkers();
    void wait_for_idle_checker();
    void publish_watermark(u64 value);
    bool hooked() const { return packet_ref_ || error_ref_; }
    // Little cycles before low cycle `lo` (the little clock runs at its own
    // frequency), and the low cycle whose batch holds little cycle `k`.
    cycle_t little_at(cycle_t lo) const {
        return lo * little_freq_mhz_ / cfg_.fabric.freq_mhz;
    }
    cycle_t low_of_little(cycle_t k) const {
        return ((k + 1) * cfg_.fabric.freq_mhz + little_freq_mhz_ - 1) / little_freq_mhz_ - 1;
    }

    // Push helpers that spin the low domain until the fabric accepts,
    // charging the wait to `stall_bucket`. Returns the (possibly later)
    // big-cycle at which the push succeeded.
    cycle_t push_blocking(fwd_packet p, u32 path, cycle_t now_big,
                          cycle_t& stall_bucket);

    // Emit the snapshot word stream for boundary `b` to `dest`. `seq` tags
    // the words with the committing instruction for latency bookkeeping.
    cycle_t send_status(const arch_snapshot& snap, u32 boundary, dest_mask_t dest,
                        cycle_t now_big, u64 seq);

    // Catches the checkers up first (their idle state is what it observes).
    int find_idle_core();
    void assign_segment(u32 core, u32 segment, u64 start_seq);
    cycle_t fire_rcp(const commit_record& rec, cycle_t now_big, bool final_rcp);
    // Fabric delivery into this SoC's checkers: little_core::deliver in
    // lockstep, the per-core arrival buffers in event-driven mode.
    fabric_model::deliver_ref deliver_to_littles();

    // Every member below is listed in the copy constructor; one added here
    // must be added there too.
    soc_config cfg_;
    clock_domain big_clock_;
    clock_domain low_clock_;

    functional_memory memory_;
    std::unique_ptr<ooo_core> big_;
    std::vector<std::unique_ptr<little_core>> littles_;
    std::unique_ptr<fabric_model> fabric_;
    data_extraction_unit deu_;

    const program* prog_ = nullptr;
    bool checking_ = true;

    // Segmentation state.
    u32 current_segment_ = 0;
    int current_verifier_ = -1;
    u32 segment_instrs_ = 0;
    u32 segment_runtime_entries_ = 0;
    u64 segment_start_seq_ = 0;
    u64 committed_watermark_ = 0;  // the big core's latest (one-behind rule)
    u64 watermark_view_ = 0;       // what the checkers read, as of their cycle
    std::optional<pending_rcp> pending_;
    cycle_t extract_busy_until_ = 0;
    // Low cycles [0, low_ticks_done_) are due: ticked in exhaustive mode; in
    // event-driven mode the fabric has run them and checker c has run
    // [0, checker_lo_[c]) (at least all due cycles after a catch-up).
    cycle_t low_ticks_done_ = 0;
    std::vector<cycle_t> checker_lo_;
    cycle_t delivery_lo_ = 0;  // the fabric tick being run (arrival stamp)
    std::vector<std::vector<arrival>> arrivals_;   // per core, in delivery order
    std::vector<watermark_step> watermark_steps_;  // since the last catch-up
    u64 watermark_base_ = 0;                       // in force before the steps
    std::vector<checker_report> reports_;          // one catch-up's results

    u64 little_freq_mhz_ = 2000;  // achievable clock of the little cores
    cycle_t little_ticks_done_ = 0;

    packet_hook packet_hook_;
    error_hook error_hook_;
    function_ref<void(fwd_packet&)> packet_ref_;
    function_ref<void(const detection_event&)> error_ref_;
    std::vector<detection_event> detections_;
    soc_stats stats_;
    bool halted_seen_ = false;
    bool event_driven_ = true;

    // Resumable-run state: the big core's view after the latest advance()
    // and the first stall error, which ends the run.
    run_result big_run_;
    std::string run_error_;
};

}  // namespace meek
