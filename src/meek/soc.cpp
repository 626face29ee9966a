#include "meek/soc.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace meek {
namespace {

constexpr cycle_t k_drain_tick_bound = 200'000'000;

dest_mask_t bit(int core) { return static_cast<dest_mask_t>(1u << core); }

}  // namespace

meek_soc::meek_soc(const soc_config& cfg)
    : cfg_(cfg),
      big_clock_(cfg.big.freq_mhz),
      low_clock_(cfg.fabric.freq_mhz),
      deu_(cfg.little.lsl_entries(), cfg.little.rcp_instruction_timeout,
           cfg.big.commit_width) {
    big_ = std::make_unique<ooo_core>(cfg.big, memory_);
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        littles_.push_back(std::make_unique<little_core>(cfg.little, i, memory_));
        littles_.back()->set_watermark(&watermark_view_);
    }
    arrivals_.resize(cfg.num_little_cores);
    checker_lo_.assign(cfg.num_little_cores, 0);
    fabric_ = std::make_unique<fabric_model>(cfg.fabric, cfg.big.commit_width,
                                             cfg.num_little_cores);
    fabric_->set_deliver_ref(deliver_to_littles());
    if (const char* mode = std::getenv("MEEK_LOW_ADVANCE")) {
        if (std::string_view(mode) == "exhaustive") event_driven_ = false;
    }
    // Table III clocks the optimized Rockets at 2 GHz (the deeper FPU
    // pipeline and unrolled divider close timing); the fabric stays in the
    // 1.6 GHz domain of Fig. 2. An explicit freq_override_mhz (design-space
    // sweeps) takes precedence over the tuning's achievable clock.
    little_freq_mhz_ = cfg.little.effective_freq_mhz();
}

meek_soc::meek_soc(const meek_soc& other)
    : commit_sink(other),
      cfg_(other.cfg_),
      big_clock_(other.big_clock_),
      low_clock_(other.low_clock_),
      memory_(other.memory_),
      big_(std::make_unique<ooo_core>(*other.big_, memory_)),
      fabric_(std::make_unique<fabric_model>(*other.fabric_, deliver_to_littles())),
      deu_(other.deu_),
      prog_(other.prog_),
      checking_(other.checking_),
      current_segment_(other.current_segment_),
      current_verifier_(other.current_verifier_),
      segment_instrs_(other.segment_instrs_),
      segment_runtime_entries_(other.segment_runtime_entries_),
      segment_start_seq_(other.segment_start_seq_),
      committed_watermark_(other.committed_watermark_),
      watermark_view_(other.watermark_view_),
      pending_(other.pending_),
      extract_busy_until_(other.extract_busy_until_),
      low_ticks_done_(other.low_ticks_done_),
      checker_lo_(other.checker_lo_),
      delivery_lo_(other.delivery_lo_),
      arrivals_(other.arrivals_),
      watermark_steps_(other.watermark_steps_),
      watermark_base_(other.watermark_base_),
      reports_(other.reports_),
      little_freq_mhz_(other.little_freq_mhz_),
      little_ticks_done_(other.little_ticks_done_),
      detections_(other.detections_),
      stats_(other.stats_),
      halted_seen_(other.halted_seen_),
      event_driven_(other.event_driven_),
      big_run_(other.big_run_),
      run_error_(other.run_error_) {
    littles_.reserve(other.littles_.size());
    for (const auto& lc : other.littles_) {
        littles_.push_back(std::make_unique<little_core>(*lc, memory_, &watermark_view_));
    }
}

fabric_model::deliver_ref meek_soc::deliver_to_littles() {
    // Raw context + function-pointer sink: the per-packet delivery path
    // compiles down to one indirect call. Lockstep delivers straight into
    // little_core::deliver; event-driven buffers for the lagging checker.
    return {this, [](void* ctx, u32 core, const fwd_packet& p) {
                auto* soc = static_cast<meek_soc*>(ctx);
                if (!soc->event_driven_) return soc->littles_[core]->deliver(p);
                soc->arrivals_[core].push_back({soc->delivery_lo_, p});
                return true;
            }};
}

void meek_soc::load_program(const program& prog) {
    prog_ = &prog;
    big_->load_program(prog);
    for (auto& lc : littles_) lc->set_program(prog);
}

void meek_soc::set_checking(bool enabled) {
    checking_ = enabled;
    deu_.set_enabled(enabled);
}

int meek_soc::find_idle_core() {
    catch_up_checkers();
    for (u32 i = 0; i < littles_.size(); ++i) {
        if (littles_[i]->idle()) return static_cast<int>(i);
    }
    return -1;
}

void meek_soc::assign_segment(u32 core, u32 segment, u64 start_seq) {
    littles_[core]->assign_segment({segment, start_seq});
    current_verifier_ = static_cast<int>(core);
    current_segment_ = segment;
    ++stats_.segments_started;
}

void meek_soc::tick_low_once() {
    // Exhaustive reference mode: the fabric and every core tick every cycle.
    const cycle_t lo = low_ticks_done_;
    fabric_->tick_low(lo);
    // Little cores run at their achievable clock: e.g. 5 core cycles per 4
    // low-domain cycles at 2 GHz.
    const cycle_t target = little_at(lo + 1);
    while (little_ticks_done_ < target) {
        for (auto& lc : littles_) lc->tick(little_ticks_done_);
        ++little_ticks_done_;
    }
    ++low_ticks_done_;
    collect_results();
}

void meek_soc::advance_low_to(cycle_t big_cycle) {
    const cycle_t target = (big_cycle + 1) / 2;  // == ceil(big_cycle / 2)
    if (!event_driven_) {
        while (low_ticks_done_ < target) tick_low_once();
        return;
    }
    raise_due(target);
    if (hooked()) catch_up_checkers();
}

void meek_soc::raise_due(cycle_t to_lo) {
    if (to_lo <= low_ticks_done_) return;
    run_fabric(low_ticks_done_, to_lo);
    low_ticks_done_ = to_lo;
}

cycle_t meek_soc::run_fabric(cycle_t from_lo, cycle_t to_lo) {
    // The fabric is a pure function of the push stream: run it alone,
    // skipping cycles with nothing due. Only a due-but-blocked head (an
    // event at or before `lo`) is retried cycle by cycle.
    cycle_t lo = from_lo;
    for (;;) {
        const cycle_t e = fabric_->next_event_lo();
        if (e == fabric_model::k_no_event) break;
        lo = std::max(lo, e);
        if (lo >= to_lo) break;
        delivery_lo_ = lo;
        fabric_->tick_low(lo);
        ++lo;
    }
    return lo;
}

void meek_soc::publish_watermark(u64 value) {
    committed_watermark_ = value;
    if (!event_driven_) {
        // Lockstep: the checkers are at the due cycle; wake any checker
        // stalled on the one-behind rule (the one park condition not
        // signalled via deliver()).
        watermark_view_ = value;
        for (auto& lc : littles_) lc->notify_external();
        return;
    }
    // Lagging checkers read it from the due cycle on; several commits in one
    // low cycle leave the last value.
    if (!watermark_steps_.empty() && watermark_steps_.back().from_lo == low_ticks_done_) {
        watermark_steps_.back().value = value;
    } else {
        watermark_steps_.push_back({low_ticks_done_, value});
    }
}

void meek_soc::catch_up_checkers() {
    if (!event_driven_) return;
    const cycle_t to = low_ticks_done_;
    for (u32 c = 0; c < littles_.size(); ++c) {
        // Already there (or run ahead) with no result to collect: nothing to do.
        if (checker_lo_[c] >= to && !littles_[c]->has_result()) continue;
        run_checker(c, to);
    }
    // Commits at the due cycle itself wake the checkers standing there now,
    // as lockstep does at commit time. A checker run ahead is past them and
    // does not read the watermark any more.
    if (!watermark_steps_.empty()) {
        if (watermark_steps_.back().from_lo == to) {
            for (u32 c = 0; c < littles_.size(); ++c) {
                if (checker_lo_[c] == to) littles_[c]->notify_external();
            }
        }
        watermark_steps_.clear();
    }
    watermark_base_ = watermark_view_ = committed_watermark_;
    if (reports_.empty()) return;
    std::sort(reports_.begin(), reports_.end(),
              [](const checker_report& a, const checker_report& b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.core < b.core;
              });
    for (const checker_report& r : reports_) record_result(r.result);
    reports_.clear();
}

void meek_soc::run_checker(u32 core, cycle_t to_lo) {
    little_core& lc = *littles_[core];
    cycle_t& lo = checker_lo_[core];
    std::vector<arrival>& in = arrivals_[core];
    std::size_t a = 0;
    auto w = std::lower_bound(watermark_steps_.begin(), watermark_steps_.end(), lo,
                              [](const watermark_step& s, cycle_t v) { return s.from_lo < v; });
    watermark_view_ = w == watermark_steps_.begin() ? watermark_base_ : std::prev(w)->value;
    cycle_t k = little_at(lo);
    for (;;) {
        if (lc.has_result()) {
            // Reported on low cycle lo - 1: collected once that is due.
            if (lo > low_ticks_done_) break;
            reports_.push_back({lo - 1, core, lc.collect_result()});
        }
        if (lo >= to_lo) break;
        // External input at `lo`, ahead of its little cycles: fabric
        // arrivals, then the watermark in force (both only unpark).
        for (; a < in.size() && in[a].lo <= lo; ++a) {
            if (in[a].lo < lo || !lc.deliver(in[a].packet)) {
                throw std::logic_error("little core " + std::to_string(core) +
                                       " cannot take a buffered arrival at low cycle " +
                                       std::to_string(in[a].lo));
            }
        }
        if (w != watermark_steps_.end() && w->from_lo <= lo) {
            for (; w != watermark_steps_.end() && w->from_lo <= lo; ++w) {
                watermark_view_ = w->value;
            }
            // A wake below its need would only repeat the same stall.
            if (lc.watermark_need() <= watermark_view_) lc.notify_external();
        }
        // Next input that can change what the core does; the watermark steps
        // it would only repeat its stall through are stepped over.
        cycle_t next = to_lo;
        if (a < in.size()) next = std::min(next, in[a].lo);
        if (const u64 need = lc.watermark_need(); need != ~u64{0}) {
            const auto wake = std::lower_bound(
                w, watermark_steps_.end(), need,
                [](const watermark_step& s, u64 v) { return s.value < v; });
            if (wake != watermark_steps_.end()) next = std::min(next, wake->from_lo);
        }
        const cycle_t k_end = next == k_never ? k_never : little_at(next);
        k = lc.advance_to(k, k_end);
        if (lc.has_result()) {
            // Reported on little cycle k - 1: finish its low cycle (report-
            // phase ticks only park), where lockstep would collect it.
            lo = low_of_little(k - 1) + 1;
            if (k < little_at(lo)) lc.tick(k);
            k = little_at(lo);
        } else if (k != k_end) {
            // Unbounded run, parked with nothing left to wake it: stop after
            // the low cycle it last ran in.
            if (k != little_at(lo)) {
                lo = low_of_little(k - 1) + 1;
                lc.account_parked(little_at(lo) - k);
            }
            break;
        } else {
            lo = next;
        }
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(a));
}

void meek_soc::wait_for_idle_checker() {
    cycle_t guard = 0;
    if (!event_driven_) {
        while (find_idle_core() < 0) step_low_for_wait(guard, "rcp wait");
        return;
    }
    if (find_idle_core() >= 0) return;
    // No commit happens until a checker frees, so the watermark stands
    // still and the checkers are independent: those whose result is settled
    // run to it at once, and a lone checker left behind runs alone up to its
    // next fabric arrival or the earliest settled result.
    run_ahead_released_checkers();
    while (find_idle_core() < 0) {
        const cycle_t due = low_ticks_done_;
        int lone = -1;
        u32 lagging = 0;
        cycle_t to = k_never;
        for (u32 c = 0; c < littles_.size(); ++c) {
            if (checker_lo_[c] > due) {
                if (littles_[c]->has_result()) to = std::min(to, checker_lo_[c]);
            } else if (!littles_[c]->idle()) {
                lone = static_cast<int>(c);
                ++lagging;
            }
        }
        if (lagging <= 1) {
            if (lone >= 0) {
                const u32 c = static_cast<u32>(lone);
                const cycle_t arrival = fabric_->next_arrival_lo(c);
                if (arrival == fabric_model::k_no_event || arrival > due) {
                    run_checker(c, std::min(to, arrival));
                    if (littles_[c]->has_result()) to = std::min(to, checker_lo_[c]);
                }
                // Its next arrival lands in that fabric tick (no earlier than
                // the due cycle); the catch-up then runs it through.
                if (arrival != fabric_model::k_no_event) {
                    to = std::min(to, std::max(arrival, due) + 1);
                }
            }
            if (to != k_never) {
                raise_due(to);
                if (++guard > k_drain_tick_bound) {
                    throw soc_stall_error("rcp wait: stall budget exhausted");
                }
                continue;
            }
        }
        // Several checkers lag (they step in lockstep), or nothing is left
        // to happen (quiescence is reported there).
        step_low_for_wait(guard, "rcp wait");
    }
}

void meek_soc::run_ahead_released_checkers() {
    for (u32 c = 0; c < littles_.size(); ++c) {
        if (checker_lo_[c] == low_ticks_done_ &&
            littles_[c]->inputs_complete(committed_watermark_)) {
            run_checker(c, k_never);
        }
    }
}

cycle_t meek_soc::next_activity_lo() const {
    const cycle_t lo = low_ticks_done_;
    cycle_t wake = k_never;
    for (u32 c = 0; c < littles_.size(); ++c) {
        const auto& lc = littles_[c];
        if (event_driven_ && checker_lo_[c] > lo) {
            // Run ahead: its only activity left is the result it holds,
            // collected at the end of the low cycle it reported on.
            if (lc->has_result()) wake = std::min(wake, checker_lo_[c] - 1);
            continue;
        }
        switch (lc->park()) {
            case little_core::park_state::runnable:
                return lo;
            case little_core::park_state::busy_wait: {
                // First low cycle whose little-tick batch reaches the wake
                // point (little cycles).
                wake = std::min(wake, std::max(low_of_little(lc->park_wake()), lo));
                break;
            }
            case little_core::park_state::idle_wait:
            case little_core::park_state::extern_wait:
                break;  // only an external event can wake these
        }
    }
    const cycle_t f = fabric_->next_event_lo();
    if (f != fabric_model::k_no_event) {
        // A due-but-blocked delivery (f <= lo) must keep retrying every low
        // cycle so delivery_retries stays exact: no skipping.
        if (f <= lo) return lo;
        wake = std::min(wake, f);
    }
    return wake;
}

void meek_soc::step_low_for_wait(cycle_t& guard, const char* what) {
    // Quiescence means the wait condition can never be satisfied: nothing is
    // in flight and every checker needs external input. Detected identically
    // in both advance modes (it is a pure observation of parked state).
    catch_up_checkers();
    cycle_t wake = next_activity_lo();
    if (wake == k_never && event_driven_) {
        // A checker run ahead went quiet after the due cycle: lockstep
        // would only notice quiescence there.
        const cycle_t last = *std::max_element(checker_lo_.begin(), checker_lo_.end());
        if (last > low_ticks_done_) {
            raise_due(last);
            catch_up_checkers();
            wake = next_activity_lo();
        }
    }
    if (wake == k_never) {
        std::string msg(what);
        msg += ": SoC quiescent with unsatisfied wait (livelock averted);";
        for (u32 i = 0; i < littles_.size(); ++i) {
            const auto& lc = littles_[i];
            msg += " core" + std::to_string(i) + "=" +
                   (lc->idle()         ? "idle"
                    : lc->has_result() ? "report"
                                       : "checking") +
                   "/park" +
                   std::to_string(static_cast<int>(lc->park()));
        }
        throw soc_stall_error(msg);
    }
    if (event_driven_) {
        // Skip to the wake and run it.
        raise_due(wake + 1);
        catch_up_checkers();
    } else {
        tick_low_once();
    }
    if (++guard > k_drain_tick_bound) {
        throw soc_stall_error(std::string(what) + ": stall budget exhausted");
    }
}

void meek_soc::collect_results() {
    for (auto& lc : littles_) {
        if (lc->has_result()) record_result(lc->collect_result());
    }
}

void meek_soc::record_result(const segment_result& r) {
    ++stats_.segments_verified;
    if (r.passed) return;
    ++stats_.segments_failed;
    ++stats_.errors_detected;
    detection_event ev;
    ev.kind = r.error.kind;
    ev.segment = r.segment;
    ev.detect_big_cycle = r.error.detect_lo_cycle * cfg_.big.freq_mhz / little_freq_mhz_;
    detections_.push_back(ev);
    if (error_ref_) error_ref_(ev);
}

cycle_t meek_soc::push_blocking(fwd_packet p, u32 path, cycle_t now_big,
                                cycle_t& stall_bucket) {
    advance_low_to(now_big);
    cycle_t guard = 0;
    while (!fabric_->can_accept(p.kind, path)) {
        const cycle_t e = fabric_->next_event_lo();
        if (event_driven_ && e != fabric_model::k_no_event) {
            // Only a fabric tick can free the channel: step the fabric alone
            // to its next event; the checkers keep lagging.
            raise_due(std::max(e, low_ticks_done_) + 1);
            if (hooked()) catch_up_checkers();
            if (++guard > k_drain_tick_bound) {
                throw soc_stall_error("fabric push: stall budget exhausted");
            }
        } else {
            step_low_for_wait(guard, "fabric push");
        }
        const cycle_t nb = low_ticks_done_ * 2;
        if (nb > now_big) {
            stall_bucket += nb - now_big;
            now_big = nb;
        }
    }
    fabric_->push(p, path, now_big);
    return now_big;
}

cycle_t meek_soc::send_status(const arch_snapshot& snap, u32 boundary,
                              dest_mask_t dest, cycle_t now_big, u64 seq) {
    const cycle_t start = now_big;
    const u32 ports = cfg_.big.commit_width;
    for (u32 w = 0; w < k_snapshot_words; ++w) {
        fwd_packet p;
        p.kind = packet_kind::status_word;
        p.segment = boundary;
        p.word_index = static_cast<u16>(w);
        p.data = snapshot_word(snap, w);
        p.seq = seq;
        p.dest = dest;
        p.created_big_cycle = now_big;
        if (packet_ref_) packet_ref_(p);
        // PRF read ports deliver `ports` words per cycle.
        now_big = std::max(now_big, start + w / ports);
        now_big = push_blocking(p, w % cfg_.big.commit_width, now_big,
                                stats_.stall_forwarding);
    }
    deu_.note_status_words(k_snapshot_words);
    return now_big;
}

cycle_t meek_soc::fire_rcp(const commit_record& rec, cycle_t now_big, bool final_rcp) {
    const int old_verifier = current_verifier_;
    if (old_verifier < 0) return now_big;

    // End marker for the finishing segment.
    fwd_packet end;
    end.kind = packet_kind::segment_end;
    end.segment = current_segment_;
    end.data = segment_instrs_;
    end.seq = rec.seq;
    end.dest = bit(old_verifier);
    end.created_big_cycle = now_big;
    if (packet_ref_) packet_ref_(end);
    now_big = push_blocking(end, 0, now_big, stats_.stall_forwarding);

    const arch_snapshot snap = arch_snapshot::capture(big_->state());
    const u32 boundary = current_segment_ + 1;
    const u64 start_seq = rec.seq + 1;

    if (final_rcp) {
        // Program finished: the snapshot is only an ERCP for the last segment.
        now_big = send_status(snap, boundary, bit(old_verifier), now_big, rec.seq);
        extract_busy_until_ = now_big + deu_.extraction_cycles();
        return now_big;
    }

    const int next = find_idle_core();
    if (next >= 0) {
        assign_segment(static_cast<u32>(next), boundary, start_seq);
        // Selective broadcast: one multicast stream serves the old verifier's
        // ERCP and the new verifier's SRCP.
        now_big = send_status(snap, boundary,
                              static_cast<dest_mask_t>(bit(old_verifier) | bit(next)),
                              now_big, rec.seq);
    } else {
        // No checker free: the old verifier still gets its ERCP so it can
        // finish; the SRCP copy is sent once a core frees (pending).
        now_big = send_status(snap, boundary, bit(old_verifier), now_big, rec.seq);
        pending_ = pending_rcp{snap, boundary, start_seq};
        current_verifier_ = -1;
        current_segment_ = boundary;
    }
    extract_busy_until_ = now_big + deu_.extraction_cycles();
    segment_instrs_ = 0;
    segment_runtime_entries_ = 0;
    segment_start_seq_ = start_seq;
    return now_big;
}

cycle_t meek_soc::on_commit(const commit_record& rec, cycle_t proposed) {
    cycle_t t = proposed;
    if (!deu_.enabled()) {
        // No checker is fed: the watermark moves without waking anyone.
        catch_up_checkers();
        committed_watermark_ = watermark_view_ = rec.seq + 1;
        return t;
    }
    advance_low_to(t);

    // A pending RCP blocks all commits until a checker frees (the LSL "lock"
    // the paper describes in Sec. IV-C).
    if (pending_) {
        wait_for_idle_checker();
        const cycle_t nb = low_ticks_done_ * 2;
        if (nb > t) {
            stats_.stall_checker += nb - t;
            t = nb;
        }
        const int core = find_idle_core();
        assign_segment(static_cast<u32>(core), pending_->boundary, pending_->start_seq);
        t = send_status(pending_->snapshot, pending_->boundary, bit(core), t,
                        pending_->start_seq);
        pending_.reset();
    }

    // Snapshot extraction occupies the PRF read ports (data collecting).
    if (extract_busy_until_ > t) {
        stats_.stall_collecting += extract_busy_until_ - t;
        t = extract_busy_until_;
        advance_low_to(t);
    }

    // Run-time data extraction.
    if (auto pkt = deu_.runtime_packet(rec)) {
        pkt->segment = current_segment_;
        pkt->dest = bit(current_verifier_);
        pkt->created_big_cycle = t;
        if (packet_ref_) packet_ref_(*pkt);
        t = push_blocking(*pkt, static_cast<u32>(rec.seq % cfg_.big.commit_width), t,
                          stats_.stall_forwarding);
        ++segment_runtime_entries_;
    }
    ++segment_instrs_;
    publish_watermark(rec.seq + 1);

    if (deu_.check_trigger(rec, segment_runtime_entries_, segment_instrs_) !=
        rcp_trigger::none) {
        t = fire_rcp(rec, t, false);
    }
    return t;
}

void meek_soc::on_halt(cycle_t at) {
    (void)at;
    halted_seen_ = true;
}

meek_run_result meek_soc::run(const run_limits& limits) {
    begin();
    advance(limits);
    return finish();
}

void meek_soc::begin() {
    if (prog_ == nullptr || !checking_) return;
    if (cfg_.little.lsl_entries() == 0) {
        // Every run-time entry would be rejected forever; the fabric's
        // run-ahead also relies on each segment fitting its LSL.
        run_error_ = "little.lsl_bytes (" + std::to_string(cfg_.little.lsl_bytes) +
                     ") holds no run-time entry of " +
                     std::to_string(cfg_.little.lsl_entry_bytes) + " bytes";
        return;
    }
    try {
        assign_segment(0, 0, 0);
        send_status(arch_snapshot::capture(big_->state()), 0, bit(0), 0, 0);
    } catch (const soc_stall_error& e) {
        run_error_ = e.what();
    }
}

void meek_soc::advance(const run_limits& limits) {
    if (prog_ == nullptr || !run_error_.empty()) return;
    // The core's limit counts the instructions of one call; ours counts
    // from begin(), so a split run stops where a continuous one would.
    const u64 done = big_->stats().instructions;
    run_limits rest = limits;
    rest.max_instructions = limits.max_instructions > done ? limits.max_instructions - done : 0;
    try {
        big_run_ = big_->run(rest, checking_ ? this : nullptr);
        big_run_.instructions = big_->stats().instructions;
        // A split or copied run resumes from the same canonical state.
        catch_up_checkers();
    } catch (const soc_stall_error& e) {
        run_error_ = e.what();
        big_run_ = run_result{};  // the application run did not complete
    }
}

meek_run_result meek_soc::finish() {
    meek_run_result result;
    if (prog_ == nullptr) return result;
    result.big = big_run_;

    if (checking_ && run_error_.empty()) {
        try {
            cycle_t t = result.big.cycles;
            // An unresolved pending RCP here means zero instructions followed
            // the last boundary; there is nothing left to verify for it.
            pending_.reset();
            if (current_verifier_ >= 0) {
                commit_record final_rec;
                final_rec.seq = big_->stats().instructions == 0
                                    ? 0
                                    : big_->stats().instructions - 1;
                final_rec.commit_cycle = t;
                t = fire_rcp(final_rec, t, true);
            }
            // Let the tail checkers run out (the main thread is done, so the
            // one-behind rule no longer binds).
            publish_watermark(~u64{0});
            catch_up_checkers();
            cycle_t guard = 0;
            auto all_idle = [&] {
                return std::all_of(littles_.begin(), littles_.end(),
                                   [](const auto& lc) { return lc->idle(); });
            };
            if (event_driven_ && (!fabric_->drained() || !all_idle())) {
                // Nothing is pushed any more and the watermark holds no one
                // back: run the fabric to its end and every checker to its
                // result. The drain ends where the last of them does.
                cycle_t end = std::max(low_ticks_done_, run_fabric(low_ticks_done_, k_never));
                run_ahead_released_checkers();
                for (u32 c = 0; c < littles_.size(); ++c) {
                    if (!littles_[c]->idle()) end = std::max(end, checker_lo_[c]);
                }
                raise_due(end);
                catch_up_checkers();
            }
            // Left only with a checker that cannot finish: step to quiescence.
            while (!fabric_->drained() || !all_idle()) {
                step_low_for_wait(guard, "drain");
            }
            const cycle_t end_big = low_ticks_done_ * 2;
            result.drain_cycles = end_big > t ? end_big - t : 0;
        } catch (const soc_stall_error& e) {
            run_error_ = e.what();
        }
    }
    if (!run_error_.empty()) {
        result.error = run_error_;
        result.big.truncated = true;
    }

    result.soc = stats_;
    result.verified_ok = stats_.segments_failed == 0 && result.error.empty();
    return result;
}

}  // namespace meek
