// Simulation-kernel hot-path guarantees:
//   * the event-driven low domain (the fabric running ahead of checkers that
//     catch up in per-core runs) is bit-identical to the exhaustive
//     reference mode that ticks every little core on every low cycle —
//     compared field-for-field over the whole meek_run_result, per-core,
//     fabric and big-core stats included, across generated workloads,
//     checker counts, DC-Buffer depths, LSL sizes and both fabrics; no LSL
//     ever rejects a delivery when it holds at least one entry;
//   * an LSL with no run-time entry is rejected when the run begins;
//   * a configuration that can provably make no progress (zero-capacity
//     fabric) surfaces as an explicit run_result error instead of the former
//     livelock, in both advance modes;
//   * a run split into begin/advance/finish steps, and a copy of the SoC
//     taken mid-run and finished on its own, are bit-identical to one
//     continuous run, also when the run is stopped early.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "isa/assembler.h"
#include "meek/soc.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace meek {
namespace {

// Mixed ALU/memory/branch loop: long enough to span several segments, with
// loaded values kept live so forwarded-data corruption must be detected.
program loop_program(int iterations) {
    program_builder b;
    b.emit_li(1, iterations);
    b.emit_li(5, k_default_data_base);
    b.emit_li(6, 0);
    b.label("loop");
    b.emit(make_r(opcode::add, 6, 6, 1));
    b.emit(make_i(opcode::xori, 6, 6, 0x55));
    b.emit(make_i(opcode::slli, 8, 6, 1));
    b.emit(make_r(opcode::add, 6, 6, 8));
    b.emit(make_store(opcode::sd, 6, 5, 0));
    b.emit(make_load(opcode::ld, 7, 5, 0));
    b.emit(make_r(opcode::add, 6, 6, 7));
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    return b.build();
}

// A counter kept in memory (load, increment, store back): its final value
// depends on every store landing in this run's memory and nowhere else.
program memory_counter_program(int iterations) {
    program_builder b;
    b.emit_li(1, iterations);
    b.emit_li(5, k_default_data_base);
    b.label("loop");
    b.emit(make_load(opcode::ld, 6, 5, 0));
    b.emit(make_i(opcode::addi, 6, 6, 1));
    b.emit(make_store(opcode::sd, 6, 5, 0));
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    return b.build();
}

// Field-for-field comparison of two runs that must be bit-identical. Every
// scalar the result carries is asserted individually so a divergence names
// the field that moved instead of reporting an opaque struct mismatch.
void expect_identical_results(const meek_run_result& a, const meek_run_result& b) {
    EXPECT_EQ(a.big.instructions, b.big.instructions);
    EXPECT_EQ(a.big.cycles, b.big.cycles);
    EXPECT_EQ(a.big.halted, b.big.halted);
    EXPECT_EQ(a.big.truncated, b.big.truncated);
    EXPECT_EQ(a.drain_cycles, b.drain_cycles);
    EXPECT_EQ(a.soc.segments_started, b.soc.segments_started);
    EXPECT_EQ(a.soc.segments_verified, b.soc.segments_verified);
    EXPECT_EQ(a.soc.segments_failed, b.soc.segments_failed);
    EXPECT_EQ(a.soc.errors_detected, b.soc.errors_detected);
    EXPECT_EQ(a.soc.stall_collecting, b.soc.stall_collecting);
    EXPECT_EQ(a.soc.stall_forwarding, b.soc.stall_forwarding);
    EXPECT_EQ(a.soc.stall_checker, b.soc.stall_checker);
    EXPECT_EQ(a.verified_ok, b.verified_ok);
    EXPECT_EQ(a.error, b.error);
}

void expect_identical_little_stats(const meek_soc& a, const meek_soc& b,
                                   u32 cores) {
    for (u32 i = 0; i < cores; ++i) {
        const little_core_stats& sa = a.little(i).stats();
        const little_core_stats& sb = b.little(i).stats();
        EXPECT_EQ(sa.replayed_instructions, sb.replayed_instructions) << "core " << i;
        EXPECT_EQ(sa.segments_checked, sb.segments_checked) << "core " << i;
        EXPECT_EQ(sa.segments_failed, sb.segments_failed) << "core " << i;
        EXPECT_EQ(sa.busy_cycles, sb.busy_cycles) << "core " << i;
        EXPECT_EQ(sa.stall_lsl_empty, sb.stall_lsl_empty) << "core " << i;
        EXPECT_EQ(sa.stall_watermark, sb.stall_watermark) << "core " << i;
        EXPECT_EQ(sa.stall_srcp, sb.stall_srcp) << "core " << i;
        EXPECT_EQ(sa.apply_compare_cycles, sb.apply_compare_cycles) << "core " << i;
        EXPECT_EQ(sa.app_instructions, sb.app_instructions) << "core " << i;
    }
}

void expect_identical_fabric_stats(const meek_soc& a, const meek_soc& b) {
    const fabric_stats& fa = a.fabric().stats();
    const fabric_stats& fb = b.fabric().stats();
    EXPECT_EQ(fa.packets_pushed, fb.packets_pushed);
    EXPECT_EQ(fa.packets_delivered, fb.packets_delivered);
    EXPECT_EQ(fa.transmissions, fb.transmissions);
    EXPECT_EQ(fa.multicast_merged, fb.multicast_merged);
    EXPECT_EQ(fa.push_rejects, fb.push_rejects);
    EXPECT_EQ(fa.delivery_retries, fb.delivery_retries);
    EXPECT_EQ(fa.busy_lo_cycles, fb.busy_lo_cycles);
    EXPECT_EQ(fa.max_dc_depth, fb.max_dc_depth);
}

void expect_identical_big_core_stats(const meek_soc& a, const meek_soc& b) {
    const core_stats& ca = a.big_core().stats();
    const core_stats& cb = b.big_core().stats();
    EXPECT_EQ(ca.instructions, cb.instructions);
    EXPECT_EQ(ca.cycles, cb.cycles);
    EXPECT_EQ(ca.mispredicts, cb.mispredicts);
    EXPECT_EQ(ca.stall_icache, cb.stall_icache);
    EXPECT_EQ(ca.stall_redirect, cb.stall_redirect);
    EXPECT_EQ(ca.stall_dcache, cb.stall_dcache);
    EXPECT_EQ(ca.stall_sink, cb.stall_sink);
    EXPECT_TRUE(arch_snapshot::capture(a.big_core().state()) ==
                arch_snapshot::capture(b.big_core().state()))
        << "architectural state differs";
    const cache_stats& ia = a.big_core().hierarchy().l1i().stats();
    const cache_stats& ib = b.big_core().hierarchy().l1i().stats();
    EXPECT_EQ(ia.hits, ib.hits);
    EXPECT_EQ(ia.misses, ib.misses);
    const cache_stats& da = a.big_core().hierarchy().l1d().stats();
    const cache_stats& db = b.big_core().hierarchy().l1d().stats();
    EXPECT_EQ(da.hits, db.hits);
    EXPECT_EQ(da.misses, db.misses);
}

// Runs `p` three ways: continuously; as a copy taken at `split`
// instructions and finished on its own; and as the original of that copy,
// finished afterwards in steps of `step` instructions (so many split points
// land right after a redirect). All three must agree field-for-field. The
// copy runs first: one still wired to the original's memory or watermark
// would see the original frozen at `split`. A nonzero `stop_seq` requests an
// early stop at the first forwarded packet with seq >= stop_seq. Returns
// the continuous run's result.
meek_run_result expect_split_and_copy_match_continuous(const soc_config& cfg,
                                                       const program& p,
                                                       bool event_driven, u64 split,
                                                       u64 stop_seq = 0) {
    constexpr u64 step = 211;
    auto prepare = [&](meek_soc& soc) {
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
    };
    auto attach_stop = [stop_seq](meek_soc& soc) {
        if (stop_seq == 0) return;
        soc.set_packet_hook([&soc, stop_seq](fwd_packet& pkt) {
            if (pkt.seq >= stop_seq) soc.request_stop();
        });
    };

    meek_soc whole(cfg);
    prepare(whole);
    attach_stop(whole);
    const meek_run_result r_whole = whole.run();

    meek_soc split_soc(cfg);
    prepare(split_soc);
    attach_stop(split_soc);
    split_soc.begin();
    run_limits head;
    head.max_instructions = split;
    split_soc.advance(head);
    EXPECT_EQ(split_soc.big_core().stats().instructions, split);

    meek_soc copy(split_soc);  // hooks are not copied
    attach_stop(copy);
    copy.advance(run_limits{});
    const meek_run_result r_copy = copy.finish();
    for (u64 end = split + step; end - step < r_copy.big.instructions; end += step) {
        head.max_instructions = end;
        split_soc.advance(head);
    }
    split_soc.advance(run_limits{});
    const meek_run_result r_split = split_soc.finish();

    for (const meek_soc* soc : {&split_soc, &copy}) {
        SCOPED_TRACE(soc == &copy ? "copy" : "split");
        expect_identical_results(r_whole, soc == &copy ? r_copy : r_split);
        expect_identical_little_stats(whole, *soc, cfg.num_little_cores);
        expect_identical_fabric_stats(whole, *soc);
        expect_identical_big_core_stats(whole, *soc);
        EXPECT_EQ(whole.detections().size(), soc->detections().size());
    }
    return r_whole;
}

TEST(sim_kernel, split_and_copied_runs_match_a_continuous_run) {
    const program loop = loop_program(3000);
    const program counter = memory_counter_program(4000);
    const auto wl = generate_workload(*find_profile("hmmer"), 30'000, 0xC0FFEE);
    soc_config axi;
    axi.fabric.kind = fabric_kind::axi_interconnect;
    for (const bool event_driven : {true, false}) {
        SCOPED_TRACE(event_driven ? "event-driven" : "exhaustive");
        const meek_run_result a =
            expect_split_and_copy_match_continuous(soc_config{}, loop, event_driven, 7'777);
        EXPECT_TRUE(a.big.halted);
        EXPECT_TRUE(a.verified_ok);
        expect_split_and_copy_match_continuous(soc_config{}, counter, event_driven, 9'001);
        const meek_run_result b =
            expect_split_and_copy_match_continuous(axi, wl.prog, event_driven, 12'345);
        EXPECT_TRUE(b.big.halted);
        EXPECT_TRUE(b.verified_ok);
    }
}

TEST(sim_kernel, stopped_run_checks_what_it_committed_and_matches_when_split) {
    const program p = loop_program(3000);
    for (const bool event_driven : {true, false}) {
        SCOPED_TRACE(event_driven ? "event-driven" : "exhaustive");
        const meek_run_result r = expect_split_and_copy_match_continuous(
            soc_config{}, p, event_driven, 7'777, /*stop_seq=*/15'000);
        EXPECT_TRUE(r.big.truncated);
        EXPECT_FALSE(r.big.halted);
        EXPECT_GE(r.big.instructions, 15'001u);
        EXPECT_LT(r.big.instructions, 15'100u) << "stops right after the request";
        // Fault-free: everything committed before the stop is verified, and
        // nothing is reported.
        EXPECT_TRUE(r.verified_ok);
        EXPECT_TRUE(r.error.empty());
        EXPECT_EQ(r.soc.errors_detected, 0u);
        EXPECT_EQ(r.soc.segments_failed, 0u);
        EXPECT_EQ(r.soc.segments_verified, r.soc.segments_started);
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_field_for_field) {
    const program p = loop_program(3000);
    for (u32 cores : {2u, 4u}) {
        soc_config cfg;
        cfg.num_little_cores = cores;

        meek_soc ev(cfg);
        ev.set_event_driven_low_advance(true);
        ev.load_program(p);
        const meek_run_result r_ev = ev.run();

        meek_soc ex(cfg);
        ex.set_event_driven_low_advance(false);
        ex.load_program(p);
        const meek_run_result r_ex = ex.run();

        ASSERT_TRUE(r_ev.big.halted);
        ASSERT_TRUE(r_ev.verified_ok);
        expect_identical_results(r_ev, r_ex);
        expect_identical_little_stats(ev, ex, cores);
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_on_generated_workload) {
    // A registry workload exercises the FP/branch mix the synthetic loop
    // does not; tight DC-Buffer depth forces the forwarding-stall path so
    // the bulk-accounted wait loops are covered too.
    const auto wl = generate_workload(*find_profile("hmmer"), 30'000, 0xC0FFEE);
    soc_config cfg;
    cfg.num_little_cores = 2;
    cfg.fabric.dc_buffer_depth = 4;

    meek_soc ev(cfg);
    ev.set_event_driven_low_advance(true);
    ev.load_program(wl.prog);
    const meek_run_result r_ev = ev.run();

    meek_soc ex(cfg);
    ex.set_event_driven_low_advance(false);
    ex.load_program(wl.prog);
    const meek_run_result r_ex = ex.run();

    ASSERT_TRUE(r_ev.big.halted);
    expect_identical_results(r_ev, r_ex);
    expect_identical_little_stats(ev, ex, cfg.num_little_cores);
}

TEST(sim_kernel, event_driven_matches_exhaustive_under_fault_injection) {
    // The detection path (checker mismatch -> segment failure -> error hook)
    // must land on the same cycle in both modes.
    const program p = loop_program(1500);
    auto run_with_fault = [&](bool event_driven, meek_run_result& out,
                              std::vector<detection_event>& detections) {
        soc_config cfg;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        bool injected = false;
        soc.set_packet_hook([&](fwd_packet& pkt) {
            if (!injected && pkt.kind == packet_kind::runtime_load && pkt.seq > 300) {
                pkt.data ^= 1ull << 7;
                pkt.fault_injected = true;
                injected = true;
            }
        });
        out = soc.run();
        detections = soc.detections();
        EXPECT_TRUE(injected);
    };

    meek_run_result r_ev, r_ex;
    std::vector<detection_event> d_ev, d_ex;
    run_with_fault(true, r_ev, d_ev);
    run_with_fault(false, r_ex, d_ex);

    EXPECT_FALSE(r_ev.verified_ok);
    expect_identical_results(r_ev, r_ex);
    ASSERT_EQ(d_ev.size(), d_ex.size());
    for (std::size_t i = 0; i < d_ev.size(); ++i) {
        EXPECT_EQ(d_ev[i].kind, d_ex[i].kind);
        EXPECT_EQ(d_ev[i].segment, d_ex[i].segment);
        EXPECT_EQ(d_ev[i].detect_big_cycle, d_ex[i].detect_big_cycle);
    }
}

// One configuration of the oracle matrix.
struct oracle_case {
    const char* workload;
    u32 cores;
    u32 depth;
    u32 lsl_bytes;
    fabric_kind fabric;
    u64 little_mhz = 0;  // 0: the tuning's own clock (2 GHz)
    u64 instructions = 0;  // 0: 2.5k with a one-entry LSL, 9k otherwise
};

std::string oracle_name(const oracle_case& c) {
    return std::string(c.workload) + "/c" + std::to_string(c.cores) + "/d" +
           std::to_string(c.depth) + "/lsl" + std::to_string(c.lsl_bytes) +
           (c.fabric == fabric_kind::f2 ? "/f2" : "/axi") + "/mhz" +
           std::to_string(c.little_mhz);
}

u64 case_length(const oracle_case& c) {
    if (c.instructions != 0) return c.instructions;
    return c.lsl_bytes <= 16 ? 2'500 : 9'000;
}

soc_config oracle_config(const oracle_case& c) {
    soc_config cfg;
    cfg.num_little_cores = c.cores;
    cfg.fabric.dc_buffer_depth = c.depth;
    cfg.fabric.kind = c.fabric;
    cfg.little.lsl_bytes = c.lsl_bytes;
    cfg.little.freq_override_mhz = c.little_mhz;
    return cfg;
}

TEST(sim_kernel, event_driven_matches_exhaustive_across_the_config_matrix) {
    // Every workload meets every checker count, DC-Buffer depth, LSL size
    // and fabric at least once (a rotation, not the full cross product, to
    // keep tier-1 fast). A one-entry LSL makes every run-time entry its own
    // segment, the most RCP- and wait-heavy schedule there is. The last two
    // cases clock the checkers at and below the fabric's 1.6 GHz, where some
    // low cycles hold no little cycle.
    const char* const workloads[] = {"hmmer", "mcf", "swaptions", "dedup"};
    const u32 cores[] = {2, 4, 8};
    const u32 depths[] = {1, 2, 16};
    const u32 lsls[] = {16, 256, 4096};
    std::vector<oracle_case> cases;
    for (u32 w = 0; w < 4; ++w) {
        for (u32 i = 0; i < 6; ++i) {
            cases.push_back({workloads[w], cores[i % 3], depths[(i + w) % 3],
                             lsls[(i / 2 + w) % 3],
                             (i + w) % 2 == 0 ? fabric_kind::f2 : fabric_kind::axi_interconnect});
        }
    }
    cases.push_back({"hmmer", 4, 16, 4096, fabric_kind::f2, 1600});
    cases.push_back({"swaptions", 4, 2, 256, fabric_kind::axi_interconnect, 1100});
    // Pending-RCP waits where the newest verifier already holds its whole
    // ERCP but still waits on the one-behind rule: it must not run ahead.
    cases.push_back({"swaptions", 3, 16, 16, fabric_kind::f2, 0, 20'000});
    cases.push_back({"bzip2", 2, 16, 256, fabric_kind::f2, 0, 20'000});
    std::map<std::pair<std::string, u64>, generated_workload> programs;
    auto program_for = [&](const char* name, u64 n) -> const program& {
        auto it = programs.find({name, n});
        if (it == programs.end()) {
            it = programs.emplace(std::pair{std::string(name), n},
                                  generate_workload(*find_profile(name), n, 0xC0FFEE))
                     .first;
        }
        return it->second.prog;
    };
    std::vector<const oracle_case*> clean;
    for (const oracle_case& c : cases) {
        SCOPED_TRACE(oracle_name(c));
        const soc_config cfg = oracle_config(c);
        const program& p = program_for(c.workload, case_length(c));

        meek_soc ev(cfg);
        ev.set_event_driven_low_advance(true);
        ev.load_program(p);
        const meek_run_result r_ev = ev.run();
        meek_soc ex(cfg);
        ex.set_event_driven_low_advance(false);
        ex.load_program(p);
        const meek_run_result r_ex = ex.run();

        // Two checkers with one-entry LSLs can deadlock the RCP protocol
        // (the one-behind rule holds both); the modes must agree on that too.
        if (r_ev.error.empty()) {
            EXPECT_TRUE(r_ev.verified_ok);
            clean.push_back(&c);
        } else {
            EXPECT_EQ(c.cores, 2u) << r_ev.error;
        }
        expect_identical_results(r_ev, r_ex);
        expect_identical_little_stats(ev, ex, c.cores);
        expect_identical_fabric_stats(ev, ex);
        expect_identical_big_core_stats(ev, ex);
        ASSERT_EQ(ev.detections().size(), ex.detections().size());
        EXPECT_EQ(ev.fabric().stats().delivery_retries, 0u);
        EXPECT_EQ(ex.fabric().stats().delivery_retries, 0u);
    }
    ASSERT_GE(clean.size(), 24u);
    // Split and copied runs across the matrix: the catch-up points (end of
    // advance(), a copy's first catch-up) change nothing.
    for (std::size_t i = 0; i < clean.size(); i += 5) {
        const oracle_case& c = *clean[i];
        SCOPED_TRACE("split/copy " + oracle_name(c));
        const soc_config cfg = oracle_config(c);
        const program& p = program_for(c.workload, case_length(c));
        expect_split_and_copy_match_continuous(cfg, p, /*event_driven=*/true, 1'234);
    }
}

TEST(sim_kernel, lsl_without_a_runtime_entry_is_rejected_when_the_run_begins) {
    // Used to burn ~2e8 delivery retries before a stall-budget error.
    const program p = loop_program(500);
    meek_run_result results[2];
    for (const bool event_driven : {true, false}) {
        soc_config cfg;
        cfg.little.lsl_bytes = cfg.little.lsl_entry_bytes - 1;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        const meek_run_result r = soc.run();
        EXPECT_NE(r.error.find("holds no run-time entry"), std::string::npos) << r.error;
        EXPECT_TRUE(r.big.truncated);
        EXPECT_FALSE(r.verified_ok);
        EXPECT_EQ(r.big.instructions, 0u);
        EXPECT_EQ(soc.fabric().stats().delivery_retries, 0u);
        results[event_driven ? 0 : 1] = r;
    }
    expect_identical_results(results[0], results[1]);
}

TEST(sim_kernel, single_core_rcp_deadlock_reports_error_instead_of_livelock) {
    // With one little core the pending-RCP block and the one-behind rule
    // deadlock each other: the only checker needs the watermark to advance
    // past the boundary to finish, and the watermark cannot advance while
    // commits are blocked on it going idle. This used to spin ~2e8 low ticks
    // and then abort the whole process with an uncaught exception; it must
    // now come back immediately as a run_result error, identically in both
    // advance modes.
    const program p = loop_program(3000);
    meek_run_result results[2];
    for (const bool event_driven : {true, false}) {
        soc_config cfg;
        cfg.num_little_cores = 1;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        const meek_run_result r = soc.run();
        EXPECT_FALSE(r.error.empty()) << "event_driven=" << event_driven;
        EXPECT_TRUE(r.big.truncated) << "event_driven=" << event_driven;
        EXPECT_FALSE(r.verified_ok) << "event_driven=" << event_driven;
        EXPECT_NE(r.error.find("livelock averted"), std::string::npos) << r.error;
        results[event_driven ? 0 : 1] = r;
    }
    expect_identical_results(results[0], results[1]);
}

TEST(sim_kernel, zero_capacity_fabric_reports_error_instead_of_livelock) {
    // A fabric that can never accept a packet used to livelock push_blocking
    // forever. Quiescence detection must now abort the run with an explicit
    // error, in both advance modes, and the two modes must agree on it.
    const program p = loop_program(500);
    meek_run_result results[2];
    for (const bool event_driven : {true, false}) {
        soc_config cfg;
        cfg.fabric.dc_buffer_depth = 0;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        const meek_run_result r = soc.run();
        EXPECT_FALSE(r.error.empty()) << "event_driven=" << event_driven;
        EXPECT_TRUE(r.big.truncated) << "event_driven=" << event_driven;
        EXPECT_FALSE(r.verified_ok) << "event_driven=" << event_driven;
        results[event_driven ? 0 : 1] = r;
    }
    expect_identical_results(results[0], results[1]);
}

}  // namespace
}  // namespace meek
