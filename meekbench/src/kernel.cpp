// kernel phase: one thread, closed loop, one simulation at a time. Each
// round runs the vanilla big core and meek/f2/opt/4 over two generated
// programs each of hmmer (128 KB working set, high commit rate,
// checker-bound at steady state) and mcf (8 MB working set, irregular
// accesses, IPC ~0.09, bound by the cache/DRAM model). meek vs vanilla separates the checker
// subsystem's host cost from the big core; hmmer vs mcf separates the
// pipeline from the memory model.
#include <cmath>
#include <cstdio>

#include "bigcore/ooo_core.h"
#include "littlecore/little_core.h"
#include "meek/soc.h"
#include "phases.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

namespace meekbench {
namespace {

using meek::obs::trace_span;

// Two generated programs per profile, so a seed's modelled numbers average
// over more than one program shape.
constexpr const char* k_profiles[] = {"hmmer", "mcf"};
constexpr u32 k_programs_per_profile = 2;

// x14 receives the generator's non-repeatable CSR read (a function of the
// commit cycle), so it is excluded; every other register and the pc must
// match.
constexpr unsigned k_csr_scratch_reg = 14;

bool same_state(const meek::arch_state& a, const meek::arch_state& b) {
    if (a.pc != b.pc || a.fregs != b.fregs) return false;
    for (unsigned r = 0; r < a.xregs.size(); ++r) {
        if (r != k_csr_scratch_reg && a.xregs[r] != b.xregs[r]) return false;
    }
    return true;
}

// The path push_blocking() used for `p`: status words stripe by word index,
// segment ends take path 0, run-time packets stripe by commit sequence.
u32 packet_path(const meek::fwd_packet& p, u32 paths) {
    switch (p.kind) {
        case meek::packet_kind::status_word: return p.word_index % paths;
        case meek::packet_kind::segment_end: return 0;
        default: return static_cast<u32>(p.seq % paths);
    }
}

// Replays a recorded packet stream into a standalone fabric whose little
// cores accept every delivery; returns the number of packets pushed.
u64 replay_packets(const meek::soc_config& cfg,
                   const std::vector<meek::fwd_packet>& packets) {
    meek::fabric_model fabric(cfg.fabric, cfg.big.commit_width, cfg.num_little_cores);
    fabric.set_deliver([](u32, const meek::fwd_packet&) { return true; });
    meek::cycle_t lo = 0;
    for (const meek::fwd_packet& p : packets) {
        const u32 path = packet_path(p, cfg.big.commit_width);
        while (lo * 2 < p.created_big_cycle) fabric.tick_low(lo++);
        while (!fabric.can_accept(p.kind, path)) fabric.tick_low(lo++);
        fabric.push(p, path, std::max<meek::cycle_t>(p.created_big_cycle, lo * 2));
    }
    while (!fabric.drained()) fabric.tick_low(lo++);
    return fabric.stats().packets_pushed;
}

}  // namespace

kernel_phase::kernel_phase(const options& opts) : opts_(opts) {
    meek_cfg_ = meek::sim::meek_scenario(4).soc();
    vanilla_cfg_ = meek::sim::vanilla_scenario().soc().big;
    const auto t0 = clock_type::now();
    u64 index = 0;
    for (const char* profile : k_profiles) {
        for (u32 v = 0; v < k_programs_per_profile; ++v, ++index) {
            program_state p;
            p.name = profile;
            p.wl = meek::generate_workload(*meek::find_profile(profile),
                                           opts.size.kernel_instructions,
                                           meek::sim::derive_stream_seed(opts.seed, 100 + index));
            programs_.push_back(std::move(p));
        }
    }
    generate_ms_ = seconds_since(t0) * 1e3;
}

void kernel_phase::round(report& rep, bool traced) {
    const u32 iter = rounds_++;
    double meek_s = 0.0, vanilla_s = 0.0;
    u64 instructions = 0;
    for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
        program_state& p = programs_[pi];
        const meek::obs::trace_context ctx = root_context(phase_kernel, pi);

        auto t0 = clock_type::now();
        trace_span vanilla_span(traced ? ctx : meek::obs::trace_context{},
                                "vanilla", iter);
        meek::functional_memory memory;
        meek::ooo_core core(vanilla_cfg_, memory);
        core.load_program(p.wl.prog);
        const meek::run_result vr = core.run(meek::run_limits{});
        vanilla_span.close();
        vanilla_s += seconds_since(t0);

        t0 = clock_type::now();
        trace_span meek_span(traced ? ctx : meek::obs::trace_context{}, "meek", iter);
        meek::meek_soc soc(meek_cfg_);
        soc.load_program(p.wl.prog);
        const meek::meek_run_result mr = soc.run();
        meek_span.close();
        meek_s += seconds_since(t0);
        instructions += mr.big.instructions;

        rep.check(vr.halted && mr.big.halted && mr.verified_ok && mr.error.empty() &&
                      soc.detections().empty() && mr.soc.errors_detected == 0,
                  "kernel " + p.name + ": fault-free meek run not verified_ok "
                  "with zero detections");
        rep.check(vr.instructions == mr.big.instructions &&
                      same_state(core.state(), soc.big_core().state()),
                  "kernel " + p.name + ": vanilla and meek big cores disagree");

        counts c;
        c.instructions = vr.instructions;
        c.vanilla_cycles = vr.cycles;
        c.meek_cycles = mr.big.cycles;
        c.drain_cycles = mr.drain_cycles;
        c.segments_verified = mr.soc.segments_verified;
        c.mispredicts = core.stats().mispredicts;
        c.l1d_misses = core.hierarchy().l1d().stats().misses;
        c.l2_misses = core.hierarchy().l2().stats().misses;
        for (u32 i = 0; i < meek_cfg_.num_little_cores; ++i) {
            const meek::little_core_stats& ls = soc.little(i).stats();
            c.replayed += ls.replayed_instructions;
            c.busy += ls.busy_cycles;
            c.stall_lsl += ls.stall_lsl_empty;
            c.stall_wm += ls.stall_watermark;
            c.stall_srcp += ls.stall_srcp;
        }
        const meek::fabric_stats& fs = soc.fabric().stats();
        c.pushed = fs.packets_pushed;
        c.delivered = fs.packets_delivered;
        c.rejects = fs.push_rejects;
        c.retries = fs.delivery_retries;
        c.stall_collecting = mr.soc.stall_collecting;
        c.stall_forwarding = mr.soc.stall_forwarding;
        c.stall_checker = mr.soc.stall_checker;
        if (!p.seen) {
            p.seen = true;
            p.first = c;
            p.final_state = core.state();
        }
        rep.check(c == p.first, "kernel " + p.name + ": modelled counts differ between rounds");
    }
    if (iter == 0) peak_rss_mb_ = resident_peak_mb();
    meek_mips_.push_back(static_cast<double>(instructions) / meek_s / 1e6);
    vanilla_mips_.push_back(static_cast<double>(instructions) / vanilla_s / 1e6);
}

void kernel_phase::clear() {
    meek_mips_.clear();
    vanilla_mips_.clear();
}

void kernel_phase::emit(report& rep) const {
    double log_sum = 0.0;
    for (const program_state& p : programs_) {
        log_sum += std::log(static_cast<double>(p.first.meek_cycles) /
                            static_cast<double>(p.first.vanilla_cycles));
    }
    rep.put("meek_mips", median(meek_mips_), "MIPS");
    rep.put("vanilla_mips", median(vanilla_mips_), "MIPS");
    rep.put("meek_slowdown", std::exp(log_sum / static_cast<double>(programs_.size())),
            "x");
    u64 instructions = 0;
    for (const program_state& p : programs_) instructions += p.first.instructions;
    std::fprintf(stderr,
                 "# kernel: %zu iterations over %zu programs (hmmer, mcf; %llu "
                 "instructions each iteration, modelled caches start empty)\n",
                 meek_mips_.size(), programs_.size(),
                 static_cast<unsigned long long>(instructions));
}

u64 kernel_phase::modelled_digest() const {
    static_assert(sizeof(counts) == 20 * sizeof(u64), "counts must stay padding-free u64s");
    meek::fnv1a h;
    for (const program_state& p : programs_) h.bytes(&p.first, sizeof p.first);
    return h.h;
}

void kernel_phase::check_reference(report& rep) {
    for (program_state& p : programs_) {
        meek::functional_memory memory;
        meek::little_core little(meek_cfg_.little, 0, memory);
        for (const meek::data_blob& blob : p.wl.prog.data) {
            memory.write_block(blob.base, blob.bytes.data(), blob.bytes.size());
        }
        little.set_program(p.wl.prog);
        little.state().pc = p.wl.prog.entry;
        little.state().write_x(2, meek::k_default_stack_top);
        const meek::little_core::app_run_result r = little.run_application(~u64{0});
        meek::arch_state expected = p.final_state;
        if (opts_.broken == break_kind::state) expected.xregs[13] ^= 1;
        rep.check(r.halted && r.instructions == p.first.instructions &&
                      same_state(little.state(), expected),
                  "kernel " + p.name + ": big-core final state differs from the "
                  "little core's application-mode run");
    }
}

void kernel_phase::trace_layers() {
    const u32 reps = opts_.workload == "kernel" ? opts_.size.layer_repeats : 1;
    for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
        program_state& p = programs_[pi];
        const meek::obs::trace_context ctx = root_context(phase_kernel, pi);
        for (u32 rep = 0; rep < reps; ++rep) {
            {
                meek::functional_memory memory;
                meek::ooo_core core(vanilla_cfg_, memory);
                core.load_program(p.wl.prog);
                trace_span span(ctx, "bigcore.run", rep);
                p.layer_instructions += core.run(meek::run_limits{}).instructions;
            }
            {
                meek::meek_soc soc(meek_cfg_);
                soc.set_checking(false);
                soc.load_program(p.wl.prog);
                trace_span span(ctx, "meek.unchecked", rep);
                soc.run();
            }
            {
                meek::meek_soc soc(meek_cfg_);
                soc.load_program(p.wl.prog);
                trace_span span(ctx, "meek.checked", rep);
                p.layer_big_cycles += soc.run().big.cycles;
            }
            {
                meek::functional_memory memory;
                meek::little_core little(meek_cfg_.little, 0, memory);
                for (const meek::data_blob& blob : p.wl.prog.data) {
                    memory.write_block(blob.base, blob.bytes.data(), blob.bytes.size());
                }
                little.set_program(p.wl.prog);
                little.state().pc = p.wl.prog.entry;
                little.state().write_x(2, meek::k_default_stack_top);
                trace_span span(ctx, "little.app", rep);
                p.layer_little_instr += little.run_application(~u64{0}).instructions;
            }
        }
        std::vector<meek::fwd_packet> packets;
        {
            meek::meek_soc soc(meek_cfg_);
            soc.load_program(p.wl.prog);
            soc.set_packet_hook([&packets](meek::fwd_packet& pkt) { packets.push_back(pkt); });
            trace_span span(ctx, "meek.recorded");
            soc.run();
        }
        for (u32 rep = 0; rep < reps; ++rep) {
            trace_span span(ctx, "fabric.replay", rep);
            p.layer_packets += replay_packets(meek_cfg_, packets);
        }
    }
}

void kernel_phase::layer_metrics(const std::vector<meek::obs::span_record>& spans,
                                 report& rep) const {
    for (const char* profile : k_profiles) {
        // Sums over the profile's programs.
        auto sum = [&](auto field) {
            u64 total = 0;
            for (const program_state& p : programs_) {
                if (p.name == profile) total += p.*field;
            }
            return total;
        };
        auto count = [&](u64 counts::*field) {
            u64 total = 0;
            for (const program_state& p : programs_) {
                if (p.name == profile) total += p.first.*field;
            }
            return total;
        };
        auto ns = [&](std::string_view span) {
            double total = 0.0;
            for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
                if (programs_[pi].name == profile) {
                    total += span_ns(spans, root_context(phase_kernel, pi).trace_id, span);
                }
            }
            return total;
        };
        auto per_kinstr = [&](u64 counts::*field) {
            return 1000.0 * static_cast<double>(count(field)) /
                   static_cast<double>(count(&counts::instructions));
        };
        const std::string n = profile;
        const double instr = static_cast<double>(sum(&program_state::layer_instructions));
        const double checked_ns = ns("meek.checked"), unchecked_ns = ns("meek.unchecked");
        rep.put("bigcore.host_ns_per_instr." + n, ns("bigcore.run") / instr, "ns");
        rep.put("bigcore.mispredicts_per_kinstr." + n, per_kinstr(&counts::mispredicts),
                "1/kinstr");
        rep.put("mem.l1d_misses_per_kinstr." + n, per_kinstr(&counts::l1d_misses), "1/kinstr");
        rep.put("mem.l2_misses_per_kinstr." + n, per_kinstr(&counts::l2_misses), "1/kinstr");
        rep.put("meek.unchecked_host_ns_per_instr." + n, unchecked_ns / instr, "ns");
        rep.put("meek.checking_host_ns_per_instr." + n, (checked_ns - unchecked_ns) / instr, "ns");
        rep.put("meek.host_ns_per_big_cycle." + n,
                checked_ns / static_cast<double>(sum(&program_state::layer_big_cycles)), "ns");
        rep.put("littlecore.host_ns_per_instr." + n,
                ns("little.app") / static_cast<double>(sum(&program_state::layer_little_instr)),
                "ns");
        rep.put("littlecore.replayed_instructions." + n,
                static_cast<double>(count(&counts::replayed)), "count");
        rep.put("littlecore.busy_cycles." + n, static_cast<double>(count(&counts::busy)),
                "cycles");
        rep.put("littlecore.stall_lsl_empty." + n, static_cast<double>(count(&counts::stall_lsl)),
                "cycles");
        rep.put("littlecore.stall_watermark." + n, static_cast<double>(count(&counts::stall_wm)),
                "cycles");
        rep.put("littlecore.stall_srcp." + n, static_cast<double>(count(&counts::stall_srcp)),
                "cycles");
        rep.put("fabric.packets_pushed." + n, static_cast<double>(count(&counts::pushed)),
                "count");
        rep.put("fabric.push_rejects." + n, static_cast<double>(count(&counts::rejects)), "count");
        rep.put("fabric.delivery_retries." + n, static_cast<double>(count(&counts::retries)),
                "count");
        rep.put("fabric.host_ns_per_packet." + n,
                ns("fabric.replay") / static_cast<double>(sum(&program_state::layer_packets)),
                "ns");
        rep.put("meek.stall_collecting_per_kinstr." + n, per_kinstr(&counts::stall_collecting),
                "cycles/kinstr");
        rep.put("meek.stall_forwarding_per_kinstr." + n, per_kinstr(&counts::stall_forwarding),
                "cycles/kinstr");
        rep.put("meek.stall_checker_per_kinstr." + n, per_kinstr(&counts::stall_checker),
                "cycles/kinstr");
    }
}

}  // namespace meekbench
