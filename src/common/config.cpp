#include "common/config.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"

namespace meek {
namespace {

u32 scale_u32(u32 v, double f, u32 floor_value) {
    const auto scaled = static_cast<u32>(std::llround(static_cast<double>(v) * f));
    return std::max(scaled, floor_value);
}

cache_config scale_cache(cache_config c, double f) {
    // Keep line size and latency; shrink capacity in whole ways so the
    // geometry stays valid.
    const u32 ways = std::max(1u, scale_u32(c.ways, f, 1));
    const u32 sets = std::max(16u, scale_u32(c.num_sets(), f, 16));
    c.ways = ways;
    c.size_bytes = sets * ways * c.line_bytes;
    c.mshrs = scale_u32(c.mshrs, f, 2);
    return c;
}

}  // namespace

big_core_config big_core_config::scaled(double factor) const {
    big_core_config s = *this;
    s.fetch_width = scale_u32(fetch_width, factor, 1);
    s.decode_width = scale_u32(decode_width, factor, 1);
    s.commit_width = scale_u32(commit_width, factor, 1);
    s.rob_entries = scale_u32(rob_entries, factor, 4);
    s.iq_entries = scale_u32(iq_entries, factor, 4);
    s.ldq_entries = scale_u32(ldq_entries, factor, 4);
    s.stq_entries = scale_u32(stq_entries, factor, 4);
    s.phys_int_regs = std::max(scale_u32(phys_int_regs, factor, 40),
                               s.rob_entries / 2 + k_num_arch_regs);
    s.phys_fp_regs = std::max(scale_u32(phys_fp_regs, factor, 40),
                              s.rob_entries / 2 + k_num_arch_regs);
    s.int_alus = scale_u32(int_alus, factor, 1);
    s.fp_alus = scale_u32(fp_alus, factor, 1);
    s.mem_ports = scale_u32(mem_ports, factor, 1);
    s.jump_units = 1;
    s.csr_units = 1;
    s.bpred.btb_entries = scale_u32(bpred.btb_entries, factor, 32);
    s.bpred.ras_entries = scale_u32(bpred.ras_entries, factor, 8);
    s.bpred.tage_entries_per_table = scale_u32(bpred.tage_entries_per_table, factor, 128);
    s.l1i = scale_cache(l1i, factor);
    s.l1d = scale_cache(l1d, factor);
    s.l2 = scale_cache(l2, factor);
    s.llc = scale_cache(llc, factor);
    return s;
}

u64 soc_config_fingerprint(const soc_config& cfg) {
    fnv1a h;
    auto mix_cache = [&h](const cache_config& c) {
        h.u(c.size_bytes);
        h.u(c.ways);
        h.u(c.line_bytes);
        h.u(c.mshrs);
        h.u(c.hit_latency);
    };

    const big_core_config& b = cfg.big;
    h.u(b.freq_mhz);
    h.u(b.fetch_width);
    h.u(b.decode_width);
    h.u(b.commit_width);
    h.u(b.rob_entries);
    h.u(b.iq_entries);
    h.u(b.ldq_entries);
    h.u(b.stq_entries);
    h.u(b.phys_int_regs);
    h.u(b.phys_fp_regs);
    h.u(b.int_alus);
    h.u(b.fp_alus);
    h.u(b.mem_ports);
    h.u(b.jump_units);
    h.u(b.csr_units);
    h.u(b.front_end_stages);
    h.u(b.bpred.btb_entries);
    h.u(b.bpred.ras_entries);
    h.u(b.bpred.tage_tables);
    h.u(b.bpred.tage_min_history);
    h.u(b.bpred.tage_max_history);
    h.u(b.bpred.tage_entries_per_table);
    h.u(b.bpred.tage_tag_bits);
    mix_cache(b.l1i);
    mix_cache(b.l1d);
    mix_cache(b.l2);
    mix_cache(b.llc);
    h.u(b.dram.size_bytes);
    h.u(b.dram.freq_mhz);
    h.u(b.dram.max_requests);
    h.u(b.dram.access_latency);
    h.u(b.dram.row_hit_latency);
    h.u(b.dram.row_bytes);

    const little_core_config& l = cfg.little;
    h.u(l.freq_mhz);
    h.u(static_cast<u64>(l.tuning));
    h.u(l.div_unroll_override);
    h.u(l.freq_override_mhz);
    mix_cache(l.l1i);
    mix_cache(l.l1d);
    h.u(l.lsl_bytes);
    h.u(l.lsl_entry_bytes);
    h.u(l.rcp_instruction_timeout);

    const fabric_config& f = cfg.fabric;
    h.u(static_cast<u64>(f.kind));
    h.u(f.freq_mhz);
    h.u(f.f2_packets_per_cycle);
    h.u(f.dc_buffer_depth);

    h.u(cfg.num_little_cores);
    return h.h;
}

}  // namespace meek
