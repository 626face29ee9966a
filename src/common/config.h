// Hardware configuration structs mirroring Table II of the paper, plus the
// knobs the evaluation sweeps (little-core count, fabric kind, little-core
// optimization level, EA-LockStep scaling).
#pragma once

#include <string>

#include "common/types.h"

namespace meek {

struct cache_config {
    std::string name;
    u32 size_bytes = 0;
    u32 ways = 1;
    u32 line_bytes = 64;
    u32 mshrs = 8;
    u32 hit_latency = 1;   // cycles in the owning clock domain

    u32 num_sets() const { return size_bytes / (ways * line_bytes); }
};

struct dram_config {
    u64 size_bytes = 16ULL << 30;  // 16 GB DDR3
    u32 freq_mhz = 1066;
    u32 max_requests = 32;         // outstanding-request cap
    u32 access_latency = 60;       // big-core cycles for a row-buffer miss
    u32 row_hit_latency = 30;      // big-core cycles for a row-buffer hit
    u32 row_bytes = 2048;
};

struct branch_predictor_config {
    u32 btb_entries = 256;
    u32 ras_entries = 32;
    u32 tage_tables = 6;
    u32 tage_min_history = 2;
    u32 tage_max_history = 64;
    u32 tage_entries_per_table = 1024;
    u32 tage_tag_bits = 9;
};

// 4-wide OoO SonicBOOM-class core per Table II.
struct big_core_config {
    u64 freq_mhz = 3200;
    u32 fetch_width = 4;
    u32 decode_width = 4;
    u32 commit_width = 4;
    u32 rob_entries = 128;
    u32 iq_entries = 96;
    u32 ldq_entries = 32;
    u32 stq_entries = 32;
    u32 phys_int_regs = 128;
    u32 phys_fp_regs = 128;
    u32 int_alus = 2;
    u32 fp_alus = 1;      // shared FP / Mult / Div unit
    u32 mem_ports = 2;
    u32 jump_units = 1;
    u32 csr_units = 1;
    u32 front_end_stages = 5;   // fetch-to-rename depth, drives redirect penalty

    branch_predictor_config bpred;
    cache_config l1i{"L1I", 32 * 1024, 4, 64, 8, 1};
    cache_config l1d{"L1D", 32 * 1024, 4, 64, 8, 2};
    cache_config l2{"L2", 512 * 1024, 8, 64, 12, 10};
    cache_config llc{"LLC", 4 * 1024 * 1024, 8, 64, 8, 24};
    dram_config dram;

    // Linear interpolation on each configurable component, the construction
    // the paper uses to derive the EA-LockStep comparator core. Widths are
    // floored at 1 and queue sizes at 4 so a degenerate core still functions.
    big_core_config scaled(double factor) const;
};

// Little-core optimization level (Sec. III-C / Fig. 10): the paper resizes the
// divider (8-unroll) and the FPU pipeline (3-stage, fully pipelined) to close
// the gap with BOOM.
enum class little_core_tuning { default_rocket, optimized };

struct little_core_config {
    u64 freq_mhz = 1600;
    little_core_tuning tuning = little_core_tuning::optimized;

    // Off-registry sweep knobs (design-space search): when nonzero, the
    // divider retires `div_unroll_override` quotient bits per cycle and the
    // checker cores clock at `freq_override_mhz`, regardless of the tuning
    // package. Zero keeps the tuning default (8-unroll / 2 GHz optimized,
    // 1-bit / 1.6 GHz default Rocket).
    u32 div_unroll_override = 0;
    u64 freq_override_mhz = 0;

    // The optimization package (deeper, fully-pipelined FPU; 8-unroll
    // divider) is what closes timing at 2 GHz — Table III clocks MEEK's
    // Rockets at 2 GHz vs the default 1.6 GHz. The SoC-level evaluation
    // conservatively runs the low-frequency domain at `freq_mhz` (Table II);
    // the Fig. 10 perf/area comparison uses the achievable clock.
    u64 achievable_freq_mhz() const {
        return tuning == little_core_tuning::optimized ? 2000 : 1600;
    }

    // The clock the SoC actually runs the checker cores at: the explicit
    // override when set, else the tuning's achievable clock.
    u64 effective_freq_mhz() const {
        return freq_override_mhz != 0 ? freq_override_mhz : achievable_freq_mhz();
    }

    // Divider retires `div_unroll` quotient bits per cycle; default Rocket is
    // a 1-bit/cycle iterative divider.
    u32 div_unroll() const {
        if (div_unroll_override != 0) return div_unroll_override;
        return tuning == little_core_tuning::optimized ? 8 : 1;
    }
    u32 div_latency() const { return 64 / div_unroll() + 2; }

    u32 mul_latency() const { return 3; }

    // Default Rocket FPU: 4-cycle latency, initiation interval 2 (partially
    // pipelined). Optimized: 3-stage fully pipelined.
    u32 fpu_latency() const { return tuning == little_core_tuning::optimized ? 3 : 4; }
    u32 fpu_interval() const { return tuning == little_core_tuning::optimized ? 1 : 2; }

    cache_config l1i{"little-L1I", 4 * 1024, 2, 64, 2, 1};
    // L1 D$ exists in application mode only; in check mode the LSL replaces it.
    cache_config l1d{"little-L1D", 4 * 1024, 2, 64, 2, 1};

    u32 lsl_bytes = 4 * 1024;
    u32 lsl_entry_bytes = 16;   // 8 B payload + 8 B address/meta tag
    u32 lsl_entries() const { return lsl_bytes / lsl_entry_bytes; }
    u32 rcp_instruction_timeout = 5000;
};

enum class fabric_kind {
    f2,               // DC-Buffers + HM-NoC, 256-bit, 2 packets/cycle
    axi_interconnect  // baseline: 128-bit shared bus, 1 packet/cycle
};

struct fabric_config {
    fabric_kind kind = fabric_kind::f2;
    u64 freq_mhz = 1600;        // low-frequency domain (Fig. 2)
    u32 f2_packets_per_cycle = 2;
    u32 dc_buffer_depth = 16;   // per-FIFO depth of each commit path's DC-Buffer
};

struct soc_config {
    big_core_config big;
    little_core_config little;
    fabric_config fabric;
    u32 num_little_cores = 4;

    static soc_config table2_default() { return {}; }
};

// Content hash over every behaviour-shaping knob of a soc_config (big core
// incl. caches/predictor/DRAM, little core incl. LSL and divider override,
// fabric depths, core count). Two configs that could simulate differently
// never share a fingerprint; a config rebuilt from the same knobs always
// does. This is what lets result caches and search checkpoints be
// content-addressed rather than name-addressed.
u64 soc_config_fingerprint(const soc_config& cfg);

}  // namespace meek
