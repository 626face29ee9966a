// Scenario registry: every system configuration the paper's figures evaluate,
// named as data instead of per-bench copy-paste.
//
// A scenario identifies one *system* under test — the vanilla big core
// (baseline), MEEK with N little cores on either fabric and either
// little-core tuning, the EA-LockStep equal-area scaled core, or the nZDC
// compiler transform — and can materialize the full `soc_config` for it.
// Binding a scenario to a workload yields a `run_spec` (see sim/job.h),
// which is the unit the executor fans out.
//
// Naming scheme (round-trips through find_scenario):
//   vanilla | ea-lockstep | nzdc | meek/<f2|axi>/<opt|def>/<cores>
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "common/config.h"

namespace meek::sim {

enum class system_kind : u8 { vanilla, meek, ea_lockstep, nzdc };

const char* system_kind_name(system_kind k);

struct scenario {
    std::string name;
    system_kind system = system_kind::meek;

    // MEEK-only knobs (ignored for the other systems).
    u32 little_cores = 4;
    fabric_kind fabric = fabric_kind::f2;
    little_core_tuning tuning = little_core_tuning::optimized;

    // Table II defaults with this scenario's knobs applied. For vanilla /
    // ea-lockstep / nzdc only `.big` is meaningful; the EA-LockStep big-core
    // scaling itself is applied by the job layer through the area model so
    // the registry stays free of area-model state.
    soc_config soc() const;
};

// The largest little-core count a MEEK point may ask for: the bound on the
// wire's inline `cores` knob and on meek_search's `--grid cores` axis.
inline constexpr u32 max_little_cores = 64;

// Canonical constructors; `name` follows the registry scheme above so that
// find_scenario(meek_scenario(...).name) round-trips.
scenario vanilla_scenario();
scenario ea_lockstep_scenario();
scenario nzdc_scenario();
scenario meek_scenario(u32 little_cores, fabric_kind fabric = fabric_kind::f2,
                       little_core_tuning tuning = little_core_tuning::optimized);

// The full registry: vanilla, ea-lockstep, nzdc, and MEEK over
// cores {2,4,6} x fabric {f2,axi} x tuning {opt,def}.
std::span<const scenario> all_scenarios();

// Lookup by registry name; nullptr when unknown.
const scenario* find_scenario(std::string_view name);

}  // namespace meek::sim
