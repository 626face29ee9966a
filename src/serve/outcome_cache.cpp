#include "serve/outcome_cache.h"

namespace meek::serve {

sim::run_outcome outcome_cache::outcome_for(const sim::run_spec& spec) {
    // The cached entry holds the name-free experiment result; the requesting
    // spec's names are stamped on the copy handed back.
    sim::run_outcome out =
        *lru_.get(sim::run_spec_fingerprint(spec), [&] { return sim::execute(spec); });
    out.scenario = spec.sc.name;
    out.workload = spec.workload.name;
    return out;
}

}  // namespace meek::serve
