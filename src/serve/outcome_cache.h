// Content-addressed result cache: the second caching layer of the serving
// stack, sitting above the workload cache.
//
// The workload cache dedups *generation*; this cache dedups *simulation*.
// Completed `sim::run_outcome`s are keyed on `run_spec_fingerprint` — the
// system kind, the effective soc_config, the workload's content fingerprint,
// the dynamic length and the seed — so a repeated identical evaluation
// (a re-sent serve request, a design-space grid point that coincides with a
// registry scenario, a resumed search) returns the reduced result without
// re-simulating. Point *names* are excluded from the key and patched back in
// from the requesting spec, so two names wrapping the same experiment share
// one cache entry yet each sees its own name in the outcome.
//
// Concurrency, bounding and failure handling are serve::once_lru's, as for
// serve::workload_cache: one simulation per key however many requesters
// join it (counted as hits), LRU-bounded, capacity 0 disables caching.
#pragma once

#include "serve/once_lru.h"
#include "sim/job.h"

namespace meek::serve {

using outcome_cache_stats = lru_stats;

class outcome_cache {
public:
    explicit outcome_cache(std::size_t capacity = 256) : lru_(capacity) {}

    // The reduced outcome for `spec`, simulating on first request. The
    // returned copy carries `spec`'s scenario/workload names regardless of
    // which aliasing spec populated the entry. Propagates a simulation
    // exception to every waiter of that key and forgets the entry so a later
    // request can retry. Safe to call from any executor worker.
    sim::run_outcome outcome_for(const sim::run_spec& spec);

    outcome_cache_stats stats() const { return lru_.stats(); }
    std::size_t size() const { return lru_.size(); }
    std::size_t capacity() const { return lru_.capacity(); }
    void clear() { lru_.clear(); }

private:
    once_lru<u64, sim::run_outcome> lru_;
};

}  // namespace meek::serve
