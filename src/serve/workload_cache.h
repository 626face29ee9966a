// Content-addressed workload cache: the core of the serving layer.
//
// Generated programs are immutable, expensive to build, and shared by every
// scenario that evaluates the same (profile, instructions, seed) point — a
// batch that runs vanilla + three MEEK configs over one workload needs the
// program once, not four times. Entries are keyed on the profile's content
// fingerprint (not its name) plus the dynamic length and generation seed, so
// a tweaked profile can never alias a stale program.
//
// Concurrency, bounding and failure handling are serve::once_lru's: safe to
// call from any executor worker, each program is generated exactly once
// (joining an in-flight generation counts as a hit), LRU-bounded, and
// capacity 0 disables caching (every call generates privately).
#pragma once

#include <memory>

#include "serve/once_lru.h"
#include "workloads/generator.h"

namespace meek::serve {

using workload_cache_stats = lru_stats;

class workload_cache final : public workload_source {
public:
    explicit workload_cache(std::size_t capacity = 64) : lru_(capacity) {}

    // workload_source: returns the cached program, generating it on first
    // request. Propagates a generation exception to every waiter of that key
    // and forgets the entry so a later request can retry.
    std::shared_ptr<const generated_workload> workload_for(
        const workload_profile& profile, u64 target_instructions, u64 seed) override;

    workload_cache_stats stats() const { return lru_.stats(); }
    std::size_t size() const { return lru_.size(); }
    std::size_t capacity() const { return lru_.capacity(); }
    void clear() { lru_.clear(); }

private:
    struct key {
        u64 fingerprint = 0;
        u64 instructions = 0;
        u64 seed = 0;
        bool operator==(const key&) const = default;
    };
    struct key_hash {
        std::size_t operator()(const key& k) const;
    };

    once_lru<key, generated_workload, key_hash> lru_;
};

}  // namespace meek::serve
