// Set-associative cache timing model with LRU replacement and a finite MSHR
// file. This is a latency-composition model: each access returns when it
// completes; misses recurse into the next level via the memory_hierarchy.
#pragma once

#include <optional>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace meek {

struct cache_stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 mshr_merges = 0;      // secondary misses folded into an existing MSHR
    u64 mshr_rejections = 0;  // access retries because all MSHRs were busy
    u64 evictions = 0;
    u64 writebacks = 0;

    double miss_rate() const {
        const u64 total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(total);
    }
};

// Outcome of a cache lookup. When `accepted` is false the request could not
// even allocate an MSHR and must be retried by the requester (this is the
// structural backpressure that stalls pipelines).
struct cache_access_result {
    bool accepted = false;
    bool hit = false;
    cycle_t complete_at = 0;
};

class cache_model {
public:
    explicit cache_model(const cache_config& cfg);

    // Tag lookup only: returns hit/miss and, for misses, whether an MSHR for
    // the line already exists (secondary miss) or can be allocated.
    // `fill_done` must be the completion time from the next level and is only
    // consulted when a new MSHR is allocated; pass via callback so the lower
    // level is queried only when needed.
    template <typename FillLatency>
    cache_access_result access(addr_t addr, bool is_write, cycle_t now,
                               FillLatency&& next_level_complete) {
        retire_mshrs(now);
        const u64 line = addr / cfg_.line_bytes;
        if (lookup_and_touch(line, is_write, now)) {
            // Tags are installed when the miss is issued; if the fill is
            // still in flight this is a secondary miss that merges into the
            // MSHR and completes when the fill does.
            if (const auto pending = find_mshr(line)) {
                ++stats_.misses;
                ++stats_.mshr_merges;
                return {true, false, *pending + cfg_.hit_latency};
            }
            ++stats_.hits;
            return {true, true, now + cfg_.hit_latency};
        }
        // Miss on an invalid/evicted line that still has an MSHR in flight.
        if (const auto existing = find_mshr(line)) {
            ++stats_.misses;
            ++stats_.mshr_merges;
            return {true, false, *existing + cfg_.hit_latency};
        }
        if (mshrs_.size() >= cfg_.mshrs) {
            ++stats_.mshr_rejections;
            return {false, false, 0};
        }
        ++stats_.misses;
        const cycle_t done = next_level_complete();
        mshrs_.push_back({line, done});
        fill(line, is_write, done);
        return {true, false, done + cfg_.hit_latency};
    }

    // Counts a hit the caller proved without a lookup (the line it hit last,
    // untouched since).
    void count_hit() { ++stats_.hits; }

    bool contains(addr_t addr) const;
    void invalidate_all();

    const cache_stats& stats() const { return stats_; }
    const cache_config& config() const { return cfg_; }

private:
    struct line_state {
        u64 tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 lru_stamp = 0;
    };

    bool lookup_and_touch(u64 line, bool is_write, cycle_t now);
    void fill(u64 line, bool is_write, cycle_t at);
    std::optional<cycle_t> find_mshr(u64 line) const;
    void retire_mshrs(cycle_t now);

    std::size_t set_index(u64 line) const { return line % num_sets_; }
    u64 tag_of(u64 line) const { return line / num_sets_; }

    struct mshr_entry {
        u64 line;
        cycle_t ready_at;
    };

    cache_config cfg_;
    std::size_t num_sets_;
    std::vector<line_state> lines_;  // sets × ways, row-major by set
    std::vector<mshr_entry> mshrs_;
    cache_stats stats_;
    u64 lru_clock_ = 0;
};

}  // namespace meek
