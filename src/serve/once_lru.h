// A bounded once-per-key LRU, the mechanism under workload_cache and
// outcome_cache. The first requester of a key computes the value holding
// only a per-entry future; concurrent requesters of the same key join it
// (counted as hits), other keys compute in parallel. A computation that
// throws reaches every waiter, and its entry — found by insertion id, so a
// newer entry for the key survives — is forgotten so a later request can
// retry. LRU over completed and in-flight entries; capacity 0 disables
// caching (every call computes privately and counts a miss).
#pragma once

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/types.h"

namespace meek::serve {

struct lru_stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;

    u64 lookups() const { return hits + misses; }
    double hit_rate() const {
        const u64 total = lookups();
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

template <class Key, class Value, class Hash = std::hash<Key>>
class once_lru {
public:
    using value_ptr = std::shared_ptr<const Value>;

    explicit once_lru(std::size_t capacity) : capacity_(capacity) {}

    // The value for `key`, computed by `make()` on first request.
    template <class Make>
    value_ptr get(const Key& key, Make&& make) {
        if (capacity_ == 0) {
            {
                std::lock_guard lock(mutex_);
                ++stats_.misses;
            }
            return std::make_shared<const Value>(make());
        }

        std::optional<std::promise<value_ptr>> mine;
        u64 my_id = 0;
        std::shared_future<value_ptr> ready;
        {
            std::lock_guard lock(mutex_);
            auto it = index_.find(key);
            if (it != index_.end()) {
                ++stats_.hits;
                lru_.splice(lru_.begin(), lru_, it->second);  // touch
                ready = it->second->ready;
            } else {
                ++stats_.misses;
                mine.emplace();
                my_id = next_id_++;
                ready = mine->get_future().share();
                lru_.push_front(entry{key, my_id, ready});
                index_[key] = lru_.begin();
                while (lru_.size() > capacity_) {
                    index_.erase(lru_.back().key);
                    lru_.pop_back();
                    ++stats_.evictions;
                }
            }
        }

        if (mine) {
            // We inserted the entry: compute outside the lock so distinct
            // keys build in parallel, then publish to every waiter.
            try {
                mine->set_value(std::make_shared<const Value>(make()));
            } catch (...) {
                mine->set_exception(std::current_exception());
                std::lock_guard lock(mutex_);
                auto it = index_.find(key);
                if (it != index_.end() && it->second->id == my_id) {
                    lru_.erase(it->second);
                    index_.erase(it);
                }
            }
        }
        return ready.get();
    }

    lru_stats stats() const {
        std::lock_guard lock(mutex_);
        return stats_;
    }
    std::size_t size() const {
        std::lock_guard lock(mutex_);
        return lru_.size();
    }
    std::size_t capacity() const { return capacity_; }
    void clear() {
        std::lock_guard lock(mutex_);
        lru_.clear();
        index_.clear();
    }

private:
    struct entry {
        Key key;
        u64 id = 0;  // insertion tag: lets a failed producer erase only its own entry
        std::shared_future<value_ptr> ready;
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::list<entry> lru_;  // front = most recently used
    std::unordered_map<Key, typename std::list<entry>::iterator, Hash> index_;
    lru_stats stats_;
    u64 next_id_ = 1;
};

}  // namespace meek::serve
