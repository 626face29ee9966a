#include "serve/workload_cache.h"

namespace meek::serve {

std::size_t workload_cache::key_hash::operator()(const key& k) const {
    // splitmix64-style fold of the three 64-bit components.
    u64 z = k.fingerprint;
    for (const u64 part : {k.instructions, k.seed}) {
        z ^= part + 0x9e3779b97f4a7c15ULL + (z << 6) + (z >> 2);
    }
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
}

std::shared_ptr<const generated_workload> workload_cache::workload_for(
    const workload_profile& profile, u64 target_instructions, u64 seed) {
    return lru_.get(key{profile_fingerprint(profile), target_instructions, seed}, [&] {
        return generate_workload(profile, target_instructions, seed);
    });
}

}  // namespace meek::serve
