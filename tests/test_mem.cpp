// Memory subsystem tests: sparse functional memory, the set-associative
// cache model (LRU, MSHR semantics), the DRAM model and the hierarchy.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "isa/program.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/functional_memory.h"
#include "mem/hierarchy.h"

namespace meek {
namespace {

TEST(functional_memory, zero_fill_and_round_trip) {
    functional_memory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
    EXPECT_EQ(m.read_byte(0x1000), 0x88);
    EXPECT_EQ(m.read_byte(0x1007), 0x11);
}

TEST(functional_memory, cross_page_access) {
    functional_memory m;
    const addr_t boundary = functional_memory::k_page_bytes - 4;
    m.write(boundary, 8, 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m.read(boundary, 8), 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(functional_memory, write_block) {
    functional_memory m;
    const u8 data[] = {1, 2, 3, 4, 5};
    m.write_block(0x2000, data, sizeof data);
    for (u8 i = 0; i < 5; ++i) EXPECT_EQ(m.read_byte(0x2000 + i), i + 1);
}

// write_block copies page by page; each case is checked byte-wise against
// read() over the block and one byte either side, plus the page count.
void expect_block(const functional_memory& m, addr_t addr, const std::vector<u8>& data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(m.read(addr + i, 1), data[i]) << "offset " << i;
    }
    EXPECT_EQ(m.read(addr + data.size(), 1), 0u);
    if (addr > 0) {
        EXPECT_EQ(m.read(addr - 1, 1), 0u);
    }
}

std::vector<u8> pattern(std::size_t len, u64 seed) {
    rng r(seed);
    std::vector<u8> v(len);
    for (u8& b : v) b = static_cast<u8>(r.range(1, 255));  // nonzero: gaps show
    return v;
}

TEST(functional_memory, write_block_unaligned_across_three_pages) {
    constexpr addr_t page = functional_memory::k_page_bytes;
    functional_memory m;
    const addr_t addr = 5 * page - 13;
    const std::vector<u8> data = pattern(page + 13 + 7, 1);  // ends 7 bytes into page 6
    m.write_block(addr, data.data(), data.size());
    expect_block(m, addr, data);
    EXPECT_EQ(m.allocated_pages(), 3u);
}

TEST(functional_memory, write_block_ending_at_a_page_boundary) {
    constexpr addr_t page = functional_memory::k_page_bytes;
    functional_memory m;
    const std::vector<u8> data = pattern(page + 100, 2);
    const addr_t addr = 3 * page - 100;  // last byte is the last byte of page 3
    m.write_block(addr, data.data(), data.size());
    expect_block(m, addr, data);
    EXPECT_EQ(m.allocated_pages(), 2u);  // page 4 is not touched
}

TEST(functional_memory, write_block_of_zero_length_touches_nothing) {
    functional_memory m;
    const u8 byte = 0xAB;
    m.write_block(0x4000, &byte, 0);
    m.write_block(0x5000, nullptr, 0);
    EXPECT_EQ(m.allocated_pages(), 0u);
    EXPECT_EQ(m.read(0x4000, 1), 0u);
}

TEST(functional_memory, write_block_over_existing_data_keeps_neighbors) {
    constexpr addr_t page = functional_memory::k_page_bytes;
    functional_memory m;
    const std::vector<u8> before = pattern(2 * page, 3);
    m.write_block(page, before.data(), before.size());
    const std::vector<u8> patch = pattern(300, 4);
    const addr_t at = 2 * page - 150;  // straddles the page 1 / page 2 boundary
    m.write_block(at, patch.data(), patch.size());

    std::vector<u8> want = before;
    std::copy(patch.begin(), patch.end(), want.begin() + (at - page));
    expect_block(m, page, want);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(program_builder, add_data_words_is_little_endian) {
    program_builder b;
    const std::vector<u64> words = {0x0807060504030201ull, 0xF0DEBC9A78563412ull, 0};
    b.add_data_words(0x3000, words);
    b.add_data_words(0x4000, {});
    const program prog = b.build();
    ASSERT_EQ(prog.data.size(), 2u);
    EXPECT_EQ(prog.data[0].base, 0x3000u);
    const std::vector<u8> want = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                                  0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0,
                                  0,    0,    0,    0,    0,    0,    0,    0};
    EXPECT_EQ(prog.data[0].bytes, want);
    EXPECT_TRUE(prog.data[1].bytes.empty());

    functional_memory m;
    m.write_block(prog.data[0].base, prog.data[0].bytes.data(), prog.data[0].bytes.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        EXPECT_EQ(m.read(0x3000 + 8 * i, 8), words[i]);
    }
}

TEST(functional_memory, partial_writes_preserve_neighbors) {
    functional_memory m;
    m.write(0x100, 8, ~u64{0});
    m.write(0x102, 2, 0);
    EXPECT_EQ(m.read(0x100, 8), 0xFFFFFFFF0000FFFFull);
}

cache_config small_cache() {
    return {"test", 1024, 2, 64, 2, 1};  // 8 sets x 2 ways
}

TEST(cache, hit_after_fill) {
    cache_model c(small_cache());
    cycle_t backing_calls = 0;
    const auto miss = c.access(0x1000, false, 0, [&] {
        ++backing_calls;
        return cycle_t{20};
    });
    EXPECT_TRUE(miss.accepted);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(backing_calls, 1u);
    EXPECT_GE(miss.complete_at, 20u);

    const auto hit = c.access(0x1000, false, 30, [&] {
        ++backing_calls;
        return cycle_t{100};
    });
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(backing_calls, 1u);  // no second fill
    EXPECT_EQ(hit.complete_at, 31u);
}

TEST(cache, same_line_different_offsets_hit) {
    cache_model c(small_cache());
    c.access(0x1000, false, 0, [] { return cycle_t{10}; });
    const auto r = c.access(0x103F, false, 20, [] { return cycle_t{100}; });
    EXPECT_TRUE(r.hit);
}

TEST(cache, lru_eviction_in_set) {
    cache_model c(small_cache());  // 2 ways per set; set stride = 8 lines = 512 B
    const addr_t a = 0x0000;
    const addr_t b = a + 512;   // same set, different tag
    const addr_t d = a + 1024;  // same set, third tag
    c.access(a, false, 0, [] { return cycle_t{5}; });
    c.access(b, false, 10, [] { return cycle_t{15}; });
    // Touch `a` so `b` becomes LRU.
    c.access(a, false, 20, [] { return cycle_t{25}; });
    c.access(d, false, 30, [] { return cycle_t{35}; });  // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(cache, dirty_eviction_counts_writeback) {
    cache_model c(small_cache());
    c.access(0x0000, true, 0, [] { return cycle_t{5}; });   // dirty fill
    c.access(0x0200, false, 10, [] { return cycle_t{15}; });
    c.access(0x0400, false, 20, [] { return cycle_t{25}; });  // evicts dirty line
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(cache, mshr_merges_secondary_miss) {
    cache_model c(small_cache());
    cycle_t fills = 0;
    const auto first = c.access(0x1000, false, 0, [&] {
        ++fills;
        return cycle_t{50};
    });
    // Second access to the same line while the miss is outstanding.
    const auto second = c.access(0x1008, false, 1, [&] {
        ++fills;
        return cycle_t{999};
    });
    EXPECT_TRUE(second.accepted);
    EXPECT_EQ(fills, 1u);
    EXPECT_EQ(c.stats().mshr_merges, 1u);
    EXPECT_LE(second.complete_at, first.complete_at + 1);
}

TEST(cache, mshr_exhaustion_rejects) {
    cache_model c(small_cache());  // 2 MSHRs
    EXPECT_TRUE(c.access(0x0000, false, 0, [] { return cycle_t{100}; }).accepted);
    EXPECT_TRUE(c.access(0x4000, false, 0, [] { return cycle_t{100}; }).accepted);
    const auto third = c.access(0x8000, false, 0, [] { return cycle_t{100}; });
    EXPECT_FALSE(third.accepted);
    EXPECT_EQ(c.stats().mshr_rejections, 1u);
    // After the fills retire, new misses are accepted again.
    const auto later = c.access(0x8000, false, 200, [] { return cycle_t{300}; });
    EXPECT_TRUE(later.accepted);
}

TEST(cache, invalidate_all_clears_contents) {
    cache_model c(small_cache());
    c.access(0x1000, false, 0, [] { return cycle_t{5}; });
    c.invalidate_all();
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(dram, row_buffer_hits_are_faster) {
    dram_model d(dram_config{});
    const cycle_t first = d.access(0x10000, 0);
    const cycle_t second = d.access(0x10040, first);  // same 2 KB row
    EXPECT_LT(second - first, first - 0);
    EXPECT_EQ(d.stats().row_hits, 1u);
    EXPECT_EQ(d.stats().row_misses, 1u);
}

TEST(dram, bandwidth_serializes_requests) {
    dram_model d(dram_config{});
    const cycle_t a = d.access(0x0000, 0);
    const cycle_t b = d.access(0x100000, 0);  // different row, same issue time
    EXPECT_GT(b, a);  // second request queues behind the first
}

TEST(dram, queue_cap_delays_excess_requests) {
    dram_config cfg;
    cfg.max_requests = 4;
    dram_model d(cfg);
    for (int i = 0; i < 8; ++i) d.access(static_cast<addr_t>(i) << 20, 0);
    EXPECT_GT(d.stats().queue_delays, 0u);
}

TEST(hierarchy, l1_hit_is_cheap_and_miss_escalates) {
    const big_core_config cfg;
    memory_hierarchy h(cfg);
    const auto miss = h.data_access(0x100000, false, 0);
    EXPECT_TRUE(miss.accepted);
    EXPECT_FALSE(miss.l1_hit);
    EXPECT_GT(miss.complete_at, cycle_t{cfg.l1d.hit_latency});

    const auto hit = h.data_access(0x100000, false, miss.complete_at + 1);
    EXPECT_TRUE(hit.l1_hit);
    EXPECT_EQ(hit.complete_at, miss.complete_at + 1 + cfg.l1d.hit_latency);
}

TEST(hierarchy, inst_and_data_paths_are_separate_l1s) {
    memory_hierarchy h(big_core_config{});
    h.inst_access(0x5000, 0);
    EXPECT_EQ(h.l1i().stats().misses, 1u);
    EXPECT_EQ(h.l1d().stats().misses, 0u);
    h.data_access(0x5000, false, 300);  // after the inst-side fill completes
    EXPECT_EQ(h.l1d().stats().misses, 1u);
    // Both miss into the shared L2: the second one hits there.
    EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(hierarchy, repeated_scan_establishes_l2_residency) {
    memory_hierarchy h(big_core_config{});
    cycle_t now = 0;
    // 256 KB scan: fits L2 (512 KB), exceeds L1D (32 KB).
    for (int pass = 0; pass < 2; ++pass) {
        for (addr_t a = 0; a < 256 * 1024; a += 64) {
            const auto r = h.data_access(a, false, now);
            now = r.complete_at + 1;
        }
    }
    EXPECT_GT(h.l2().stats().hits, 3000u);  // second pass served by L2
}

}  // namespace
}  // namespace meek
