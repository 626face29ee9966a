// Sparse functional memory backing the simulated 16 GB physical address
// space. Pages are allocated on first touch; reads of untouched memory
// return zero, like zero-fill-on-demand.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "common/types.h"

namespace meek {

class functional_memory {
public:
    static constexpr u32 k_page_bytes = 4096;

    functional_memory() = default;
    // Deep copy: the copy owns its own pages, so writes on either side stay
    // private; the last-page caches start empty.
    functional_memory(const functional_memory& other);
    functional_memory& operator=(const functional_memory&) = delete;

    u8 read_byte(addr_t addr) const;
    void write_byte(addr_t addr, u8 value);

    // Little-endian multi-byte accessors; `size` in {1, 2, 4, 8}. Reads are
    // zero-extended to 64 bits.
    u64 read(addr_t addr, u8 size) const;
    void write(addr_t addr, u8 size, u64 value);

    void write_block(addr_t addr, const u8* data, std::size_t len);

    std::size_t allocated_pages() const { return pages_.size(); }

private:
    using page = std::array<u8, k_page_bytes>;

    const page* find_page(addr_t addr) const;
    page& touch_page(addr_t addr);

    std::unordered_map<u64, std::unique_ptr<page>> pages_;

    // Last-page caches: consecutive accesses overwhelmingly hit the same
    // page, and pages are heap-owned and never freed, so the raw pointers
    // stay valid for the lifetime of the map entry.
    mutable u64 last_lookup_num_ = 0;
    mutable const page* last_lookup_ = nullptr;
    u64 last_touch_num_ = 0;
    page* last_touch_ = nullptr;
};

}  // namespace meek
