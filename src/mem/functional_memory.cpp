#include "mem/functional_memory.h"

#include <algorithm>
#include <cstring>

namespace meek {

functional_memory::functional_memory(const functional_memory& other) {
    pages_.reserve(other.pages_.size());
    for (const auto& [num, pg] : other.pages_) {
        pages_.emplace(num, std::make_unique<page>(*pg));
    }
}

const functional_memory::page* functional_memory::find_page(addr_t addr) const {
    const u64 num = addr / k_page_bytes;
    if (last_lookup_ && last_lookup_num_ == num) return last_lookup_;
    const auto it = pages_.find(num);
    const page* p = it == pages_.end() ? nullptr : it->second.get();
    if (p) {
        last_lookup_num_ = num;
        last_lookup_ = p;
    }
    return p;
}

functional_memory::page& functional_memory::touch_page(addr_t addr) {
    const u64 num = addr / k_page_bytes;
    if (last_touch_ && last_touch_num_ == num) return *last_touch_;
    auto& slot = pages_[num];
    if (!slot) slot = std::make_unique<page>();  // value-initialized: zeroed
    last_touch_num_ = num;
    last_touch_ = slot.get();
    return *slot;
}

u8 functional_memory::read_byte(addr_t addr) const {
    const page* p = find_page(addr);
    return p ? (*p)[addr % k_page_bytes] : 0;
}

void functional_memory::write_byte(addr_t addr, u8 value) {
    touch_page(addr)[addr % k_page_bytes] = value;
}

u64 functional_memory::read(addr_t addr, u8 size) const {
    const u64 off = addr % k_page_bytes;
    if (off + size <= k_page_bytes) {
        // Common case: the access stays within one page, so a single lookup
        // covers every byte.
        const page* p = find_page(addr);
        if (!p) return 0;
        u64 value = 0;
        std::memcpy(&value, p->data() + off, size);  // little-endian host
        return value;
    }
    u64 value = 0;
    for (u8 i = 0; i < size; ++i) {
        value |= static_cast<u64>(read_byte(addr + i)) << (8 * i);
    }
    return value;
}

void functional_memory::write(addr_t addr, u8 size, u64 value) {
    const u64 off = addr % k_page_bytes;
    if (off + size <= k_page_bytes) {
        std::memcpy(touch_page(addr).data() + off, &value, size);
        return;
    }
    for (u8 i = 0; i < size; ++i) {
        write_byte(addr + i, static_cast<u8>(value >> (8 * i)));
    }
}

void functional_memory::write_block(addr_t addr, const u8* data, std::size_t len) {
    // One page lookup and one copy per page the block touches.
    while (len != 0) {
        const u64 off = addr % k_page_bytes;
        const std::size_t n = std::min<std::size_t>(len, k_page_bytes - off);
        std::memcpy(touch_page(addr).data() + off, data, n);
        addr += n;
        data += n;
        len -= n;
    }
}

}  // namespace meek
