// Forwarding-fabric tests: DC-Buffer backpressure, global ordering, F2
// multicast vs AXI unicast, throughput differences, drain semantics, the
// push-ordering precondition, and a differential test of the staging ring
// against a per-channel-FIFO reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "fabric/fabric.h"

namespace meek {
namespace {

struct fabric_fixture {
    fabric_config cfg;
    std::unique_ptr<fabric_model> fabric;
    std::map<u32, std::vector<fwd_packet>> delivered;
    bool reject_deliveries = false;

    void init(fabric_kind kind, u32 cores = 4) {
        cfg.kind = kind;
        fabric = std::make_unique<fabric_model>(cfg, 4, cores);
        fabric->set_deliver([this](u32 core, const fwd_packet& p) {
            if (reject_deliveries) return false;
            delivered[core].push_back(p);
            return true;
        });
    }

    void run_low(cycle_t from, cycle_t ticks) {
        for (cycle_t t = from; t < from + ticks; ++t) fabric->tick_low(t);
    }
};

fwd_packet runtime_pkt(u64 seq, dest_mask_t dest) {
    fwd_packet p;
    p.kind = packet_kind::runtime_load;
    p.seq = seq;
    p.addr = 0x1000 + seq * 8;
    p.data = seq;
    p.dest = dest;
    return p;
}

fwd_packet status_pkt(u16 word, dest_mask_t dest) {
    fwd_packet p;
    p.kind = packet_kind::status_word;
    p.word_index = word;
    p.dest = dest;
    return p;
}

TEST(fabric, delivers_in_push_order_per_destination) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Interleave pushes across all 4 commit paths.
    for (u64 i = 0; i < 32; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), i));
    }
    f.run_low(0, 100);
    ASSERT_EQ(f.delivered[0].size(), 32u);
    for (u64 i = 0; i < 32; ++i) {
        EXPECT_EQ(f.delivered[0][i].seq, i) << "ordering FSM violated";
    }
    EXPECT_TRUE(f.fabric->drained());
}

TEST(fabric, status_and_runtime_channels_are_independent) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Fill the runtime FIFO of path 0 to capacity.
    for (u32 i = 0; i < f.cfg.dc_buffer_depth; ++i) {
        ASSERT_TRUE(f.fabric->can_accept(packet_kind::runtime_load, 0));
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), 0, 0));
    }
    EXPECT_FALSE(f.fabric->can_accept(packet_kind::runtime_load, 0));
    // Status data can still be stored in the same cycle (dual channels).
    EXPECT_TRUE(f.fabric->can_accept(packet_kind::status_word, 0));
    EXPECT_TRUE(f.fabric->push(status_pkt(0, 1), 0, 0));
}

TEST(fabric, push_reject_counts_backpressure) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u32 i = 0; i < f.cfg.dc_buffer_depth; ++i) {
        f.fabric->push(runtime_pkt(i, 1), 0, 0);
    }
    EXPECT_FALSE(f.fabric->push(runtime_pkt(99, 1), 0, 0));
    EXPECT_EQ(f.fabric->stats().push_rejects, 1u);
}

TEST(fabric, f2_multicast_is_single_transmission) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // One status word to cores 1 and 3 (ERCP + SRCP consumers).
    ASSERT_TRUE(f.fabric->push(status_pkt(0, 0b1010), 0, 0));
    f.run_low(0, 50);
    EXPECT_EQ(f.delivered[1].size(), 1u);
    EXPECT_EQ(f.delivered[3].size(), 1u);
    EXPECT_EQ(f.fabric->stats().transmissions, 1u);
    EXPECT_EQ(f.fabric->stats().multicast_merged, 1u);
}

TEST(fabric, axi_multicast_needs_one_transaction_per_destination) {
    fabric_fixture f;
    f.init(fabric_kind::axi_interconnect);
    ASSERT_TRUE(f.fabric->push(status_pkt(0, 0b1010), 0, 0));
    f.run_low(0, 50);
    EXPECT_EQ(f.delivered[1].size(), 1u);
    EXPECT_EQ(f.delivered[3].size(), 1u);
    EXPECT_EQ(f.fabric->stats().transmissions, 2u);
    EXPECT_EQ(f.fabric->stats().multicast_merged, 0u);
}

TEST(fabric, f2_moves_two_packets_per_low_cycle) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u64 i = 0; i < 12; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), 0));
    }
    // Packets become visible after the 2-cycle CDC; then 2 transmissions per
    // low cycle drain 12 packets in 6 cycles.
    f.run_low(0, 2);
    const u64 before = f.fabric->stats().transmissions;
    f.run_low(2, 6);
    EXPECT_EQ(f.fabric->stats().transmissions - before, 12u);
}

TEST(fabric, axi_is_limited_to_one_packet_per_low_cycle_at_best) {
    fabric_fixture f;
    f.init(fabric_kind::axi_interconnect);
    for (u64 i = 0; i < 12; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), 0));
    }
    f.run_low(0, 2);
    const u64 before = f.fabric->stats().transmissions;
    f.run_low(2, 6);
    EXPECT_LE(f.fabric->stats().transmissions - before, 6u);
}

TEST(fabric, clock_domain_crossing_delays_availability) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Pushed at big-cycle 100 -> ready in the low domain at 100/2 + 2 = 52.
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 1), 0, 100));
    f.run_low(0, 52);
    EXPECT_TRUE(f.delivered[0].empty());
    f.run_low(52, 10);
    EXPECT_EQ(f.delivered[0].size(), 1u);
}

TEST(fabric, blocked_destination_preserves_order_and_retries) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    f.reject_deliveries = true;
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), 0, 0));
    }
    f.run_low(0, 30);
    EXPECT_TRUE(f.delivered[0].empty());
    EXPECT_GT(f.fabric->stats().delivery_retries, 0u);
    EXPECT_FALSE(f.fabric->drained());

    f.reject_deliveries = false;
    f.run_low(30, 30);
    ASSERT_EQ(f.delivered[0].size(), 4u);
    for (u64 i = 0; i < 4; ++i) EXPECT_EQ(f.delivered[0][i].seq, i);
    EXPECT_TRUE(f.fabric->drained());
}

TEST(fabric, different_destinations_do_not_block_each_other_on_f2) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Core 0's queue head cannot deliver, but core 1 keeps receiving.
    f.fabric->set_deliver([&](u32 core, const fwd_packet& p) {
        if (core == 0) return false;
        f.delivered[core].push_back(p);
        return true;
    });
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 0b01), 0, 0));
    ASSERT_TRUE(f.fabric->push(runtime_pkt(1, 0b10), 1, 0));
    f.run_low(0, 30);
    EXPECT_EQ(f.delivered[1].size(), 1u);
}

TEST(fabric, max_dc_depth_tracks_occupancy) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u32 i = 0; i < 10; ++i) f.fabric->push(runtime_pkt(i, 1), 0, 0);
    EXPECT_GE(f.fabric->stats().max_dc_depth, 10u);
}

TEST(fabric, push_earlier_than_previous_accepted_push_throws) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 1), 0, 10));
    ASSERT_TRUE(f.fabric->push(runtime_pkt(1, 1), 1, 10));  // equal stamps are fine
    EXPECT_THROW(f.fabric->push(runtime_pkt(2, 1), 2, 9), std::logic_error);
    // The refused push left no trace: nothing staged, nothing counted.
    EXPECT_EQ(f.fabric->stats().packets_pushed, 2u);
    EXPECT_EQ(f.fabric->stats().push_rejects, 0u);

    // A push rejected for backpressure does not move the ordering bar.
    for (u32 i = 1; i < f.cfg.dc_buffer_depth; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(10 + i, 1), 0, 10));
    }
    EXPECT_FALSE(f.fabric->push(runtime_pkt(99, 1), 0, 20));
    EXPECT_TRUE(f.fabric->push(runtime_pkt(100, 1), 1, 15));
    EXPECT_THROW(f.fabric->push(status_pkt(0, 1), 0, 14), std::logic_error);

    f.run_low(0, 100);
    ASSERT_EQ(f.delivered[0].size(), f.cfg.dc_buffer_depth + 2);
    EXPECT_EQ(f.delivered[0].back().seq, 100u);
}

// Reference model: one FIFO per DC-Buffer channel, and the ordering FSM as
// lowest-order-first arbitration over the channels' ready heads. This is the
// direct formulation of Fig. 2 b that fabric_model's single staging ring
// replaces; it exists only as the oracle for the differential test below.
class reference_fabric {
public:
    using deliver_fn = std::function<bool(u32, const fwd_packet&)>;

    reference_fabric(const fabric_config& cfg, u32 paths, u32 cores, deliver_fn deliver)
        : cfg_(cfg),
          cores_(cores),
          paths_(paths),
          deliver_(std::move(deliver)),
          channels_(2 * paths, bounded_fifo<staged>(cfg.dc_buffer_depth)),
          dest_(cores, bounded_fifo<in_flight>(64)) {}

    bool can_accept(packet_kind kind, u32 path) const {
        return !channels_[channel_of(kind, path)].full();
    }

    bool push(const fwd_packet& p, u32 path, cycle_t now_big) {
        auto& fifo = channels_[channel_of(p.kind, path)];
        if (!fifo.push({p, order_, now_big / 2 + 2, p.dest})) {
            ++stats.push_rejects;
            return false;
        }
        ++order_;
        ++stats.packets_pushed;
        stats.max_dc_depth = std::max(stats.max_dc_depth, fifo.size());
        return true;
    }

    cycle_t next_event_lo() const {
        cycle_t next = fabric_model::k_no_event;
        for (const auto& q : dest_) {
            if (!q.empty()) next = std::min(next, q.front().deliver_at_lo);
        }
        for (const auto& c : channels_) {
            if (!c.empty()) next = std::min(next, c.front().ready_lo);
        }
        return next;
    }

    bool drained() const {
        const auto empty = [](const auto& q) { return q.empty(); };
        return std::all_of(channels_.begin(), channels_.end(), empty) &&
               std::all_of(dest_.begin(), dest_.end(), empty);
    }

    void tick_low(cycle_t now_lo) {
        for (u32 core = 0; core < cores_; ++core) {
            auto& q = dest_[core];
            while (!q.empty() && q.front().deliver_at_lo <= now_lo) {
                if (!deliver_(core, q.front().packet)) {
                    ++stats.delivery_retries;
                    break;
                }
                ++stats.packets_delivered;
                q.pop();
            }
        }
        const bool f2 = cfg_.kind == fabric_kind::f2;
        const u32 slots = f2 ? cfg_.f2_packets_per_cycle : 1;
        bool any = false;
        for (u32 s = 0; s < slots; ++s) {
            const u32 src = oldest_ready_head(now_lo);
            if (src == k_none) break;
            auto& fifo = channels_[src];
            staged& head = fifo.front();
            u32 sent = 0;
            if (f2) {
                u32 fanout = 0;
                for (u32 core = 0; core < cores_; ++core) {
                    if ((head.remaining >> core) & 1) {
                        if (dest_[core].full()) break;
                        ++fanout;
                    }
                }
                for (u32 core = 0; core < cores_ && sent < fanout; ++core) {
                    if ((head.remaining >> core) & 1) {
                        send(head, core, now_lo);
                        ++sent;
                    }
                }
                if (sent > 1) stats.multicast_merged += sent - 1;
                if (head.remaining == 0 && sent > 0) fifo.pop();
                if (sent == 0) break;
            } else {
                if (axi_rearb_) {
                    axi_rearb_ = false;
                    break;
                }
                u32 core = 0;
                while (core < cores_ && !((head.remaining >> core) & 1)) ++core;
                if (core >= cores_ || dest_[core].full()) break;
                send(head, core, now_lo);
                if (head.remaining == 0) fifo.pop();
                if (src != axi_last_src_) axi_rearb_ = !axi_rearb_was_;
                axi_rearb_was_ = axi_rearb_;
                axi_last_src_ = src;
            }
            ++stats.transmissions;
            any = true;
        }
        if (any) ++stats.busy_lo_cycles;
    }

    fabric_stats stats;

private:
    struct staged {
        fwd_packet packet;
        u64 order = 0;
        cycle_t ready_lo = 0;
        dest_mask_t remaining = 0;
    };
    struct in_flight {
        fwd_packet packet;
        cycle_t deliver_at_lo = 0;
    };
    static constexpr u32 k_none = ~u32{0};

    u32 channel_of(packet_kind kind, u32 path) const {
        const bool status =
            kind == packet_kind::status_word || kind == packet_kind::segment_end;
        return 2 * (path % paths_) + (status ? 0 : 1);
    }

    u32 oldest_ready_head(cycle_t now_lo) const {
        u32 best = k_none;
        for (u32 c = 0; c < channels_.size(); ++c) {
            const auto& fifo = channels_[c];
            if (fifo.empty() || fifo.front().ready_lo > now_lo) continue;
            if (best == k_none || fifo.front().order < channels_[best].front().order) {
                best = c;
            }
        }
        return best;
    }

    void send(staged& head, u32 core, cycle_t now_lo) {
        const cycle_t hop = cfg_.kind == fabric_kind::axi_interconnect
                                ? 4
                                : 2 + core / 2 + core % 2;
        dest_[core].push({head.packet, now_lo + hop});
        head.remaining &= static_cast<dest_mask_t>(~(1u << core));
    }

    fabric_config cfg_;
    u32 cores_;
    u32 paths_;
    deliver_fn deliver_;
    std::vector<bounded_fifo<staged>> channels_;
    std::vector<bounded_fifo<in_flight>> dest_;
    u64 order_ = 0;
    u32 axi_last_src_ = k_none;
    bool axi_rearb_ = false;
    bool axi_rearb_was_ = false;
};

struct delivery {
    u32 core;
    u64 seq;
    cycle_t lo;
    bool operator==(const delivery&) const = default;
};

void expect_same_stats(const fabric_stats& a, const fabric_stats& b) {
    EXPECT_EQ(a.packets_pushed, b.packets_pushed);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_EQ(a.multicast_merged, b.multicast_merged);
    EXPECT_EQ(a.push_rejects, b.push_rejects);
    EXPECT_EQ(a.delivery_retries, b.delivery_retries);
    EXPECT_EQ(a.busy_lo_cycles, b.busy_lo_cycles);
    EXPECT_EQ(a.max_dc_depth, b.max_dc_depth);
}

// Seeded random traffic through fabric_model and the reference model:
// nondecreasing push stamps across commit paths, packet kinds and
// destination masks, random LSL rejects, F2 and AXI, DC depths 1-8 and
// 1-16 little cores. Delivery sequences, stats and next_event_lo must agree
// at every step.
TEST(fabric, staging_ring_matches_per_channel_reference) {
    const packet_kind kinds[] = {packet_kind::runtime_load, packet_kind::runtime_store,
                                 packet_kind::runtime_csr, packet_kind::status_word,
                                 packet_kind::segment_end};
    for (fabric_kind kind : {fabric_kind::f2, fabric_kind::axi_interconnect}) {
        for (u32 depth = 1; depth <= 8; ++depth) {
            for (u32 cores = 1; cores <= 16; ++cores) {
                const u64 seed = (static_cast<u64>(kind) << 16) | (depth << 8) | cores;
                SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(kind)
                                                << " depth=" << depth << " cores=" << cores);
                rng traffic(seed);
                const u32 paths = static_cast<u32>(traffic.range(1, 4));
                fabric_config cfg;
                cfg.kind = kind;
                cfg.dc_buffer_depth = depth;

                // Each side's LSL sink draws accept/reject from its own copy
                // of one stream, so identical call sequences see identical
                // decisions.
                cycle_t lo = 0;
                std::vector<delivery> got, want;
                auto sink = [&lo](std::vector<delivery>& log, rng& lsl) {
                    return [&log, &lsl, &lo](u32 core, const fwd_packet& p) {
                        if (lsl.chance(0.25)) return false;  // LSL full
                        log.push_back({core, p.seq, lo});
                        return true;
                    };
                };
                rng lsl_model(seed ^ 0x5eed), lsl_ref(seed ^ 0x5eed);
                fabric_model model(cfg, paths, cores);
                model.set_deliver(sink(got, lsl_model));
                reference_fabric ref(cfg, paths, cores, sink(want, lsl_ref));

                cycle_t big = 0;
                u64 seq = 0;
                for (u32 step = 0; step < 300; ++step) {
                    // Time only moves forward; sometimes not at all, sometimes
                    // far enough for the fabric to go idle.
                    big += traffic.chance(0.05) ? traffic.range(20, 60) : traffic.below(3);
                    for (u64 n = traffic.below(4); n > 0; --n) {
                        fwd_packet p;
                        p.kind = kinds[traffic.below(5)];
                        p.seq = seq++;
                        p.dest = static_cast<dest_mask_t>(
                            traffic.range(1, (u64{1} << cores) - 1));
                        const u32 path = static_cast<u32>(traffic.below(paths + 1));
                        ASSERT_EQ(model.can_accept(p.kind, path), ref.can_accept(p.kind, path));
                        ASSERT_EQ(model.push(p, path, big), ref.push(p, path, big));
                    }
                    ASSERT_EQ(model.next_event_lo(), ref.next_event_lo());
                    for (; lo < (big + 1) / 2; ++lo) {
                        model.tick_low(lo);
                        ref.tick_low(lo);
                        ASSERT_EQ(model.next_event_lo(), ref.next_event_lo()) << "lo=" << lo;
                        ASSERT_EQ(got.size(), want.size()) << "lo=" << lo;
                    }
                }
                for (u32 i = 0; i < 20000 && !ref.drained(); ++i, ++lo) {
                    model.tick_low(lo);
                    ref.tick_low(lo);
                    ASSERT_EQ(model.next_event_lo(), ref.next_event_lo()) << "lo=" << lo;
                }
                EXPECT_TRUE(ref.drained());
                EXPECT_EQ(model.drained(), ref.drained());
                EXPECT_EQ(got, want);
                expect_same_stats(model.stats(), ref.stats);
                EXPECT_GT(model.stats().packets_delivered, 0u);
            }
        }
    }
}

}  // namespace
}  // namespace meek
