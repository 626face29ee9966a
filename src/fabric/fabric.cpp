#include "fabric/fabric.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace meek {
namespace {

bool is_status(packet_kind k) {
    return k == packet_kind::status_word || k == packet_kind::segment_end;
}

}  // namespace

fabric_model::fabric_model(const fabric_config& cfg, u32 commit_paths,
                           u32 num_little_cores)
    : cfg_(cfg),
      num_cores_(num_little_cores),
      paths_(commit_paths),
      staged_(std::size_t{2} * commit_paths * cfg.dc_buffer_depth),
      channel_fill_(2 * commit_paths, 0) {
    // Generous per-destination landing queues: the LSL applies the real
    // backpressure; this queue models link pipelining.
    dest_queues_.assign(num_little_cores, bounded_fifo<in_flight>(64));
}

fabric_model::fabric_model(const fabric_model& other, deliver_ref deliver)
    : fabric_model(other) {
    set_deliver_ref(deliver);
}

cycle_t fabric_model::hop_latency(u32 core) const {
    if (cfg_.kind == fabric_kind::axi_interconnect) {
        return 4;  // interconnect pipeline + address/data phases
    }
    // Manhattan grid: big core at (0,0), little core i at (1 + i/2, i%2).
    const cycle_t dist = 1 + core / 2 + core % 2;
    return 1 + dist;
}

u32 fabric_model::channel_of(packet_kind kind, u32 path) const {
    return 2 * (path % paths_) + (is_status(kind) ? 0 : 1);
}

bool fabric_model::can_accept(packet_kind kind, u32 path) const {
    return channel_fill_[channel_of(kind, path)] < cfg_.dc_buffer_depth;
}

bool fabric_model::push(fwd_packet p, u32 path, cycle_t now_big) {
    if (now_big < last_push_big_) {
        throw std::logic_error("fabric push at big cycle " + std::to_string(now_big) +
                               " precedes the previous push at " +
                               std::to_string(last_push_big_));
    }
    const u32 c = channel_of(p.kind, path);
    if (channel_fill_[c] >= cfg_.dc_buffer_depth) {
        ++stats_.push_rejects;
        return false;
    }
    // Clock-domain crossing: available to the low domain two low cycles after
    // the big-cycle it was produced in.
    staged_.push({p, now_big / 2 + 2, p.dest, c});
    last_push_big_ = now_big;
    ++stats_.packets_pushed;
    stats_.max_dc_depth = std::max<std::size_t>(stats_.max_dc_depth, ++channel_fill_[c]);
    return true;
}

cycle_t fabric_model::next_event_lo() const {
    cycle_t next = staged_.empty() ? k_no_event : staged_.front().ready_lo;
    if (inflight_count_ != 0) {
        for (const auto& q : dest_queues_) {
            if (!q.empty()) next = std::min(next, q.front().deliver_at_lo);
        }
    }
    return next;
}

cycle_t fabric_model::next_arrival_lo(u32 core) const {
    if (!dest_queues_[core].empty()) return dest_queues_[core].front().deliver_at_lo;
    // Ready times are nondecreasing in push order: the first staged packet
    // for `core` transmits no earlier than it is ready.
    for (const staged_packet& s : staged_) {
        if ((s.remaining >> core) & 1) return s.ready_lo + hop_latency(core);
    }
    return k_no_event;
}

void fabric_model::tick_low(cycle_t now_lo) {
    if (drained()) return;  // nothing anywhere

    // 1) Complete in-flight deliveries (per-destination, in order).
    if (inflight_count_ != 0) {
        for (u32 core = 0; core < num_cores_; ++core) {
            auto& q = dest_queues_[core];
            while (!q.empty() && q.front().deliver_at_lo <= now_lo) {
                if (deliver_ && !deliver_(core, q.front().packet)) {
                    ++stats_.delivery_retries;
                    break;  // LSL full: head blocks, order preserved
                }
                ++stats_.packets_delivered;
                q.pop();
                --inflight_count_;
            }
        }
    }

    // 2) Arbitrate transmissions out of the DC-Buffers in global order: the
    // ring head, once it has crossed the clock domain.
    const u32 slots = cfg_.kind == fabric_kind::f2 ? cfg_.f2_packets_per_cycle : 1;
    bool any = false;
    for (u32 s = 0; s < slots; ++s) {
        if (staged_.empty() || staged_.front().ready_lo > now_lo) break;
        staged_packet& head = staged_.front();
        const u32 src = head.channel;

        if (cfg_.kind == fabric_kind::f2) {
            // 1-to-N multicast: one transmission reaches every destination.
            u32 fanout = 0;
            for (u32 core = 0; core < num_cores_; ++core) {
                if ((head.remaining >> core) & 1) {
                    if (dest_queues_[core].full()) break;  // backpressure
                    ++fanout;
                }
            }
            u32 delivered = 0;
            for (u32 core = 0; core < num_cores_ && delivered < fanout; ++core) {
                if ((head.remaining >> core) & 1) {
                    dest_queues_[core].push({head.packet, now_lo + hop_latency(core)});
                    ++inflight_count_;
                    head.remaining &= static_cast<dest_mask_t>(~(1u << core));
                    ++delivered;
                }
            }
            if (delivered > 1) stats_.multicast_merged += delivered - 1;
            if (head.remaining == 0 && delivered > 0) {
                --channel_fill_[src];
                staged_.pop();
            }
            if (delivered == 0) break;  // all destinations blocked
        } else {
            // AXI: one destination per bus transaction, plus a re-arbitration
            // cycle whenever the granted source channel changes.
            if (axi_rearb_) {
                axi_rearb_ = false;
                break;
            }
            u32 core = 0;
            while (core < num_cores_ && !((head.remaining >> core) & 1)) ++core;
            if (core >= num_cores_ || dest_queues_[core].full()) break;
            dest_queues_[core].push({head.packet, now_lo + hop_latency(core)});
            ++inflight_count_;
            head.remaining &= static_cast<dest_mask_t>(~(1u << core));
            if (head.remaining == 0) {
                --channel_fill_[src];
                staged_.pop();
            }
            // Alternate grants amortize the handshake over short bursts.
            if (src != axi_last_src_) axi_rearb_ = !axi_rearb_was_;
            axi_rearb_was_ = axi_rearb_;
            axi_last_src_ = src;
        }
        ++stats_.transmissions;
        any = true;
    }
    if (any) ++stats_.busy_lo_cycles;
}

}  // namespace meek
