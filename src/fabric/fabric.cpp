#include "fabric/fabric.h"

#include <algorithm>

namespace meek {
namespace {

bool is_status(packet_kind k) {
    return k == packet_kind::status_word || k == packet_kind::segment_end;
}

}  // namespace

fabric_model::fabric_model(const fabric_config& cfg, u32 commit_paths,
                           u32 num_little_cores)
    : cfg_(cfg), num_cores_(num_little_cores) {
    buffers_.reserve(commit_paths);
    for (u32 i = 0; i < commit_paths; ++i) {
        buffers_.emplace_back(cfg.dc_buffer_depth);
    }
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

bool fabric_model::can_accept(packet_kind kind, u32 path) const {
    const dc_buffer& buf = buffers_[path % buffers_.size()];
    return is_status(kind) ? !buf.status.full() : !buf.runtime.full();
}

bool fabric_model::push(fwd_packet p, u32 path, cycle_t now_big) {
    dc_buffer& buf = buffers_[path % buffers_.size()];
    staged_packet staged;
    staged.packet = p;
    staged.order = order_counter_;
    // Clock-domain crossing: available to the low domain two low cycles after
    // the big-cycle it was produced in.
    staged.ready_lo = now_big / 2 + 2;
    staged.remaining = p.dest;
    auto& fifo = is_status(p.kind) ? buf.status : buf.runtime;
    if (!fifo.push(staged)) {
        ++stats_.push_rejects;
        return false;
    }
    ++order_counter_;
    ++stats_.packets_pushed;
    ++staged_count_;
    stats_.max_dc_depth = std::max(stats_.max_dc_depth, fifo.size());
    return true;
}

cycle_t fabric_model::next_event_lo() const {
    cycle_t next = k_no_event;
    if (inflight_count_ != 0) {
        for (const auto& q : dest_queues_) {
            if (!q.empty()) next = std::min(next, q.front().deliver_at_lo);
        }
    }
    if (staged_count_ != 0) {
        for (const dc_buffer& buf : buffers_) {
            for (const auto* fifo : {&buf.status, &buf.runtime}) {
                if (!fifo->empty()) next = std::min(next, fifo->front().ready_lo);
            }
        }
    }
    return next;
}

u32 fabric_model::oldest_head(cycle_t now_lo) const {
    u32 best = k_no_channel;
    u64 best_order = ~u64{0};
    for (u32 b = 0; b < buffers_.size(); ++b) {
        const dc_buffer& buf = buffers_[b];
        for (u32 ch = 0; ch < 2; ++ch) {
            const auto& fifo = ch == 0 ? buf.status : buf.runtime;
            if (fifo.empty()) continue;
            const staged_packet& head = fifo.front();
            if (head.ready_lo > now_lo) continue;
            if (head.order < best_order) {
                best_order = head.order;
                best = 2 * b + ch;
            }
        }
    }
    return best;
}

void fabric_model::tick_low(cycle_t now_lo) {
    if (staged_count_ == 0 && inflight_count_ == 0) return;  // nothing anywhere

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

    // 2) Arbitrate transmissions out of the DC-Buffers in global order.
    const u32 slots = cfg_.kind == fabric_kind::f2 ? cfg_.f2_packets_per_cycle : 1;
    bool any = false;
    for (u32 s = 0; s < slots; ++s) {
        const u32 src = oldest_head(now_lo);
        if (src == k_no_channel) break;
        bounded_fifo<staged_packet>& fifo = channel(src);
        staged_packet& head = fifo.front();

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
                fifo.pop();
                --staged_count_;
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
                fifo.pop();
                --staged_count_;
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
