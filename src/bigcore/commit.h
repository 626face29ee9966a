// Commit-time observation channel. The paper's DEU taps the big core at the
// commit stage only — so the entire big-core/MEEK interface is this record
// stream plus a backpressure return path (a stalled DC-Buffer or a missing
// free checker stalls commit, nothing else in the core changes).
#pragma once

#include <optional>

#include "common/types.h"
#include "isa/exec.h"
#include "isa/instruction.h"

namespace meek {

struct commit_record {
    u64 seq = 0;          // dynamic instruction number (program order)
    addr_t pc = 0;
    instr ins;
    bool reg_write = false;
    u64 rd_value = 0;     // architectural result (post load-extension)
    std::optional<mem_intent> mem;
    u64 load_data = 0;    // raw loaded bytes for loads (zero-extended)
    u8 load_parity = 0;   // cache parity bit accompanying load data (Sec. III-A)
    bool csr_read = false;
    u64 csr_value = 0;    // non-repeatable CSR read value
    bool is_trap = false; // entered kernel mode at this instruction
    cycle_t commit_cycle = 0;
};

// Receives the big core's commit stream. Returning a cycle later than
// `proposed` stalls the core's commit stage until then; the sink is expected
// to account its own stall taxonomy (collecting / forwarding / checker).
class commit_sink {
public:
    virtual ~commit_sink() = default;

    virtual cycle_t on_commit(const commit_record& rec, cycle_t proposed) = 0;

    // The application thread halted (end of workload) at `at`.
    virtual void on_halt(cycle_t at) { (void)at; }

    // Early stop: once requested, the core's commit loop exits after the
    // instruction it is committing, as if a run limit had been reached. The
    // flag is sticky; the owner decides what (if anything) follows the stop.
    void request_stop() { stop_requested_ = true; }
    bool stop_requested() const { return stop_requested_; }

private:
    bool stop_requested_ = false;
};

}  // namespace meek
