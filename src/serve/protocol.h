// The serve wire protocol: line-delimited JSON in both directions.
//
// Request (one object per line):
//   {"scenario":"meek/f2/opt/4","workload":"hmmer",
//    "instructions":20000,"seed":7,"repeats":2,"id":"client-tag"}
//
//   * "scenario"     — a sim registry name ("vanilla", "ea-lockstep", "nzdc",
//                      "meek/<f2|axi>/<opt|def>/<cores>"), or the literal
//                      "meek" to build one from the inline knobs below.
//   * "cores"/"fabric"/"tuning" — inline MEEK knobs ("fabric": "f2"|"axi",
//                      "tuning": "opt"|"def"); only legal with scenario
//                      "meek", where they default to 4/f2/opt.
//   * "workload"     — a workload profile name (required).
//   * "instructions" — dynamic length (default 200000).
//   * "seed"         — workload generation seed (default 0xC0FFEE).
//   * "repeats"      — number of evaluations; repeat r>0 re-generates the
//                      workload with derive_stream_seed(seed, r), repeat 0
//                      uses `seed` itself (default 1, at most 1000000 — a
//                      request is also an allocation bound downstream).
//   * "id"           — opaque client tag echoed into every response row.
//   * "trace"        — optional {"trace_id":N,"span_id":N} trace context
//                      (both unsigned; trace_id nonzero). A service that
//                      receives one continues the caller's trace instead of
//                      minting its own; absent => old behavior, byte for
//                      byte. The gateway injects this into forwarded lines.
//
// Unknown fields are an error: a typo must not silently evaluate defaults.
//
// Response (one object per (request, repeat), in request order):
//   {"request":0,"repeat":0,"id":"client-tag","scenario":"meek/f2/opt/4",
//    "workload":"hmmer","seed":7,"cycles":..,"instructions":..,
//    "ipc":1.234567,"verified_ok":true,"skipped":false,
//    "replayed_instructions":..,"checker_compute_cycles":..,
//    "stall_collecting":..,"stall_forwarding":..,"stall_checker":..}
// or, for a request that failed to parse or resolve:
//   {"request":3,"repeat":0,"id":"client-tag","error":"unknown workload 'x'"}
// or, for a request shed by admission control or the batch buffering caps
// (one row, settling the whole request regardless of its repeats):
//   {"request":5,"repeat":0,"id":"client-tag","error":"overloaded",
//    "retry_after_ms":100}
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/job.h"
#include "sim/scenario.h"

namespace meek::serve {

// ---------------------------------------------------------- batch framing ---
//
// A batch on a stream is a run of non-blank lines terminated by a blank line
// or EOF. Framing normalizes line endings: a trailing '\r' (CRLF clients —
// telnet, Windows sockets) is stripped here so the JSON layer never sees it
// and a CRLF batch is byte-identical to an LF one.

// `line` minus one trailing '\r', if present.
std::string_view strip_cr(std::string_view line);

// Blank for framing purposes: empty or whitespace-only (after CR strip).
bool is_blank_line(std::string_view line);

// Memory bounds on one buffered batch. A connection may not make the server
// buffer unbounded text before any evaluation starts: lines past either cap
// are read (to stay framed) but their content is discarded, and each becomes
// an in-slot "overloaded" error row downstream. 0 = unlimited.
struct batch_limits {
    u64 max_lines = 65'536;        // request lines buffered per batch
    u64 max_bytes = 64u << 20;     // request bytes buffered per batch
};

// Line-at-a-time batch reader, the one place framing and the batch_limits
// caps are applied: skips leading blank lines, then yields CR-stripped
// request lines until a blank line or EOF. Once a line crosses a cap, it and
// every later line of the batch are `overflow` (content discarded), so
// overflow indices stay contiguous at the tail.
class batch_reader {
public:
    enum class item { line, overflow, end };

    batch_reader(std::istream& in, const batch_limits& limits) : in_(in), limits_(limits) {}

    // `*line` is valid until the next call; none may follow `end`.
    item next(std::string_view* line);

    // The stream *died* (in.bad() — an I/O error on a socket, a throwing
    // streambuf) rather than ending cleanly; the two must not be conflated
    // or a flaky transport looks like a polite client hanging up.
    bool stream_error() const;

private:
    std::istream& in_;
    const batch_limits limits_;
    std::string buf_;
    u64 lines_ = 0;
    u64 bytes_ = 0;  // kept (non-overflow) request bytes
    bool overflowing_ = false;
};

// One evaluation request, as parsed from a single NDJSON line.
struct run_request {
    std::string id;        // optional client tag, echoed back verbatim
    std::string scenario;  // registry name, or "meek" + inline knobs
    std::optional<u64> cores;
    std::optional<std::string> fabric;  // "f2" | "axi"
    std::optional<std::string> tuning;  // "opt" | "def"
    std::string workload;
    u64 instructions = 200'000;
    u64 seed = 0xC0FFEE;
    u64 repeats = 1;
    // Wire trace context ("trace" field): present => the service adopts the
    // caller's trace for this line instead of minting one.
    std::optional<obs::trace_context> trace;
};

// Parse one request line. Exactly one of (request, error) is meaningful:
// empty error => request is valid.
struct parsed_request {
    run_request request;
    std::string error;
    bool ok() const { return error.empty(); }
};
parsed_request parse_request(std::string_view line);

// Serialize a request back to its wire form (serve_bench builds batches with
// this; omits fields that hold their defaults only for id/knobs).
std::string to_json(const run_request& req);

// Resolve the scenario reference (registry name or inline knobs) and the
// workload profile into a run_spec for repeat `repeat`. Returns an error
// message, or "" on success.
std::string resolve_request(const run_request& req, u64 repeat, sim::run_spec* out);

// A stats request line — `{"stats":true}` with an optional `"id"` — asks the
// service for one observability row instead of an evaluation:
//   {"request":N,"repeat":0,("id":...,)"stats":{...meek.stats.v1 document...}}
// Returns true when `line` is such a request; `out_id` (optional) receives
// the echoed id. Any other fields, or "stats" not literally true, make the
// line an ordinary (and thus erroring) run request — a typo must not
// silently turn into a stats probe.
bool parse_stats_request(std::string_view line, std::string* out_id = nullptr);

// One NDJSON response row.
struct response_row {
    u64 request_index = 0;
    u64 repeat = 0;
    std::string id;
    std::string error;  // nonempty => the outcome fields are absent
    // Overload shedding hint ("retry_after_ms" field, emitted when nonzero):
    // rides only on "overloaded" error rows, telling the client when to
    // resubmit the shed request. Round-trips through parse_response.
    u64 retry_after_ms = 0;
    u64 seed = 0;       // the workload seed this repeat actually used
    // Optional trace correlation ("trace_id" field, emitted when nonzero).
    // The service deliberately never sets it — response bytes stay identical
    // with tracing on — but the field round-trips for clients that do.
    u64 trace_id = 0;
    // In-process only, never serialized: the line's trace, under which
    // serve_batch records the row's top-level "serialize" span.
    obs::trace_context trace;
    sim::run_outcome outcome;
    // Pre-serialized row (stats rows, and worker rows passing through the
    // gateway): when nonempty, to_json() emits it verbatim — it must start
    // with the "request" field like every row, so the gateway's index
    // rewrite applies unchanged.
    std::string raw;
};

std::string to_json(const response_row& row);

// The in-slot shed row: {"request":N,...,"error":"overloaded",
// "retry_after_ms":M}. One of these settles a whole request (admission shed,
// batch-limit overflow) regardless of its repeats.
response_row overloaded_row(u64 request_index, u64 retry_after_ms,
                            std::string id = {});

// Parse a response row (the serve_bench client side, and round-trip tests).
// Returns nullopt and sets `error` on malformed input.
std::optional<response_row> parse_response(std::string_view line,
                                           std::string* error = nullptr);

}  // namespace meek::serve
