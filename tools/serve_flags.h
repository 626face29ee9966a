// Command-line handling shared by meek_serve and meek_gateway: the flags both
// front-ends take, read through the strict flag_reader (common/cli.h), and
// the session plumbing around them (stdio serving, --stats-json /
// --trace-json export, the admission summary line). A malformed or
// out-of-range value exits 2 with a message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/atomic_file.h"
#include "common/cli.h"
#include "obs/slo.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/batch_core.h"

namespace meek::tools {

// The flags meek_serve and meek_gateway share.
struct serve_flags {
    std::string requests_file;
    bool framed = false;
    bool quiet = false;
    serve::admission_options admission;
    serve::batch_limits limits;
    std::string stats_json_path;
    std::string trace_json_path;
    obs::trace_clock_mode trace_clock = obs::trace_clock_mode::wall;
    std::string slo_text;
    obs::slo_spec slo;  // parsed from slo_text by start()

    // Consume the current argument if it is a shared flag.
    bool take(flag_reader& args) {
        if (args.is("--requests")) {
            requests_file = args.text();
        } else if (args.is_switch("--framed")) {
            framed = true;
        } else if (args.is_switch("--quiet")) {
            quiet = true;
        } else if (args.is_switch("--admission")) {
            admission.enabled = true;
        } else if (args.is("--max-queue-lines")) {
            admission.max_queue_lines = args.count(0);
            admission.enabled = true;
        } else if (args.is("--max-queue-bytes")) {
            admission.max_queue_bytes = args.count(0);
            admission.enabled = true;
        } else if (args.is("--line-rate")) {
            admission.line_rate = args.real(0.0, 1e12);
            admission.enabled = true;
        } else if (args.is("--retry-after-ms")) {
            admission.retry_after_ms = args.count(0);
        } else if (args.is("--batch-max-lines")) {
            limits.max_lines = args.count(0);
        } else if (args.is("--batch-max-bytes")) {
            limits.max_bytes = args.count(0);
        } else if (args.is("--stats-json")) {
            stats_json_path = args.text();
        } else if (args.is("--trace-json")) {
            trace_json_path = args.text();
        } else if (args.is("--trace-clock")) {
            const std::string mode = args.text();
            if (mode == "wall") {
                trace_clock = obs::trace_clock_mode::wall;
            } else if (mode == "virtual") {
                trace_clock = obs::trace_clock_mode::virtual_;
            } else {
                args.fail(mode, "wall or virtual");
            }
        } else if (args.is("--slo")) {
            slo_text = args.text();
        } else {
            return false;
        }
        return true;
    }

    // After parsing: check --slo and turn tracing on. Exits 2 on a bad spec.
    void start() {
        if (!slo_text.empty()) {
            std::string error;
            if (!obs::parse_slo_spec(slo_text, &slo, &error)) {
                std::fprintf(stderr, "bad --slo spec: %s\n", error.c_str());
                std::exit(2);
            }
        }
        if (tracing()) obs::tracer::instance().enable(trace_clock);
    }

    bool tracing() const { return !trace_json_path.empty(); }

    // With admission on, the --slo spec doubles as the shed/admit feedback
    // signal: the front-end tightens its own limits while the spec burns.
    obs::slo_spec slo_feedback() const {
        return admission.enabled && !slo_text.empty() ? slo : obs::slo_spec{};
    }

    // Serve --requests FILE, or stdin, to stdout. False (message printed)
    // when the file cannot be opened.
    bool serve_stdio(serve::batch_core& front, serve::batch_stats* stats) const {
        if (requests_file.empty()) {
            *stats = front.serve_stream(std::cin, std::cout, framed);
            return true;
        }
        std::ifstream in(requests_file);
        if (!in) {
            std::fprintf(stderr, "cannot open requests file '%s'\n", requests_file.c_str());
            return false;
        }
        *stats = front.serve_stream(in, std::cout, framed);
        return true;
    }

    // Write --stats-json (snap plus trace counters, the SLO verdict and the
    // admission section) and --trace-json, each atomically. False (message
    // printed) on a write failure.
    bool write_exports(obs::metrics_snapshot snap, const obs::slo_report& slo_report,
                       const serve::admission_controller& adm) const {
        obs::tracer& tr = obs::tracer::instance();
        std::string error;
        if (!stats_json_path.empty()) {
            if (tracing()) {
                snap.set_counter("trace.spans_recorded", tr.spans_recorded());
                snap.set_counter("trace.spans_dropped", tr.spans_dropped());
            }
            std::string admission_doc;
            if (adm.enabled()) admission_doc = adm.to_json();
            const std::string doc =
                obs::stats_json(snap, slo_text.empty() ? nullptr : &slo_report,
                                admission_doc.empty() ? nullptr : &admission_doc) +
                "\n";
            if (!write_file_atomic(stats_json_path, doc, &error)) {
                std::fprintf(stderr, "cannot write --stats-json '%s': %s\n",
                             stats_json_path.c_str(), error.c_str());
                return false;
            }
        }
        if (tracing()) {
            const std::string doc = obs::chrome_trace_json(tr.drain(), tr.spans_dropped());
            if (!write_file_atomic(trace_json_path, doc, &error)) {
                std::fprintf(stderr, "cannot write --trace-json '%s': %s\n",
                             trace_json_path.c_str(), error.c_str());
                return false;
            }
        }
        return true;
    }
};

// The "# admission:" stderr summary line, when admission is on.
inline void print_admission_summary(const serve::admission_controller& adm) {
    if (!adm.enabled()) return;
    const serve::admission_stats s = adm.stats();
    std::fprintf(stderr,
                 "# admission: admitted=%llu shed=%llu scale=%.3f "
                 "tightenings=%llu recoveries=%llu\n",
                 static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.shed), adm.scale(),
                 static_cast<unsigned long long>(s.slo_tightenings),
                 static_cast<unsigned long long>(s.slo_recoveries));
}

}  // namespace meek::tools
