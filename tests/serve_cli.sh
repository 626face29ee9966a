#!/bin/sh
# Command-line contracts of the serving tools, run as ctest cases:
#
#   serve_cli.sh serve_golden   BIN_DIR DATA_DIR
#   serve_cli.sh gateway_golden BIN_DIR DATA_DIR
#   serve_cli.sh flags          BIN_DIR DATA_DIR
#
# serve_golden and gateway_golden are the CI steps of the same names, check
# for check: the rows must equal tests/data/serve_expected.ndjson byte for
# byte at 1 and 4 threads (1 and 3 gateway workers), and the stderr summary
# and stats JSON must carry the same values. flags pins the exit codes of bad
# flag values and unknown flags across every tool and bench that reads flags
# through the strict flag_reader, the fractional --line-rate both front-ends
# honour, and meek_search's --workers=N dispatch.
set -eu

mode=$1
bin=$2
data=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
    echo "FAIL: $*" >&2
    for f in *.txt; do
        [ -f "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
    done
    exit 1
}

requests="$data/serve_requests.ndjson"
expected="$data/serve_expected.ndjson"

case "$mode" in
serve_golden)
    "$bin/meek_serve" --requests "$requests" --threads 1 > t1.ndjson 2> t1.txt
    "$bin/meek_serve" --requests "$requests" --threads 4 > t4.ndjson 2> t4.txt
    cmp t1.ndjson t4.ndjson || fail "rows differ between 1 and 4 threads"
    cmp t1.ndjson "$expected" || fail "rows differ from serve_expected.ndjson"
    grep -q '# cache: .* hit_rate=78.6%' t1.txt || fail "workload cache hit rate"
    grep -q '# outcomes: .* hit_rate=72.0%' t1.txt || fail "outcome cache hit rate"
    grep -q '# sched: executed=50 ' t4.txt || fail "executed jobs at 4 threads"
    ;;
gateway_golden)
    "$bin/meek_gateway" --workers 1 --requests "$requests" > w1.ndjson 2> w1.txt
    "$bin/meek_gateway" --workers 3 --requests "$requests" --stats-json w3.json \
        > w3.ndjson 2> w3.txt
    cmp w1.ndjson "$expected" || fail "1-worker merge differs from serve_expected.ndjson"
    cmp w3.ndjson "$expected" || fail "3-worker merge differs from serve_expected.ndjson"
    for w in 1 3; do
        grep -q "# gateway: workers=$w alive=$w requests=50 rows=50 errors=0 worker_failures=0 respawned=0" \
            "w$w.txt" || fail "gateway summary at $w workers"
    done
    for k in '"gateway.worker.0.error_rows":0' '"gateway.worker.2.respawns":0' \
             '"gateway.worker_rt_ns"' '"gateway.workers_alive":3'; do
        grep -q -- "$k" w3.json || fail "stats JSON lacks $k"
    done
    ;;
flags)
    # A malformed or out-of-range value, or an unknown flag, exits 2 with a
    # message, before any input is read or any simulation starts.
    expect_usage() {
        code=0
        "$@" < /dev/null > out.txt 2> err.txt || code=$?
        [ "$code" -eq 2 ] || fail "exit $code, want 2: $*"
        [ -s err.txt ] || fail "no message: $*"
        [ ! -s out.txt ] || fail "output before exit: $*"
    }
    expect_usage "$bin/meek_serve" --threads abc
    expect_usage "$bin/meek_serve" --threads=1x
    expect_usage "$bin/meek_serve" --batch-max-lines 1x
    expect_usage "$bin/meek_serve" --max-queue-lines ''
    expect_usage "$bin/meek_serve" --line-rate -1
    expect_usage "$bin/meek_serve" --line-rate nan
    expect_usage "$bin/meek_serve" --framed=1
    expect_usage "$bin/meek_gateway" --workers abc
    expect_usage "$bin/meek_gateway" --workers 1 --line-rate 0.5x
    expect_usage "$bin/meek_gateway" --workers 1 --threads 4k
    expect_usage "$bin/meek_gateway" --workers 1 --max-inflight 4
    expect_usage "$bin/meek_search" --grid cores=0
    expect_usage "$bin/meek_search" --grid cores=abc
    expect_usage "$bin/meek_search" --grid cores=65
    expect_usage "$bin/meek_search" --grid lsl=4k
    expect_usage "$bin/meek_search" --grid depth=0
    expect_usage "$bin/meek_search" --grid depth=8,,16
    expect_usage "$bin/meek_search" --grid fabric=f2,noc
    expect_usage "$bin/meek_search" --grid warp=2
    expect_usage "$bin/meek_search" --shard 2/2
    expect_usage "$bin/meek_search" --instructions=12k
    expect_usage "$bin/meek_search" --keep 1.5
    expect_usage "$bin/serve_bench" --load-gen --load-requests 3x
    expect_usage "$bin/serve_bench" --load-gen --qps 20000x
    expect_usage "$bin/serve_bench" --load-gen --qps 20000,0
    expect_usage "$bin/serve_bench" --wall
    expect_usage "$bin/serve_bench" --no-cache
    expect_usage "$bin/sim_throughput" --repeat 2x
    expect_usage "$bin/sim_throughput" --instructions 0
    expect_usage "$bin/fig8_scalability" --threads abc
    expect_usage "$bin/fig8_scalability" --qiuck
    expect_usage "$bin/fig7_detection_latency" --quick=1
    expect_usage "$bin/sched_bench" --workers 4,x
    expect_usage "$bin/sched_bench" --task-ns -1

    # --task-ns 0 (empty tasks) stays legal.
    "$bin/sched_bench" --workers 1 --tasks 10 --task-ns 0 --repeat 1 > sched.txt \
        || fail "sched_bench --task-ns 0"
    grep -q 'task_ns=0 ' sched.txt || fail "sched_bench --task-ns 0 row"

    # --workers=N dispatches like --workers N: the children must not see the
    # flag in either form, or each would dispatch workers of its own.
    search() {
        "$bin/meek_search" --no-registry --grid lsl=2048,4096 --workload swaptions \
            --instructions 3000 --probe-faults 2 --threads 1 "$@" 2> search.txt
    }
    search --workers 2 --checkpoint-dir ckpt_a > search_a.csv || fail "--workers 2"
    search --workers=2 --checkpoint-dir ckpt_b > search_b.csv || fail "--workers=2"
    [ "$(wc -l < search_a.csv)" -ge 2 ] || fail "empty search frontier"
    cmp search_a.csv search_b.csv || fail "--workers=2 frontier differs from --workers 2"

    # 0.5 lines/s is a rate, not "off": past the 64-line burst, both
    # front-ends shed the rest of a 200-line batch.
    line='{"scenario":"vanilla","workload":"hmmer","instructions":3000,"seed":3}'
    i=0
    while [ "$i" -lt 200 ]; do
        echo "$line"
        i=$((i + 1))
    done > lines.ndjson
    "$bin/meek_serve" --requests lines.ndjson --line-rate=0.5 --quiet > serve.ndjson
    "$bin/meek_gateway" --workers 1 --requests lines.ndjson --line-rate 0.5 --quiet \
        > gateway.ndjson
    for f in serve gateway; do
        [ "$(wc -l < "$f.ndjson")" -eq 200 ] || fail "$f: want 200 rows"
        shed=$(grep -c '"error":"overloaded"' "$f.ndjson" || true)
        [ "$shed" -ge 100 ] || fail "$f: $shed rows shed at --line-rate 0.5, want >= 100"
    done
    ;;
*)
    echo "usage: $0 serve_golden|gateway_golden|flags BIN_DIR DATA_DIR" >&2
    exit 2
    ;;
esac
