#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 meekbench/selftest.py

Builds the harness (as run.py does), then, at --tiny size:
  * runs every workload of BENCHMARK.json untraced and traced, and checks that
    every end-to-end and every per-layer metric named there is printed with
    its unit, that the gate passed, and that trace_check accepts the export;
  * repeats one run with the same seed, which must reproduce the modelled
    digest recorded by the first (the harness fails the run otherwise);
  * checks that the gate fails, with a nonzero exit and "correct": false, when
    given a wrong expected serve row or a wrong expected architectural state;
  * checks that bad arguments are refused without a result line.
Exits 0 when all of that holds.
"""
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper next to this file)

SECONDS = "2"
SEED = "7"


def harness(build, out_dir, *args):
    cmd = [os.path.join(build, "meekbench"), "--tiny", "--out-dir", out_dir, *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build = run.build()
    if build is None:
        return 2
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL: " + what)

    with tempfile.TemporaryDirectory(dir=build) as out_dir:
        for w in spec["workloads"]:
            name = w["name"]
            for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                proc = harness(build, out_dir, "--workload", name, "--seed", SEED,
                               "--seconds", SECONDS, "--trace", trace)
                res = result_of(proc)
                tag = f"{name} --trace {trace}"
                expect(proc.returncode == 0 and res is not None and res["correct"] and
                       res["failed"] == 0, f"{tag}: gate did not pass\n{proc.stderr[-1500:]}")
                if res is None:
                    continue
                for m in wanted:
                    got = res["metrics"].get(m["name"])
                    expect(got is not None and got["unit"] == m["unit"],
                           f"{tag}: metric {m['name']} missing or not in {m['unit']}")
                if trace == "1":
                    export = os.path.join(out_dir, f"trace-{name}-seed{SEED}.json")
                    check = subprocess.run([os.path.join(build, "trace_check"), export],
                                           capture_output=True, text=True)
                    expect(check.returncode == 0, f"{tag}: trace_check rejected the export: "
                           + check.stderr.strip())

        # Broken expectations must fail the gate.
        for broken in ("row", "state"):
            proc = harness(build, out_dir, "--workload", "kernel", "--seed", SEED,
                           "--seconds", "1", "--trace", "0", "--break", broken)
            res = result_of(proc)
            expect(proc.returncode != 0 and res is not None and not res["correct"] and
                   res["failed"] > 0, f"--break {broken}: the gate did not fail")

        # Malformed arguments: refused, no result line.
        proc = harness(build, out_dir, "--workload", "nope", "--seed", SEED,
                       "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "unknown workload was not refused")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
