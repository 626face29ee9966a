#!/usr/bin/env python3
"""Build the simulator and the meekbench harness from source, then run one
benchmark workload.

    python3 meekbench/run.py --workload kernel|campaign|serve --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. The Release build goes to
$CARGO_TARGET_DIR/meekbench (default .bench_build/meekbench) and is reused by
later runs; build output goes to stderr. The harness's own output passes
through: its last stdout line is the JSON result. Results, host records, the
modelled-digest records and trace exports land in <build>/results/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                        "meekbench")


def build():
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr) != 0:
            print("meekbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return out


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    out = build()
    if out is None:
        return 2
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "meekbench"), *sys.argv[1:], "--commit", commit(),
           "--out-dir", results]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
