#!/usr/bin/env python3
"""Build and run the end-to-end protocol benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload udp-flood --seed 1 --seconds 10 --trace 0

Configures and builds e2e_bench/ (which compiles the protocol library from
src/) in Release mode into .bench_build/ (or $CARGO_TARGET_DIR when set),
then runs rrmp_e2e_bench with the same arguments. Build output goes to
standard error; the benchmark's report goes to standard output and ends
with one JSON line. When BENCHMARK.json sits at the repository root, the
JSON line's metric names and units are checked against it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "rrmp_e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "rrmp_e2e_bench")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["udp-flood", "udp-lossy", "sim-budget-tree"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: protocol sources (src/) not found next to "
              "e2e_bench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"e2e_bench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"e2e_bench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode

    want = expected_metrics(args.trace)
    if want is not None:
        lines = proc.stdout.strip().splitlines()
        got = json.loads(lines[-1])["metrics"] if lines else {}
        have = {name: m["unit"] for name, m in got.items()}
        if have != want:
            # A trailing line keeps a mismatched report from being read as
            # a result.
            print("e2e_bench: reported metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(want) - set(have))}, "
                  f"unexpected {sorted(set(have) - set(want))}, "
                  f"unit changes {sorted(k for k in want if k in have and want[k] != have[k])}")
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
