#!/usr/bin/env python3
"""Builds and runs the closed-loop control-plane benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver binary is built from source into
.bench_build/ (CMake, Release). Its account of the run is passed through,
every metric it computed is listed by name and unit, and the last line of
standard output is one JSON object whose metrics are exactly the
end-to-end set of BENCHMARK.json (--trace 0) or its per-layer set
(--trace 1). Exits non-zero, printing no result, when the build, the run or
the metric contract fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", str(BUILD), "--target",
                     "rwc_perfbench", "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(command))
    return BUILD / "rwc_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    if args.trace == "1":
        command += ["--spans",
                    str(BUILD / f"spans-{args.workload}-{args.seed}.csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for entry in wanted:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            fail(f"run did not report {entry['name']}")
        if metric["unit"] != entry["unit"]:
            fail(f"{entry['name']} reported in {metric['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = metric

    print("\n".join(lines[:-1]))
    print("metrics:")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:16.6f} {metric['unit']}")
    print(f"  {'error_frac':34s} "
          f"{result['failed'] / result['attempted']:16.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    # A traced run also lists the figures BENCHMARK.json does not gate
    # (latency quantiles, end-to-end values of the traced run), as
    # name=value so they are not mistaken for the gated set.
    others = [f"{name}={metric['value']:.6g} {metric['unit']}"
              for name, metric in sorted(result["metrics"].items())
              if name not in metrics]
    if args.trace == "1" and others:
        print("also computed, not gated:")
        for i in range(0, len(others), 3):
            print("  " + "   ".join(others[i:i + 3]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
