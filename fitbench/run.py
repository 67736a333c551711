#!/usr/bin/env python3
"""End-to-end fit benchmark for the RHCHME library.

Builds fitbench/ (which compiles librhchme from this checkout's src/) into
.bench_build/, runs one workload and prints one JSON result object as the
last line of standard output:

  python3 fitbench/run.py --workload paper-d4 --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span file). --smoke runs every workload of BENCHMARK.json
at toy size and checks that the emitted metric names and units match it.
Run from the repository root; see fitbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fitbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "fitbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"fitbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the fitbench package in Release."""
    for needed in ("CMakeLists.txt", os.path.join("src", "rhchme", "rhchme.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"library source {needed} not found next to fitbench/; "
                 "run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fitbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} did not finish: {e}")
            if proc.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed; see {log_path}")


def commit():
    """The checkout's commit, or 'unknown' outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context():
    """Build and host facts for the run; refuses a non-Release build."""
    out = subprocess.run([BINARY, "--print-context"], capture_output=True,
                         text=True, timeout=60)
    if out.returncode != 0:
        fail(f"{BINARY} --print-context failed: {out.stderr.strip()}")
    ctx = json.loads(out.stdout.strip().splitlines()[-1])
    ctx["commit"] = commit()
    # Same rule as tools/bench_compare.py: timings from an unoptimised
    # binary are meaningless, so a debug build is refused outright.
    if ctx["build_type"].lower() != "release" or not ctx["ndebug"]:
        fail(f"refusing a non-Release build (build_type={ctx['build_type']!r}, "
             f"NDEBUG={ctx['ndebug']}); reconfigure {BUILD_DIR} as Release")
    return ctx


def run_workload(workload, seed, seconds, trace, toy=False):
    """Runs the binary once; returns its parsed result object."""
    ctx = run_context()
    run_dir = os.path.join(RUNS_DIR, workload + ("-toy" if toy else ""))
    os.makedirs(run_dir, exist_ok=True)
    ctx.update({"workload": workload, "seed": seed, "trace": trace})
    with open(os.path.join(run_dir, f"context-seed{seed}.json"), "w") as f:
        json.dump(ctx, f, indent=2)
    print("fitbench context: " + json.dumps(ctx), file=sys.stderr)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Every workload at toy size, both modes; names and units must match
    BENCHMARK.json and every output check must pass."""
    spec = load_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run_workload(w["name"], 1, 1, trace, toy=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{w['name']} --trace {trace}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: output check failed")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"{result['attempted']} jobs", file=sys.stderr)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-size run of every workload; checks metric "
                         "names and units against BENCHMARK.json")
    args = ap.parse_args()
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build()
    if args.smoke:
        return smoke()
    workloads = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
