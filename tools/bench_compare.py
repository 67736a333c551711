#!/usr/bin/env python3
"""Run bench_kernels under the gate's arguments and compare it against the committed baseline.

Guards the perf trajectory in CI:

  * refuses to accept a run of a **debug** build —
    debug numbers are meaningless and silently poison the comparison;
  * fails (exit 1) when any kernel present in both files regressed by
    more than --threshold (default 25%) in real_time;
  * fails when a kernel that reports a `recall` counter (the approximate
    kNN builds) lost more than --recall-threshold (default 0.02) of
    recall against the baseline — a speedup bought with accuracy is a
    regression, not a win;
  * benchmarks missing from either side are reported but never fatal,
    so adding or retiring kernels does not break CI.

The gate's run context -- the kernel table, the benchmark filter,
min_time and repetitions -- lives in GATE_ARGS below. The script runs
the bench binary under it (in the binary's own directory, where it
writes BENCH_kernels.json) and compares that file, so CI and the
baseline recipe always measure the same kernels the same way.

Usage:
  python3 tools/bench_compare.py [--bench build/bench_kernels] \
      [--baseline BENCH_kernels.baseline.json] \
      [--threshold 0.25] [--recall-threshold 0.02] [--allow-debug]

Regenerating the baseline (Release build only; regenerate the whole file
in one run on one host, never splice entries from another machine; the
comparison printed by the run does not matter here):
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  python3 tools/bench_compare.py
  cp build/BENCH_kernels.json BENCH_kernels.baseline.json
Then run the gate against it at least five times, alternating with a
binary built from the commit before; keep the new file only if that
unchanged binary passes in most runs (a run in a fast moment of a shared
host locks in medians that the same code cannot meet).

A benchmark that appears several times (repetitions) is represented by
the median of its real_time rows, so one lucky or unlucky repetition
does not set the reference.

Cross-machine caveat: real_time is only comparable on similar hardware.
The committed baseline tracks the reference dev machine; on very
different hosts, regenerate the baseline locally before trusting the
comparison (or raise --threshold).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The gated kernels and how they are timed. --force_isa=avx2 pins the
# dispatched table to the one the committed baseline is recorded with, so
# the comparison never soft-skips on other hardware; five repetitions let
# the gate compare each kernel's median instead of one short sample.
GATE_FILTER = ("BM_GemmNN/(256|512)"
               "|BM_(Dot|Axpy|SquaredDistance)(Simd|Scalar)/4096"
               "|BM_EnsembleBuild/48|BM_SubspaceLearning/256"
               "|BM_SparseSandwich/1024"
               "|BM_SolverFit6(Dense|Csr|CsrTfidf)/(64|128)"
               "|BM_KnnBuild(Exact|Descent)/(1024|4096)")
GATE_ARGS = ["--force_isa=avx2", "--benchmark_filter=" + GATE_FILTER,
             "--benchmark_min_time=0.05", "--benchmark_repetitions=5"]


def run_gate(binary):
    """Runs `binary` under GATE_ARGS in its own directory and returns the
    path of the BENCH_kernels.json it writes there, or None on failure."""
    binary = os.path.abspath(binary)
    workdir = os.path.dirname(binary)
    try:
        proc = subprocess.run([binary] + GATE_ARGS, cwd=workdir)
    except OSError as e:
        print(f"error: cannot run {binary}: {e}")
        return None
    if proc.returncode != 0:
        print(f"error: {binary} exited with status {proc.returncode}")
        return None
    return os.path.join(workdir, "BENCH_kernels.json")


def load_benchmarks(path):
    """Returns (context, {name: real_time}, {name: recall}) for a
    google-benchmark JSON; real_time is the median over a benchmark's
    repetitions, and recall only holds kernels that report the counter."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    samples = {}
    recalls = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions); the
        # median is recomputed below from the per-repetition rows.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None or "real_time" not in bench:
            continue
        samples.setdefault(name, []).append(float(bench["real_time"]))
        if "recall" in bench:
            recalls[name] = float(bench["recall"])
    times = {name: statistics.median(v) for name, v in samples.items()}
    return doc.get("context", {}), times, recalls


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="build/bench_kernels",
                        help="bench_kernels binary to run under the gate's "
                             "arguments")
    parser.add_argument("--baseline", default="BENCH_kernels.baseline.json",
                        help="committed reference JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional real_time regression that fails "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--recall-threshold", type=float, default=0.02,
                        help="absolute recall-counter drop that fails "
                             "(default 0.02)")
    parser.add_argument("--allow-debug", action="store_true",
                        help="accept a run of a debug build (local "
                             "debugging only; CI must not pass this)")
    parser.add_argument("--allow-isa-mismatch", action="store_true",
                        help="compare runs even when current and baseline "
                             "dispatched different kernel tables (scalar vs "
                             "avx2 vs avx512 vs neon); the numbers will "
                             "include the ISA gap")
    parser.add_argument("--require-isa-match", action="store_true",
                        help="treat a kernel-table mismatch as a hard "
                             "failure (exit 1) instead of skipping the "
                             "comparison; for legs that pin RHCHME_FORCE_ISA "
                             "and must never silently no-op")
    args = parser.parse_args()

    current_path = run_gate(args.bench)
    if current_path is None:
        return 1
    try:
        cur_ctx, current, cur_recall = load_benchmarks(current_path)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {current_path}: {e}")
        return 1
    try:
        base_ctx, baseline, base_recall = load_benchmarks(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot read --baseline {args.baseline}: {e}")
        return 1

    # rhchme_build_type (emitted by bench_kernels' main) records whether the
    # *benchmark binary* was optimised and is authoritative when present;
    # the stock library_build_type only reflects how the system libbenchmark
    # was compiled (Debian/Ubuntu ship it assertion-enabled = "debug" even
    # under a Release user build), so it is only consulted for old JSONs
    # that predate the custom key.
    if "rhchme_build_type" in cur_ctx:
        build_key = "rhchme_build_type"
    else:
        build_key = "library_build_type"
    build_type = str(cur_ctx.get(build_key, "unknown")).lower()
    if build_type == "debug" and not args.allow_debug:
        print(f"error: {args.bench} is a debug build "
              f"(context.{build_key} = {build_type!r}); perf numbers "
              "from unoptimised binaries are meaningless. Re-run "
              "bench_kernels from a Release build (or pass --allow-debug "
              "for local experiments).")
        return 1

    # The kernel table is dispatched at runtime, so the binary is the same
    # everywhere — but a run that resolved 'scalar' compared against the
    # 'avx2' baseline would report the ISA gap itself as a 4-5x
    # "regression". context.rhchme_simd records the table the run actually
    # dispatched; on mismatch the comparison is skipped (exit 0) so a
    # host without the baseline ISA never fails CI spuriously. Legs that
    # pin the table (RHCHME_FORCE_ISA / --force_isa) should pass
    # --require-isa-match so the skip can never mask a misconfigured leg.
    cur_isa = cur_ctx.get("rhchme_simd")
    base_isa = base_ctx.get("rhchme_simd")
    if (cur_isa is not None and base_isa is not None and cur_isa != base_isa
            and not args.allow_isa_mismatch):
        if args.require_isa_match:
            print(f"error: kernel-table mismatch: current dispatched "
                  f"{cur_isa!r} but the baseline was recorded with "
                  f"{base_isa!r}, and --require-isa-match is set. Pin the "
                  f"table with RHCHME_FORCE_ISA={base_isa} (or "
                  f"--force_isa={base_isa}) when producing the current "
                  "run, or regenerate the baseline.")
            return 1
        print(f"SKIP: current run dispatched kernel table {cur_isa!r} but "
              f"the baseline was recorded with {base_isa!r}; comparing "
              "them would measure the ISA gap, not a regression. To "
              f"reproduce the baseline's table run bench_kernels with "
              f"RHCHME_FORCE_ISA={base_isa} (or --force_isa={base_isa}); "
              "to compare across tables anyway pass --allow-isa-mismatch.")
        return 0

    shared = sorted(set(current) & set(baseline))
    only_current = sorted(set(current) - set(baseline))
    only_baseline = sorted(set(baseline) - set(current))

    if not shared:
        print("error: no benchmark names shared between current and "
              "baseline; nothing to compare.")
        return 1

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in shared:
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  "
              f"{delta:>+7.1%}{flag}")

    # Recall gate: recall is deterministic for a fixed seed (unlike
    # real_time), so any drop beyond the threshold is a real algorithmic
    # change, not machine noise.
    recall_regressions = []
    for name in sorted(set(cur_recall) & set(base_recall)):
        drop = base_recall[name] - cur_recall[name]
        flag = ""
        if drop > args.recall_threshold:
            flag = "  << RECALL REGRESSION"
            recall_regressions.append((name, drop))
        print(f"{name}: recall {base_recall[name]:.4f} -> "
              f"{cur_recall[name]:.4f}{flag}")

    for name in only_current:
        print(f"note: {name} has no baseline entry (new kernel?)")
    for name in only_baseline:
        print(f"note: {name} missing from current run (filtered out?)")

    failed = False
    if regressions:
        failed = True
        print(f"\nFAIL: {len(regressions)} kernel(s) regressed more than "
              f"{args.threshold:.0%} in real_time:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
    if recall_regressions:
        failed = True
        print(f"\nFAIL: {len(recall_regressions)} kernel(s) lost more than "
              f"{args.recall_threshold} recall:")
        for name, drop in recall_regressions:
            print(f"  {name}: -{drop:.4f}")
    if failed:
        return 1

    print(f"\nOK: {len(shared)} kernels within {args.threshold:.0%} of "
          f"baseline ({len(set(cur_recall) & set(base_recall))} recall "
          "counters checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
