#!/usr/bin/env python3
"""Builds and runs c5bench, the end-to-end primary -> backup benchmark.

Run from the repository root:

  python3 c5bench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
      one run; the last stdout line is the JSON result
  python3 c5bench/run.py
      every workload once, then one combined JSON line
  python3 c5bench/run.py --quick
      2 s windows over 100k keys (all three workloads in < 30 s)
  python3 c5bench/run.py --repeat 5 [--workload W] [--seed S]
      N runs per workload on seeds S..S+N-1; prints median, quartiles and
      spread (IQR / median) per metric, writes them to --summary FILE and
      validates that file with bench_json_check --require
  python3 c5bench/run.py --trace-dir DIR [--workload W]
      traced runs (per-layer metrics); Chrome trace JSON per workload in DIR
  python3 c5bench/run.py --quick --sanitize address|thread
      builds a sanitizer lane and runs every workload; a crash fails the run
      and names the seed

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root: c5bench-release/ for timing, c5bench-<sanitizer>/ for the
sanitizer lanes. Build output goes to stderr so stdout stays parseable.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "tpcc", "read_mostly"]
RUN_TIMEOUT_S = 175
SANITIZED_RUN_TIMEOUT_S = 900


def fail(msg, code=2):
    print(f"c5bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(flavor):
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "cluster.h")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = os.path.join(build_root(), f"c5bench-{flavor}")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if flavor == "release":
            cmd += ["-DCMAKE_BUILD_TYPE=Release"]
        else:
            cmd += ["-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    f"-DC5BENCH_SANITIZE={flavor}"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs,
           "--target", "c5bench", "bench_json_check"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir


def run_once(bdir, workload, seed, seconds, trace, quick, trace_out=None,
             timeout=RUN_TIMEOUT_S, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(bdir, "c5bench"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"c5bench: {workload} seed {seed} timed out after {timeout}s",
              file=sys.stderr)
        return 124, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def spread_table(workload, runs):
    """Median, quartiles and IQR/median per metric over several runs."""
    rows = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        rows.append({"name": name, "unit": runs[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": values})
    print(f"# {workload}: {len(runs)} runs")
    print(f"#   {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} spread")
    for r in rows:
        print(f"#   {r['name']:34} {r['median']:14.4f} {r['q1']:14.4f} "
              f"{r['q3']:14.4f} {100 * r['spread']:6.2f}% {r['unit']}")
    return rows


def validate_summary(bdir, path, workloads):
    checker = os.path.join(bdir, "bench_json_check")
    cmd = [checker, path]
    for w in workloads:
        for key in ("name", "median", "q1", "q3", "spread"):
            cmd += ["--require", f"workloads.{w}.metrics.{key}"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--trace-dir")
    ap.add_argument("--sanitize", choices=["address", "thread"])
    ap.add_argument("--summary")
    args = ap.parse_args()

    workloads = [args.workload] if args.workload else WORKLOADS
    trace = args.trace == 1 or args.trace_dir is not None

    if args.sanitize:
        bdir = build(args.sanitize)
        failed = False
        for w in workloads:
            rc, result = run_once(bdir, w, args.seed, args.seconds, trace,
                                  quick=True, timeout=SANITIZED_RUN_TIMEOUT_S)
            ok = rc == 0 and result is not None and result["correct"]
            print(f"# sanitize={args.sanitize} workload={w} seed={args.seed} "
                  f"exit={rc} {'ok' if ok else 'FAILED'}")
            failed = failed or not ok
        sys.exit(1 if failed else 0)

    bdir = build("release")
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    def trace_out(w, seed):
        if not args.trace_dir:
            return None
        return os.path.join(args.trace_dir, f"{w}-seed{seed}.json")

    if args.repeat > 0:
        summary = {"runs": args.repeat, "first_seed": args.seed,
                   "trace": int(trace), "workloads": {}}
        bad = False
        for w in workloads:
            runs = []
            for i in range(args.repeat):
                seed = args.seed + i
                rc, result = run_once(bdir, w, seed, args.seconds, trace,
                                      args.quick, trace_out(w, seed),
                                      echo=False)
                if rc != 0 or result is None or not result["correct"]:
                    print(f"# {w} seed {seed}: FAILED (exit {rc})")
                    bad = True
                    continue
                runs.append(result)
            if runs:
                summary["workloads"][w] = {"metrics": spread_table(w, runs)}
        path = args.summary or os.path.join(build_root(),
                                            "c5bench-summary.json")
        with open(path, "w") as f:
            json.dump(summary, f, indent=1)
        if not validate_summary(bdir, path, summary["workloads"]):
            fail(f"summary {path} failed validation", 1)
        print(f"# summary written to {path}")
        sys.exit(1 if bad else 0)

    if len(workloads) == 1:
        rc, _ = run_once(bdir, workloads[0], args.seed, args.seconds, trace,
                         args.quick, trace_out(workloads[0], args.seed))
        sys.exit(rc)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        rc, result = run_once(bdir, w, args.seed, args.seconds, trace,
                              args.quick, trace_out(w, args.seed))
        worst = worst or rc
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
