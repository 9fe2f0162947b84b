#!/usr/bin/env python3
"""Run one nestquad benchmark workload and print its metrics.

    python3 bench/run.py --workload optimizer --seed 1 --seconds 55 --trace 0

Workloads: optimizer, grid (see README.md).  Each run starts
fresh single-threaded worker processes (worker.py): with ``--trace 0``,
one that sets up and measures, with set-up-only workers before and after
it for the median set-up time; with ``--trace 1``, one that alternates
untraced and traced passes and reports the per-layer metrics.  Every output is checked; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and the full result, with the
environment, are written under .bench_out/ at the repository root.

This process never imports numpy, so that numpy is first imported by a
worker whose BLAS thread pin is already set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("optimizer", "grid")
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Set-up-only workers started before and again after the measuring one in
# an untraced run; setup_s is the median of all their set-up times.
# Spreading the samples over the run evens out slow phases of a shared host.
SETUP_ROUNDS = 2
# Every worker of a run must be done this long after the run started.
RUN_LIMIT_S = 165.0
# The measuring worker stops starting ops this long before that limit.
GATE_RESERVE_S = 15.0


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in doc[kind]}


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_PIN)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--t0", repr(t0),
            "--deadline", repr(deadline - GATE_RESERVE_S)]
    if setup_only:
        argv.append("--setup-only")
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nestquad",
                                       "__init__.py")):
        print(f"error: no nestquad source tree under {ROOT}", file=sys.stderr)
        return 2
    rounds = 0 if args.trace else SETUP_ROUNDS
    try:
        samples = [run_worker(args, deadline, True)["setup_s"]
                   for _ in range(rounds)]
        result = run_worker(args, deadline, False)
        samples.append(result["setup_s"])
        samples += [run_worker(args, deadline, True)["setup_s"]
                    for _ in range(rounds)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(samples)
    units = declared_metrics(args.trace)
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items()}
    result["metrics"] = metrics
    result["setup_samples"] = samples
    result["workload"] = args.workload
    result["seconds"] = args.seconds
    result["trace"] = args.trace

    env = result["env"]
    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "blas_pin"),
          f"blas_threads={env['blas_pin']['OPENBLAS_NUM_THREADS']}")
    walls = [p["wall_s"] for p in result["passes"]]
    print(f"workload={args.workload} trace={args.trace} passes={len(walls)} "
          f"pass_s={' '.join(f'{w:.3f}' for w in walls)}")
    ops = [s for p in result["passes"] if not p["traced"]
           for s in p["op_seconds"]]
    if ops:
        line = f"op latency n={len(ops)} median={spans.quantile(ops, 0.5):.4f} s"
        tail = spans.tail_percentile(ops)
        if tail is not None:
            line += f" p{tail[0]:g}={tail[1]:.4f} s"
        print(line)
    for rec in result["failures"]:
        print(f"FAILED {rec['op']}: {rec['status']} {rec.get('error', '')}")
    print(f"failed_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
