"""One benchmark process: set up a workload, run timed passes, gate them.

run.py starts this script with the BLAS thread pin already in its
environment, so numpy is first imported single-threaded, and with
``--t0`` set to ``time.monotonic()`` just before the spawn, so that set-up
time counts from interpreter start.  The last line of standard output is
one JSON object.

    python3 bench/worker.py --workload optimizer --seed 1 --seconds 55 \\
        --trace 0 --t0 <monotonic> --deadline <monotonic> [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Wall-clock cap of one op; an op past it is marked capped and failed.
OP_CAP_S = 60.0


class Capped(Exception):
    """An op ran past its wall-clock cap."""


@contextlib.contextmanager
def wall_cap(seconds: float):
    def alarm(signum, frame):
        raise Capped(f"past its {seconds:.1f} s cap")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def environment(seed: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "seed": seed,
    }


def run_pass(workload, deadline: float, tracer=None, log_dir=None) -> dict:
    """Run every op once, timing the whole pass, then gate the results."""
    import spans

    ops = [op for task in workload.tasks for op in task]
    records = [{"op": op.name, "status": "ok", "seconds": 0.0} for op in ops]
    logs = [None] * len(ops)
    done = {}
    workload.counts.clear()
    try:
        if tracer is not None:
            spans.install(tracer)
        begin = time.perf_counter()
        for i, (op, rec) in enumerate(zip(ops, records)):
            if not all(name in done for name in op.needs):
                rec["status"] = "skipped"
                continue
            if log_dir is not None and op.optimizer:
                logs[i] = os.path.join(log_dir, f"op{i}.csv")
            start = time.perf_counter()
            try:
                cap = min(OP_CAP_S, deadline - time.monotonic())
                if cap <= 0.0:
                    raise Capped("run deadline reached")
                with wall_cap(cap):
                    done[op.name] = op.run(done, logs[i])
            except Capped as exc:
                rec["status"], rec["error"] = "capped", str(exc)
            except Exception as exc:  # a failing op is counted, not fatal
                rec["status"] = "raised"
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = time.perf_counter() - start
        wall = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.remove()

    for op, rec in zip(ops, records):
        if rec["status"] != "ok":
            continue
        try:
            op.check(done[op.name], done)
        except Exception as exc:  # GateError, or an output too broken to check
            rec["status"] = "gate"
            rec["error"] = f"{type(exc).__name__}: {exc}"
    good = [(op, done[op.name]) for op, rec in zip(ops, records)
            if rec["status"] == "ok"]
    states = [result[1] for op, result in good if op.optimizer]
    summary = {
        "traced": tracer is not None,
        "wall_s": wall,
        "records": records,
        "degree_sum": sum(op.degrees(result) for op, result in good
                          if op.degrees is not None),
        "iterations": sum(s.iteration for s in states),
        "restarts": sum(s.restarts for s in states),
    }
    if tracer is not None:
        attempts = 0
        for path in logs:
            if path is not None and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    attempts += spans.count_attempts(fh.read())
        tracer.counters.update(workload.counts)
        summary["spans"] = tracer.spans
        summary["layers"] = spans.layer_metrics(
            tracer, wall, summary["iterations"], summary["restarts"],
            attempts, len(states))
    return summary


def measure(workload, args, workdir) -> dict:
    """Closed loop of passes for about ``args.seconds``; with tracing, each
    untraced pass is followed by a traced one."""
    import spans

    passes = []
    begin = time.monotonic()
    rounds = 0
    while True:
        passes.append(run_pass(workload, args.deadline))
        if args.trace:
            log_dir = os.path.join(workdir, f"logs{len(passes)}")
            os.makedirs(log_dir)
            passes.append(run_pass(workload, args.deadline, spans.Tracer(),
                                   log_dir))
        rounds += 1
        now = time.monotonic()
        per_round = (now - begin) / rounds
        # stop at the round boundary nearest to --seconds, or before the
        # next round could run into the deadline
        if (now - begin + per_round / 2 >= args.seconds
                or now + per_round > args.deadline):
            break

    records = [rec for p in passes for rec in p["records"]]
    failures = [rec for rec in records if rec["status"] != "ok"]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "ops": [rec["op"] for rec in passes[0]["records"]],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "degree_sum",
                                      "iterations", "restarts")}
                   | {"op_seconds": [rec["seconds"] for rec in p["records"]]}
                   for p in passes],
    }
    if not args.trace:
        result["metrics"] = {
            "wall_s": statistics.median(untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_degree_sum": min(p["degree_sum"] for p in passes),
        }
        return result
    traced = sorted((p for p in passes if p["traced"]),
                    key=lambda p: p["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["bench.trace_overhead_s"] = (chosen["wall_s"]
                                         - statistics.median(untraced))
    result["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": chosen["spans"]}, fh)
    result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import nestquad
    import_s = time.perf_counter() - start
    if not os.path.abspath(nestquad.__file__).startswith(SRC + os.sep):
        print(f"nestquad imported from {nestquad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        spec = (workloads.SMOKE if args.smoke else workloads.SPECS)[
            args.workload]
        workload = workloads.setup(args.workload, spec, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            result.update(measure(workload, args, workdir))
            result["env"] = environment(args.seed)
            if args.trace:
                result["metrics"]["setup.import_s"] = import_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
