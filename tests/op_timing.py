"""Per-op wall times of one benchmark workload, for before/after comparisons.

Sets up one workload of this tree's ``bench/workloads.py`` (``optimizer``
by default, or ``grid``) and runs all its ops, in the workload's order, in
a closed loop of passes for about ``--seconds``.  It prints one line per
op: the median seconds over the passes and, for an optimizer op, its
Gauss-Newton iterations in one pass, so that a change in time can be told
from a change in the search.  Then come a ``set-up`` line with the
seconds of the one ``workloads.setup`` call and the pass median, the
iterations and restarts of one pass and its certified degree sum.  The
benchmark reports the pass median, and a ``setup_s`` that adds the
worker's start and imports to that set-up; this script shows which ops
moved the one and sizes the other without a full benchmark run.  Compare
two trees by running each in turn, several times in alternation, pinned
to one CPU:

    PYTHONPATH=src taskset -c 1 python tests/op_timing.py --seconds 4

The script runs the tree it sits in, with that tree's ``bench``; to time
an older tree, copy it and ``script_support.py`` into that tree's
``tests`` and run it there.  It only reads ``bench``; nothing there is
changed.

BLAS is pinned to one thread, as in the benchmark (``script_support``).
pytest does not collect this file.
"""

# first: pins BLAS before numpy loads and puts this tree's src and bench on
# the path
import script_support  # noqa: F401

import argparse
import statistics
import sys
import tempfile
import time

import workloads


def _pass(ops):
    """Run every op once; returns (per-op seconds, pass seconds, results)."""
    done, seconds = {}, []
    begin = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        done[op.name] = op.run(done, None)
        seconds.append(time.perf_counter() - start)
    return seconds, time.perf_counter() - begin, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        default="optimizer")
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as workdir:
        start = time.perf_counter()
        workload = workloads.setup(args.workload,
                                   workloads.SPECS[args.workload], args.seed,
                                   workdir)
        setup = time.perf_counter() - start
        ops = [op for task in workload.tasks for op in task]
        per_op, passes = [[] for _ in ops], []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            seconds, wall, done = _pass(ops)
            for column, s in zip(per_op, seconds):
                column.append(s)
            passes.append(wall)
        for op in ops:
            op.check(done[op.name], done)

    width = max(len(op.name) for op in ops)
    for op, column in zip(ops, per_op):
        iterations = (f"  {done[op.name][1].iteration:6d} iterations"
                      if op.optimizer else "")
        print(f"{op.name:<{width}}  {statistics.median(column) * 1e3:9.3f} ms"
              f"{iterations}")
    print(f"{'set-up':<{width}}  {setup * 1e3:9.3f} ms")
    states = [done[op.name][1] for op in ops if op.optimizer]
    degrees = sum(op.degrees(done[op.name]) for op in ops
                  if op.degrees is not None)
    print(f"pass median {statistics.median(passes) * 1e3:.3f} ms over "
          f"{len(passes)} passes; iterations "
          f"{sum(s.iteration for s in states)} restarts "
          f"{sum(s.restarts for s in states)} degree sum {degrees}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
