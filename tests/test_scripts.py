"""The manual scripts under ``tests`` still run against this tree.

pytest collects none of them, so a change to an API they call would pass
the rest of the suite unnoticed.  Each runs here in a subprocess with BLAS
pinned to one thread, once, as fast as it goes: it must exit 0 and end in
its documented last lines.
"""

import os
import re
import subprocess
import sys

import pytest

_TESTS = os.path.dirname(os.path.abspath(__file__))
_TIMING_END = (r"set-up +\d+\.\d{3} ms" "\n"
               r"pass median \d+\.\d{3} ms over \d+ passes; iterations \d+ "
               r"restarts \d+ degree sum \d+")


@pytest.mark.parametrize("script, args, last", [
    ("search_digest.py", [], r"total iterations \d+"),
    ("family_sweep.py", [], r"total iterations \d+"),
    ("cli_digest.py", [], r"  error: \S+: .+"),
    ("op_timing.py", ["--seconds", "0"], _TIMING_END),
    ("op_timing.py", ["--seconds", "0", "--workload", "grid"], _TIMING_END),
], ids=["search_digest", "family_sweep", "cli_digest", "op_timing-optimizer",
        "op_timing-grid"])
def test_script_runs(script, args, last):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, os.path.join(_TESTS, script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(last, "\n".join(lines[-1 - last.count("\n"):]))


def test_family_sweep_counts_a_failed_ops_steps():
    # total iterations must add up the per-outcome step lines, which count
    # the attempts of an op that raised too
    code = (
        "import family_sweep\n"
        "from nestquad.errors import ConvergenceError\n"
        "attempts = [(9, 'stall', 7), (8, 'plateau', 3)]\n"
        "def fail():\n"
        "    raise ConvergenceError('no degree certified', 0.5, attempts)\n"
        "print(family_sweep._timed('op', fail)[1:])\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=_TESTS,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    op, counted = done.stdout.splitlines()
    assert re.fullmatch(r"op: ConvergenceError: no degree certified "
                        r"seconds \d+\.\d\d", op)
    assert counted == "(10, [(9, 'stall', 7), (8, 'plateau', 3)])"
