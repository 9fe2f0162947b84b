"""The benchmark's calls into the package keep working.

Runs each small workload of ``bench/workloads.py`` once: its set-up, then
every op in order, then every op's gate check, all sharing one ``done``
dict as a benchmark pass does.  A change to a public signature, keyword or
attribute the benchmark uses fails here, in the tier-1 suite.
"""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload_ops_pass_their_gates(name, tmp_path):
    workload = workloads.setup(name, workloads.SMOKE[name], seed=1,
                               workdir=str(tmp_path))
    ops = [op for task in workload.tasks for op in task]
    done = {}
    for op in ops:
        done[op.name] = op.run(done, None)
    for op in ops:
        op.check(done[op.name], done)
