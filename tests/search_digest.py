"""Bitwise digest of the degree search, for before/after comparisons.

Runs every op of the benchmark's ``optimizer`` workload, the Legendre
Patterson chain 1 -> 3 -> ... -> 63, whose last step certifies
Patterson's degree 95 only through the steps of its odd probe on a
symmetric weight, the generalized-Hermite (rho = 1) chain
1 -> 3 -> 7 -> 15 and two searches that end in ConvergenceError, one by
the iteration budget, cut to one degree's worth, and one below the
minimal degree.  Last come two extensions of Simpson's rule whose right
node sits 1e-13 and 5e-12 past the domain, within the slack that
``QuadratureRule`` admits.  It prints one line per op: a sha256 of the node and
weight bytes, the subset map, the certified degrees, the iteration and
restart counts and a sha256 of the ``--log`` CSV (for an error, its
message and best residual instead of the rule).
Each line ends with the op's degree attempts, from ``state.attempts`` or
the error's ``attempts``: one (alpha2, outcome, steps) per degree tried,
degrees without a seed included, so a diff shows at which degrees the
search moved.  The last line is ``total iterations N``, the steps of all
ops, errors included.  Two trees run the same search exactly when their
outputs are equal:

    PYTHONPATH=src python tests/search_digest.py > after.txt

The script runs the tree it sits in; to digest an older tree, copy it
and ``script_support.py`` into that tree's ``tests`` and run it there.

BLAS is pinned to one thread (``script_support``).  The full run takes
about half a second on a 2-CPU x86 host.  pytest does not collect this
file.
"""

# first: pins BLAS before numpy loads and puts this tree's src on the path
from script_support import sha as _sha

import itertools
import os
import tempfile
from unittest import mock

import numpy as np

import nestquad as nq
from nestquad import nested_optimizer
from nestquad.errors import ConvergenceError


def _csv_digest(path) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _line(name, rules, subset, state, log_path):
    """(the op's line, its attempts)."""
    arrays = b"".join(r.nodes.tobytes() + r.weights.tobytes() for r in rules)
    degrees = tuple(r.exactness_degree for r in rules)
    return (f"{name}: nodes {_sha(arrays)} subset {subset} degrees {degrees} "
            f"iterations {state.iteration} restarts {state.restarts} "
            f"csv {_csv_digest(log_path)} attempts {state.attempts}",
            state.attempts)


def _chain(family, steps, log):
    table = nq.recurrence_coefficients(family, 4 * (2 ** (steps + 1) - 1) + 8)
    rule = nq.gauss_rule(table, 1)
    for _ in range(steps):
        name = f"extend {family.label()} {rule.n}->{2 * rule.n + 1}"
        rule, state = nq.extend_patterson(rule, table, log_path=log)
        yield _line(name, [rule], None, state, log)


def _pair(family, n1, log):
    table = nq.recurrence_coefficients(family, 4 * n1 + 10)
    pair, state = nq.generate_nested(n1, table, log_path=log)
    yield _line(f"pair {family.label()} n1={n1}", [pair.coarse, pair.fine],
                pair.subset_map, state, log)


def _error_line(name, exc, log):
    """(the failed op's line, its attempts)."""
    return (f"{name}: ConvergenceError {exc} "
            f"best_residual {exc.best_residual!r} csv {_csv_digest(log)} "
            f"attempts {exc.attempts}", exc.attempts)


def _failure(name, n, config, log):
    """An extension of the generalized-Laguerre (rho = 0) Gauss-n rule
    that must fail: one step per start certifies no degree."""
    table = nq.recurrence_coefficients(nq.generalized_laguerre(0.0), 70)
    try:
        nq.extend_patterson(nq.gauss_rule(table, n), table, config,
                            log_path=log)
    except ConvergenceError as exc:
        yield _error_line(name, exc, log)
    else:
        yield f"{name}: no error", []


def _simpson(excess, log):
    """The extension of Simpson's rule with its right node at 1 + excess,
    on a Legendre table through degree 40."""
    table = nq.recurrence_coefficients(nq.legendre(), 40)
    nodes = np.array([-1.0, 0.0, 1.0 + excess])
    weights = np.array([1 / 6, 2 / 3, 1 / 6])
    residual = nq.moment_residuals(nodes, weights, table, 3)
    base = nq.QuadratureRule(nq.legendre(), nodes, weights, 3,
                             float(np.linalg.norm(residual)))
    name = f"extend simpson 1+{excess:g} 3->7"
    try:
        rule, state = nq.extend_patterson(base, table, log_path=log)
    except ConvergenceError as exc:
        yield _error_line(name, exc, log)
    else:
        yield _line(name, [rule], None, state, log)


def _budget_failure(name, n, config, log):
    """``_failure`` with the whole-search budget cut to ``max_iterations``
    steps, which the first degree with a seed spends."""
    with mock.patch.object(nested_optimizer, "_BUDGET_DEGREES", 1):
        yield from _failure(name, n, config, log)


def main() -> None:
    with tempfile.TemporaryDirectory() as log_dir:
        log = os.path.join(log_dir, "search.csv")
        lines = itertools.chain(
            _chain(nq.chebyshev1(), 3, log),
            _chain(nq.jacobi(0.0, 0.3), 3, log),
            _pair(nq.generalized_hermite(1.0), 8, log),
            _pair(nq.chebyshev1(), 7, log),
            _pair(nq.legendre(), 100, log),
            _pair(nq.jacobi(0.0, 0.3), 60, log),
            _chain(nq.legendre(), 5, log),
            _chain(nq.generalized_hermite(1.0), 3, log),
            _budget_failure("extend generalized_laguerre(0.0) 15->31 budget",
                            15, nq.OptimizerConfig(max_iterations=1,
                                                   alpha2_initial=61), log),
            _failure("extend generalized_laguerre(0.0) 7->15 floor", 7,
                     nq.OptimizerConfig(max_iterations=1), log),
            _simpson(1e-13, log),
            _simpson(5e-12, log),
        )
        total = 0
        for line, attempts in lines:
            print(line, flush=True)
            total += sum(steps for *_, steps in attempts)
        print(f"total iterations {total}")


if __name__ == "__main__":
    main()
