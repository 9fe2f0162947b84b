"""Certified degrees of pairs and Patterson chains across the weight families.

For each of nine weight families, runs ``generate_nested`` for n1 = 1..10
(table through degree 4 n1 + 10) and a Patterson chain from the Gauss-1
rule (table through degree 132): four extensions for legendre, chebyshev1
and jacobi(0,0.3), three for the others.  A chain stops at its first
error.  Prints one line per op: a sha256 of its node and weight bytes,
its certified degrees, its iteration count and its wall time, or the
error it raised.  Then, from the ops' ``state.attempts`` (or a
ConvergenceError's ``attempts``), one line per attempt outcome: how
many degree attempts ended so and their steps.  The last line is
``total iterations N``, the steps of all ops, errors included.  Two trees
find the same rules at the same cost when their outputs agree up to the
seconds column:

    PYTHONPATH=src python tests/family_sweep.py > after.txt

The script runs the tree it sits in; to sweep an older tree, copy it and
``script_support.py`` into that tree's ``tests`` and run it there.

BLAS is pinned to one thread (``script_support``).  The full run takes
about two seconds on a 2-CPU x86 host.  pytest does not collect this
file.
"""

# first: pins BLAS before numpy loads and puts this tree's src on the path
from script_support import sha

import collections
import time

import nestquad as nq
from nestquad.errors import NestQuadError

# (family, Patterson steps from Gauss-1)
FAMILIES = [
    (nq.legendre(), 4),
    (nq.chebyshev1(), 4),
    (nq.jacobi(0.0, 0.3), 4),
    (nq.jacobi(1.0, -0.5), 3),
    (nq.jacobi(2.0, 2.0), 3),
    (nq.generalized_hermite(0.0), 3),
    (nq.generalized_hermite(1.0), 3),
    (nq.generalized_laguerre(0.0), 3),
    (nq.generalized_laguerre(1.5), 3),
]
PAIR_N1 = range(1, 11)
CHAIN_CAPACITY = 132
# the outcomes of OptimizerState.attempts, in the order printed
OUTCOMES = ("certified", "infeasible", "diverged", "stall", "plateau",
            "budget", "no seed", "overdetermined", "search budget")


def _timed(name, run):
    """Print ``name``, then the op's result or error, with its seconds;
    returns the result, its iteration count and its attempts, or None,
    the steps of the error's attempts and those attempts after an
    error."""
    start = time.perf_counter()
    try:
        result, rules, state = run()
    except NestQuadError as exc:
        outcome, result = f"{type(exc).__name__}: {exc}", None
        attempts = getattr(exc, "attempts", [])
        iterations = sum(steps for *_, steps in attempts)
    else:
        iterations, attempts = state.iteration, state.attempts
        arrays = b"".join(r.nodes.tobytes() + r.weights.tobytes()
                          for r in rules)
        outcome = (f"nodes {sha(arrays)} "
                   f"degrees {tuple(r.exactness_degree for r in rules)} "
                   f"iterations {state.iteration}")
    print(f"{name}: {outcome} seconds {time.perf_counter() - start:.2f}",
          flush=True)
    return result, iterations, attempts


def _pair(family, n1):
    table = nq.recurrence_coefficients(family, 4 * n1 + 10)
    pair, state = nq.generate_nested(n1, table)
    return pair, [pair.coarse, pair.fine], state


def _extend(rule, table):
    rule, state = nq.extend_patterson(rule, table)
    return rule, [rule], state


def main() -> None:
    total, attempts = 0, []
    for family, steps in FAMILIES:
        label = family.label()
        for n1 in PAIR_N1:
            _, iterations, tried = _timed(f"pair {label} n1={n1}",
                                          lambda: _pair(family, n1))
            total += iterations
            attempts += tried
        table = nq.recurrence_coefficients(family, CHAIN_CAPACITY)
        rule = nq.gauss_rule(table, 1)
        for _ in range(steps):
            name = f"extend {label} {rule.n}->{2 * rule.n + 1}"
            rule, iterations, tried = _timed(name,
                                             lambda: _extend(rule, table))
            total += iterations
            attempts += tried
            if rule is None:
                break
    counts, spent = collections.Counter(), collections.Counter()
    for _, outcome, steps in attempts:
        counts[outcome] += 1
        spent[outcome] += steps
    # an outcome missing from OUTCOMES is printed after them, sorted
    for outcome in (*OUTCOMES, *sorted(set(counts) - set(OUTCOMES))):
        print(f"{outcome}: {counts[outcome]} attempts, "
              f"{spent[outcome]} steps")
    print(f"total iterations {total}")


if __name__ == "__main__":
    main()
