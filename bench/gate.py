"""Correctness gate of the benchmark, run outside the timed section.

Certificates are re-verified with this file's own three-term recurrence on
a freshly built coefficient table, so the check does not reuse the
package's verification code.
"""

from __future__ import annotations

import math

import numpy as np

import nestquad as nq

# A certified rule must reproduce its moments to ten times the optimizer's
# default tolerance, and to ten times the residual it claims (plus a floor
# for summation-order rounding).
CERT_TOL = 10.0 * nq.OptimizerConfig().epsilon
# Smolyak grids of exactness 2k-1 integrate the smooth test integrand to
# far better than this; a wrong merge or weight misses it by orders.
ESTIMATE_RTOL = 1e-6


class GateError(Exception):
    """An output of the program is wrong."""


def fresh_residual(rule, degree: int) -> float:
    """2-norm of the orthonormal moment residuals r_0..r_degree."""
    table = nq.recurrence_coefficients(rule.family, degree)
    a, sqrt_b = table.a, np.sqrt(table.b)
    x = np.asarray(rule.nodes, dtype=float)
    w = np.asarray(rule.weights, dtype=float)
    prev = np.zeros_like(x)
    cur = np.full_like(x, 1.0 / sqrt_b[0])
    r = np.empty(degree + 1)
    r[0] = cur @ w - sqrt_b[0]
    for m in range(degree):
        nxt = ((x - a[m]) * cur - sqrt_b[m] * prev) / sqrt_b[m + 1]
        prev, cur = cur, nxt
        r[m + 1] = cur @ w
    return float(np.linalg.norm(r))


def check_rule(rule):
    """Certificate re-verifies, nodes ascend and weights are positive."""
    x, w = np.asarray(rule.nodes), np.asarray(rule.weights)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise GateError("non-finite nodes or weights")
    if np.any(np.diff(x) <= 0.0):
        raise GateError("nodes are not strictly ascending")
    if np.any(w <= 0.0):
        raise GateError("a weight is not positive")
    norm = fresh_residual(rule, rule.exactness_degree)
    allowed = min(CERT_TOL, 10.0 * rule.residual_norm + 1e-14)
    if not norm <= allowed:
        raise GateError(
            f"{rule.n}-point rule fails degree {rule.exactness_degree}: "
            f"fresh residual {norm:.3e} > {allowed:.3e}")


def check_nested(inner, outer):
    """Every node of ``inner`` is bit-exactly a node of ``outer``."""
    if not set(np.asarray(inner.nodes).tolist()) <= set(
            np.asarray(outer.nodes).tolist()):
        raise GateError(f"{inner.n}-point rule is not nested in the "
                        f"{outer.n}-point rule")


def check_pair(pair):
    check_rule(pair.coarse)
    check_rule(pair.fine)
    if not np.array_equal(pair.fine.nodes[list(pair.subset_map)],
                          pair.coarse.nodes):
        raise GateError("coarse nodes are not fine nodes bit-exactly")


def check_grid(grid, expected_nodes: int):
    """Exact node count, distinct finite nodes, weights summing to one."""
    nodes, weights = np.asarray(grid.nodes), np.asarray(grid.weights)
    if nodes.shape[0] != expected_nodes or weights.size != expected_nodes:
        raise GateError(
            f"grid has {nodes.shape[0]} nodes, expected {expected_nodes}")
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise GateError("grid holds non-finite values")
    if np.unique(nodes, axis=0).shape[0] != expected_nodes:
        raise GateError("grid nodes are not distinct")
    if abs(math.fsum(weights.tolist()) - 1.0) > 1e-10:
        raise GateError("grid weights do not sum to one")


def product_exponential_truth(coeffs) -> float:
    """Integral of exp(c . x) under the uniform density on [-1, 1]^d."""
    return math.prod(math.sinh(c) / c for c in coeffs)


def check_estimate(value: float, coeffs):
    truth = product_exponential_truth(coeffs)
    if not abs(value - truth) <= ESTIMATE_RTOL * abs(truth):
        raise GateError(f"estimate {value!r} misses closed form {truth!r}")
