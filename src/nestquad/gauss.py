"""Gauss rules from recurrence tables, plus rule verification diagnostics.

The n-point Gauss rule of a weight function is recovered from the symmetric
tridiagonal Jacobi matrix built out of the recurrence coefficients: nodes
are its eigenvalues, weights are b_0 times the squared first components of
the normalized eigenvectors.  An n-point Gauss rule integrates polynomials
through degree 2n - 1.

Verification is moment-based: a rule exact through degree alpha must
reproduce the orthonormal moments, i.e. sum_q p_j(x_q) w_q = sqrt(b_0) for
j = 0 and 0 for 1 <= j <= alpha.  The norm of their residual vector is the
certificate every rule carries: ``certified_rule`` computes it and
``recheck`` re-checks a stored one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    NumericalError,
    ParameterError,
    UnsupportedFamilyError,
)
from .orthopoly import (
    RecurrenceTable,
    WeightFamily,
    eval_orthonormal,
    recurrence_coefficients,
    weight_density,
)

__all__ = [
    "QuadratureRule",
    "MomentReport",
    "certified_rule",
    "gauss_rule",
    "moment_residuals",
    "recheck",
    "verify_rule",
    "circle_theorem_deviation",
]

# Slack for optimizer-produced nodes that land on a domain endpoint; the
# eigensolver itself keeps Gauss nodes strictly interior.
_BOUNDARY_TOL = 1e-9
# The circle theorem's deviation is taken over |x| <= this: convergence is
# not uniform in the boundary layer at +-1.
_CIRCLE_BAND = 0.9


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable quadrature rule with its exactness certificate.

    ``exactness_degree`` is the highest polynomial degree the rule is
    certified for and ``residual_norm`` the 2-norm of the orthonormal-moment
    residuals through that degree at certification time.  Weights must be
    positive unless ``weight_floor_relaxed`` is set.
    """

    family: WeightFamily
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    residual_norm: float
    weight_floor_relaxed: bool = field(default=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ParameterError("nodes and weights must be equal-length 1-d")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ParameterError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ParameterError("nodes must be strictly ascending")
        dom = self.family.domain
        if not dom.contains(nodes, tol=_BOUNDARY_TOL):
            raise ParameterError("nodes fall outside the weight's domain")
        if not self.weight_floor_relaxed and np.any(weights <= 0.0):
            raise ParameterError("weights must be positive")
        if abs(float(weights.sum()) - self.family.mass) > 1e-12:
            raise ParameterError(
                f"weights sum to {weights.sum()!r}, expected {self.family.mass}")
        if self.exactness_degree < 0:
            raise ParameterError("exactness degree must be nonnegative")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class MomentReport:
    """Per-degree orthonormal-moment residuals r_0..r_alpha and their norm."""

    residuals: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.residuals))

    @property
    def degree(self) -> int:
        return self.residuals.size - 1


def _gauss_nodes(table: RecurrenceTable, n: int) -> np.ndarray:
    """Ascending nodes of the n-point Gauss rule: the eigenvalues of the
    Jacobi matrix, built from a_0..a_{n-1}, b_1..b_{n-1}."""
    if n < 1:
        raise ParameterError("rule size must be at least 1")
    if table.capacity < n - 1:
        raise CapacityError(
            f"table capacity {table.capacity} too small for {n}-point rule")
    off = np.sqrt(table.b[1:n])
    jacobi_matrix = np.diag(table.a[:n]) + np.diag(off, 1) + np.diag(off, -1)
    try:
        return np.linalg.eigvalsh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"Jacobi-matrix eigensolver failed: {exc}") from exc


def _gauss_weights(table: RecurrenceTable, nodes) -> np.ndarray:
    """Weights of the Gauss rule with these nodes, by the Christoffel
    identity 1 / sum_j p_j(x_i)^2; unlike the squared first eigenvector
    components this keeps tiny tail weights (Laguerre, Hermite) at full
    relative precision."""
    return _christoffel_weights(
        eval_orthonormal(table, nodes.size - 1, nodes))


def _christoffel_weights(values: np.ndarray) -> np.ndarray:
    """1 / sum_j p_j(x_i)^2 over the rows p_0..p_{n-1} of ``values``: the
    Gauss weights when its n columns are the Gauss-n nodes."""
    return 1.0 / np.einsum("ji,ji->i", values, values)


def gauss_rule(table: RecurrenceTable, n: int) -> QuadratureRule:
    """Build the n-point Gauss rule of the table's family.

    The nodes need the table through degree n - 1 and the certificate
    through degree 2n - 1; a table that holds the nodes but not the
    certificate is rebuilt from its family, which raises CapacityError for
    a custom family with too few coefficients.
    """
    nodes = _gauss_nodes(table, n)
    degree = 2 * n - 1
    if table.capacity < degree:
        table = recurrence_coefficients(table.family, degree)
    return certified_rule(table, nodes, _gauss_weights(table, nodes), degree)


def certified_rule(table: RecurrenceTable, nodes, weights, degree: int,
                   relaxed: bool = False) -> QuadratureRule:
    """The rule of the table's family with these nodes and weights,
    certified through ``degree``: it carries the 2-norm of its moment
    residuals against ``table``.  ``relaxed`` admits nonpositive weights.
    """
    residuals = moment_residuals(nodes, weights, table, degree)
    return QuadratureRule(table.family, nodes, weights, degree,
                          float(np.linalg.norm(residuals)),
                          weight_floor_relaxed=relaxed)


def moment_residuals(nodes, weights, table: RecurrenceTable,
                     degree: int) -> np.ndarray:
    """Residuals of the orthonormal moment conditions for raw arrays.

    r_j = sum_q p_j(x_q) w_q - sqrt(b_0) delta_{j0}, j = 0..degree.
    """
    V = eval_orthonormal(table, degree, nodes)
    r = V @ np.asarray(weights, dtype=float)
    r[0] -= np.sqrt(table.b[0])
    return r


def verify_rule(rule: QuadratureRule, table: RecurrenceTable,
                degree: int | None = None) -> MomentReport:
    """Recompute the moment residuals of a rule through ``degree``, by
    default its certified exactness degree."""
    if degree is None:
        degree = rule.exactness_degree
    if degree < 0:
        raise ParameterError("degree must be nonnegative")
    return MomentReport(moment_residuals(rule.nodes, rule.weights, table,
                                         degree))


def recheck(table: RecurrenceTable, nodes, weights, degree: int,
            stored: float):
    """Re-check a certificate that claims the norm ``stored``: the fresh
    moment residuals through ``degree``, their norm and the largest norm
    the check allows, as (residuals, norm, allowed).  It passes when norm
    <= allowed = 10 (stored + 1e-16): the factor and the floor absorb the
    rounding of a rebuilt table, not an order-of-magnitude breach."""
    residuals = moment_residuals(nodes, weights, table, degree)
    return (residuals, float(np.linalg.norm(residuals)),
            10.0 * (stored + 1e-16))


def circle_theorem_deviation(rule: QuadratureRule) -> float:
    """Deviation of scaled weights from the circle-theorem semicircle.

    For Jacobi-type weights on [-1, 1] the products n * w_q / (pi * w(x_q)),
    w the family's ``weight_density``, approach sqrt(1 - x_q^2) as n grows.
    Returns the maximum deviation over nodes with |x| <= ``_CIRCLE_BAND``.
    """
    dom = rule.family.domain
    if not (dom.lo == -1.0 and dom.hi == 1.0):
        raise UnsupportedFamilyError(
            "circle theorem applies to weights on [-1, 1] only")
    density = weight_density(rule.family)
    mask = np.abs(rule.nodes) <= _CIRCLE_BAND
    if not np.any(mask):
        raise ParameterError("no nodes inside the interior band")
    x = rule.nodes[mask]
    w = rule.weights[mask]
    scaled = rule.n * w / (np.pi * density(x))
    return float(np.max(np.abs(scaled - np.sqrt(1.0 - x * x))))
