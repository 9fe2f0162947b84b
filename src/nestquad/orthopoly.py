"""Orthonormal polynomial recurrences for quadrature weight functions.

Every weight function w(x) on a domain Gamma with finite moments carries a
family of orthonormal polynomials p_0, p_1, ... satisfying the three-term
recurrence

    x p_n(x) = sqrt(b_n) p_{n-1}(x) + a_n p_n(x) + sqrt(b_{n+1}) p_{n+1}(x)

with p_{-1} = 0 and p_0 = 1/sqrt(b_0).  All built-in families are normalized
to unit mass (b_0 = 1, so integral of w over Gamma is 1 and p_0 = 1); this
makes the zeroth moment condition of a quadrature rule read "weights sum to
one".  Differentiating the recurrence gives

    sqrt(b_{m+1}) p'_{m+1}(x) = (x - a_m) p'_m(x) - sqrt(b_m) p'_{m-1}(x) + p_m(x)

which one pass evaluates beside the values, on request: each row
carries p_j and p'_j side by side and shares its products between them.
Evaluations are plain arrays of shape (degree + 1, len(x)): row j holds
p_j (or p'_j) at every node; a pass with derivatives returns
(degree + 1, 2 len(x)), values in the first half of each row.

Coefficients for the built-in families are classical closed forms; custom
families pass user-supplied coefficient arrays through unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError, UnsupportedFamilyError

__all__ = [
    "Domain",
    "WeightFamily",
    "RecurrenceTable",
    "legendre",
    "chebyshev1",
    "jacobi",
    "generalized_hermite",
    "generalized_laguerre",
    "custom_family",
    "recurrence_coefficients",
    "eval_orthonormal",
    "weight_density",
]

LEGENDRE = "legendre"
CHEBYSHEV1 = "chebyshev1"
JACOBI = "jacobi"
GENERALIZED_HERMITE = "generalized_hermite"
GENERALIZED_LAGUERRE = "generalized_laguerre"
CUSTOM = "custom"

# number of shape parameters per kind; every one is an exponent of the
# weight, finite and greater than -1
_PARAM_COUNT = {LEGENDRE: 0, CHEBYSHEV1: 0, JACOBI: 2, GENERALIZED_HERMITE: 1,
                GENERALIZED_LAGUERRE: 1, CUSTOM: 0}


@dataclass(frozen=True)
class Domain:
    """Support of a weight function: a closed interval, possibly unbounded."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterError(f"empty domain [{self.lo}, {self.hi}]")

    @property
    def bounded_below(self) -> bool:
        return math.isfinite(self.lo)

    @property
    def bounded_above(self) -> bool:
        return math.isfinite(self.hi)

    @property
    def bounded(self) -> bool:
        return self.bounded_below and self.bounded_above

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class WeightFamily:
    """A weight function identified by kind and shape parameters.

    Use the factory helpers (``legendre()``, ``jacobi(a, b)``, ...) rather
    than constructing instances directly.  ``params`` holds the shape
    parameters in a fixed order per kind; custom families carry their
    recurrence coefficients and domain explicitly.
    """

    kind: str
    params: tuple = ()
    custom_a: tuple = field(default=(), repr=False)
    custom_b: tuple = field(default=(), repr=False)
    custom_domain: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind not in _PARAM_COUNT:
            raise UnsupportedFamilyError(f"unknown family kind {self.kind!r}")
        count = _PARAM_COUNT[self.kind]
        if len(self.params) != count:
            raise ParameterError(
                f"{self.kind} takes {count} parameters, got {self.params}")
        if not all(math.isfinite(p) and p > -1 for p in self.params):
            raise ParameterError(
                f"{self.kind} exponents must be finite and exceed -1, "
                f"got {self.params}")
        if self.kind == CUSTOM:
            if len(self.custom_a) != len(self.custom_b) or not self.custom_b:
                raise ParameterError(
                    "custom family needs equal-length a and b arrays")
            if self.custom_b[0] <= 0 or any(b <= 0 for b in self.custom_b[1:]):
                raise ParameterError("custom b coefficients must be positive")
            if not all(math.isfinite(v) for v in self.custom_a + self.custom_b):
                raise ParameterError("custom coefficients must be finite")
            Domain(*self.custom_domain)

    @property
    def domain(self) -> Domain:
        if self.kind in (LEGENDRE, CHEBYSHEV1, JACOBI):
            return Domain(-1.0, 1.0)
        if self.kind == GENERALIZED_HERMITE:
            return Domain(-math.inf, math.inf)
        if self.kind == GENERALIZED_LAGUERRE:
            return Domain(0.0, math.inf)
        return Domain(*self.custom_domain)

    @property
    def symmetric(self) -> bool:
        """True when the weight is even about 0 (all a_n vanish)."""
        if self.kind in (LEGENDRE, CHEBYSHEV1, GENERALIZED_HERMITE):
            return True
        if self.kind == JACOBI:
            return self.params[0] == self.params[1]
        if self.kind == CUSTOM:
            return all(a == 0.0 for a in self.custom_a)
        return False

    @property
    def mass(self) -> float:
        """Total integral of the weight (b_0); 1 for built-in families."""
        if self.kind == CUSTOM:
            return float(self.custom_b[0])
        return 1.0

    def label(self) -> str:
        if self.params:
            inner = ",".join(repr(p) for p in self.params)
            return f"{self.kind}({inner})"
        return self.kind


def legendre() -> WeightFamily:
    """Uniform weight 1/2 on [-1, 1]."""
    return WeightFamily(LEGENDRE)


def chebyshev1() -> WeightFamily:
    """Chebyshev weight of the first kind, 1/(pi sqrt(1-x^2)) on (-1, 1)."""
    return WeightFamily(CHEBYSHEV1)


def jacobi(alpha: float, beta: float) -> WeightFamily:
    """Jacobi weight proportional to (1-x)^alpha (1+x)^beta on [-1, 1]."""
    return WeightFamily(JACOBI, (float(alpha), float(beta)))


def generalized_hermite(rho: float = 0.0) -> WeightFamily:
    """Weight proportional to |x|^rho exp(-x^2) on the real line."""
    return WeightFamily(GENERALIZED_HERMITE, (float(rho),))


def generalized_laguerre(rho: float = 0.0) -> WeightFamily:
    """Weight proportional to x^rho exp(-x) on the half line [0, inf)."""
    return WeightFamily(GENERALIZED_LAGUERRE, (float(rho),))


def custom_family(a, b, domain: tuple) -> WeightFamily:
    """Family defined directly by recurrence coefficients.

    ``a`` and ``b`` are the orthonormal three-term coefficients (b[0] is the
    total mass of the weight) and ``domain`` the support interval, with
    +-inf allowed for unbounded sides.
    """
    return WeightFamily(
        CUSTOM,
        custom_a=tuple(float(v) for v in a),
        custom_b=tuple(float(v) for v in b),
        custom_domain=(float(domain[0]), float(domain[1])),
    )


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence coefficients a_0..a_N, b_0..b_N for one family.

    The capacity N bounds the polynomial degree that can be evaluated and
    the Gauss rule size that can be built from this table.
    """

    family: WeightFamily
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=float)
        b = np.ascontiguousarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 1 or a.size == 0:
            raise ParameterError("coefficient arrays must be equal-length 1-d")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ParameterError("recurrence coefficients must be finite")
        if b[0] <= 0 or np.any(b[1:] <= 0):
            raise ParameterError("b coefficients must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def capacity(self) -> int:
        """Largest index N with both a_N and b_N available."""
        return self.a.size - 1

    @functools.cached_property
    def _row_coefficients(self):
        """a_0..a_N, for each a_m whether it differs in bits from a_{m-1}
        (a_0 always does), and sqrt(b_0..b_N), as Python lists, which the
        row loop of a recurrence pass indexes faster than arrays.  Built
        once per table, at full capacity."""
        bits = self.a.view(np.int64)
        fresh = np.ones(self.a.size, dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
        return self.a.tolist(), fresh.tolist(), np.sqrt(self.b).tolist()

    def require(self, degree: int):
        if degree > self.capacity:
            raise CapacityError(
                f"table capacity {self.capacity} cannot reach degree {degree}")


def recurrence_coefficients(family: WeightFamily, n_coeffs: int) -> RecurrenceTable:
    """Build the recurrence table a_0..a_N, b_0..b_N with N = ``n_coeffs``.

    Built-in families use closed-form coefficients under probability
    normalization (b_0 = 1).  Custom families slice their stored arrays and
    raise CapacityError when those are too short.
    """
    if n_coeffs < 0:
        raise ParameterError("n_coeffs must be nonnegative")
    n = np.arange(n_coeffs + 1, dtype=float)
    kind = family.kind

    if kind == LEGENDRE:
        a = np.zeros(n_coeffs + 1)
        b = np.empty(n_coeffs + 1)
        b[0] = 1.0
        if n_coeffs >= 1:
            k = n[1:]
            b[1:] = k * k / (4.0 * k * k - 1.0)
    elif kind == CHEBYSHEV1:
        a = np.zeros(n_coeffs + 1)
        b = np.full(n_coeffs + 1, 0.25)
        b[0] = 1.0
        if n_coeffs >= 1:
            b[1] = 0.5
    elif kind == JACOBI:
        alpha, beta = family.params
        s = alpha + beta
        a = np.zeros(n_coeffs + 1)
        b = np.empty(n_coeffs + 1)
        b[0] = 1.0
        a[0] = (beta - alpha) / (s + 2.0)
        if n_coeffs >= 1:
            k = n[1:]
            a[1:] = (beta * beta - alpha * alpha) / ((2 * k + s) * (2 * k + s + 2))
            b[1] = 4.0 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
        if n_coeffs >= 2:
            k = n[2:]
            b[2:] = (4 * k * (k + alpha) * (k + beta) * (k + s)
                     / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
    elif kind == GENERALIZED_HERMITE:
        (rho,) = family.params
        a = np.zeros(n_coeffs + 1)
        b = n / 2.0
        b[1::2] += rho / 2.0
        b[0] = 1.0
    elif kind == GENERALIZED_LAGUERRE:
        (rho,) = family.params
        a = 2.0 * n + rho + 1.0
        b = n * (n + rho)
        b[0] = 1.0
    elif kind == CUSTOM:
        if n_coeffs + 1 > len(family.custom_a):
            raise CapacityError(
                f"custom family provides {len(family.custom_a)} coefficients, "
                f"need {n_coeffs + 1}")
        a = np.array(family.custom_a[:n_coeffs + 1])
        b = np.array(family.custom_b[:n_coeffs + 1])
    else:  # pragma: no cover - guarded by WeightFamily
        raise UnsupportedFamilyError(kind)

    return RecurrenceTable(family, a, b)


def _values(table: RecurrenceTable, degree: int, x: np.ndarray,
            head=None, derivatives: bool = False) -> np.ndarray:
    """p_0..p_degree at x by the three-term recurrence, in place: each row
    is ((x - a_m) p_m - sqrt(b_m) p_{m-1}) / sqrt(b_{m+1}), rounded
    operation by operation as written.  With ``derivatives`` the rows are
    2 len(x) wide and carry p'_j beside p_j, in columns [len(x):]: both
    halves share each row's products, the derivative half adding p_m
    before the division, so one pass costs five ufunc calls per row.
    x - a_m is formed only where a_m changes bits (once for the
    symmetric families, whose a_m all vanish).  Ufuncs write into
    preallocated rows through their positional out argument, which numpy
    parses faster than the keyword.  Given ``head``, the rows p_0..p_j of
    an earlier pass at the same x and width, the pass copies them and
    resumes after row j; a row depends only on the two before it, so
    every later row has the bits of a fresh pass."""
    a, fresh, sqrt_b = table._row_coefficients
    mul, sub, add, div = np.multiply, np.subtract, np.add, np.divide
    n = x.size
    p = np.empty((degree + 1, 2 * n if derivatives else n))
    if head is None:
        start = 0
        p[0, :n] = 1.0 / sqrt_b[0]
        p[0, n:] = 0.0
    else:
        start = head.shape[0] - 1
        p[:start + 1] = head
    # a copy: x - a_m was never formed in this pass before row start
    fresh = fresh[:degree]
    if start < degree:
        fresh[start] = True
    rows = list(p)
    if derivatives:
        values, slopes = list(p[:, :n]), list(p[:, n:])
    xa, tmp = np.empty(p.shape[1]), np.empty(p.shape[1])
    xa_values, xa_slopes = xa[:n], xa[n:]
    for m in range(start, degree):
        if fresh[m]:
            sub(x, a[m], xa_values)
            if derivatives:
                xa_slopes[...] = xa_values
        row = rows[m + 1]
        mul(xa, rows[m], row)
        if m:
            mul(rows[m - 1], sqrt_b[m], tmp)
            sub(row, tmp, row)
            if derivatives:
                add(slopes[m + 1], values[m], slopes[m + 1])
        elif derivatives:
            # p'_0 = 0, so sqrt(b_1) p'_1 = p_0, whatever x
            slopes[1][...] = values[0]
        div(row, sqrt_b[m + 1], row)
    return p


def eval_orthonormal(table: RecurrenceTable, degree: int, x) -> np.ndarray:
    """Evaluate p_0..p_degree at nodes x, as the array of shape
    (degree + 1, len(x)) whose row j holds p_j.

    Runs the three-term recurrence forward, which is stable on the support
    of the weight.
    """
    if degree < 0:
        raise ParameterError("degree must be nonnegative")
    table.require(degree)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ParameterError("nodes must be one-dimensional")
    return _values(table, degree, x)


def weight_density(family: WeightFamily):
    """Return the normalized density w(x) of a built-in family as a callable.

    Custom families carry no closed-form density, so they are rejected.
    """
    kind = family.kind
    if kind == LEGENDRE:
        return lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
    if kind == CHEBYSHEV1:
        return lambda x: 1.0 / (np.pi * np.sqrt(1.0 - np.asarray(x, float) ** 2))
    if kind == JACOBI:
        alpha, beta = family.params
        lognorm = ((alpha + beta + 1.0) * math.log(2.0)
                   + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                   - math.lgamma(alpha + beta + 2.0))
        norm = math.exp(lognorm)

        def jacobi_pdf(x, _n=norm, _a=alpha, _b=beta):
            x = np.asarray(x, dtype=float)
            return (1.0 - x) ** _a * (1.0 + x) ** _b / _n

        return jacobi_pdf
    if kind == GENERALIZED_HERMITE:
        (rho,) = family.params
        norm = math.gamma((rho + 1.0) / 2.0)

        def hermite_pdf(x, _n=norm, _r=rho):
            x = np.asarray(x, dtype=float)
            return np.abs(x) ** _r * np.exp(-x * x) / _n

        return hermite_pdf
    if kind == GENERALIZED_LAGUERRE:
        (rho,) = family.params
        norm = math.gamma(rho + 1.0)

        def laguerre_pdf(x, _n=norm, _r=rho):
            x = np.asarray(x, dtype=float)
            return x ** _r * np.exp(-x) / _n

        return laguerre_pdf
    raise UnsupportedFamilyError(
        f"no closed-form density for family kind {kind!r}")
