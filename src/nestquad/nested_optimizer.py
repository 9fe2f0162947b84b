"""Nested quadrature pairs by penalized Gauss-Newton moment matching.

One moment-matching kernel serves both constructions.  Its nodes are a
vector x shared by a list of rule blocks: block b selects the nodes
x[idx_b], carries its own weights w_b and must reproduce the orthonormal
moments of the weight through its degree alpha_b, which gives the stacked
residual

    R(d) = [ V_a1(x[idx_1]) w_1 - sqrt(b_0) e_1 ]
           [           ...                      ]
           [ V_aB(x[idx_B]) w_B - sqrt(b_0) e_1 ]

V and its node derivatives come from one recurrence pass per iteration at
the largest block degree, each row carrying values and derivatives side
by side.  A seeded start's first iteration reuses the values-only
evaluation its seed already made, and an upward probe's first iteration
grows the certified iterate's values by one recurrence row, bit for bit
the row a fresh pass would give; such a start runs its one pass with
derivatives only when it takes a step, and that pass's values have the
same bits.  The trailing entries of x may be frozen: they enter the
residual like any node, but they are constants of the problem, so the
decision vector d = (movable x, w_1, ..., w_B) holds only what a step can
move, and a frozen node carries no penalty.

Both constructions add m nodes (``_new_nodes``, today n + 1) to a base of n:

- A nested (Kronrod-type) pair is two blocks over n_2 = n_1 + m nodes:
  the coarse rule (``subset_map``, alpha_1) and the fine rule (all nodes,
  alpha_2).  Every coarse node is literally a fine node, so one set of
  integrand evaluations yields two estimates and an error indicator.
- A Patterson extension is one block over all n + m nodes whose trailing
  n nodes are the frozen base rule (T.N.L. Patterson, Math. Comp. 22, 1968).

Node bounds and a small positive weight floor are enforced by quadratic
penalties P scaled with a coefficient c_k that grows as the residual
shrinks.  The augmented system [R; c_k P] is driven to zero by
Levenberg-Marquardt damped Gauss-Newton steps (``_damped_step``), built
at the active rows only (``_MomentProblem.jacobian``).

The last block's degree is searched downward from n + 2 m - 1, each
degree from its node-polynomial seed (``_node_polynomial_seed``), and then
probed upward from the highest certified degree (``_drive``).  A degree
certifies when its iterate converges and passes ``check_feasible``, and is
conceded otherwise (``_solve_degree``): when it diverges, when a single
step predicts less than 1% reduction of |R|^2 (its Newton decrement below
a tenth of |R|), when its residual stops improving, or when its step
budget is spent.  Only the degree the search returns gets a certificate
(``_MomentProblem.certify``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConvergenceError,
    FeasibilityError,
    NumericalError,
    ParameterError,
    UnsupportedFamilyError,
)
from .gauss import (
    _BOUNDARY_TOL,
    QuadratureRule,
    _christoffel_weights,
    _gauss_nodes,
    _gauss_weights,
    certified_rule,
    recheck,
)
from .orthopoly import (
    RecurrenceTable,
    WeightFamily,
    _values,
    eval_orthonormal,
    generalized_laguerre,
    recurrence_coefficients,
)

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "NestedRulePair",
    "penalty_coefficient",
    "generate_nested",
    "extend_patterson",
    "prune_negligible",
    "hermite_to_laguerre",
]

# The Tikhonov parameter of every step is this multiple of the augmented
# residual norm: Levenberg-Marquardt damping mu = lambda^2 proportional to
# |R|^2 (N. Yamashita and M. Fukushima, Computing Suppl. 15, 2001; J. Fan
# and Y. Yuan, Computing 74, 2005).  Far from a root it bounds the step
# along weak directions; it vanishes at convergence.
_DAMPING = 0.1
# Steps over at least this many unknowns solve the damped normal equations
# when they are well conditioned.  Below it the SVD takes under a
# millisecond, and the small searches are chaotic: an ungated normal-
# equations step saved no time there but moved chebyshev1 7 -> 15 from
# 3,686 iterations to 5,312 (or 12,547 with a 1e12 guard) at equal degrees.
_NORMAL_MIN_COLS = 128
# The normal-equations step is taken when cond(J^T J + lambda^2 I), read
# exactly from its eigenvalues, is at most this: the step's relative error
# is then about cond * eps = 2e-6, which an inexact Newton step tolerates.
# Every iteration of the Legendre n1 = 100 and Jacobi n1 = 60 pairs passes.
_NORMAL_MAX_COND = 1e10
# Stall: a step whose Newton decrement eta falls below this multiple of the
# augmented residual |R| it was computed at, while that |R| exceeds
# 100 eps, ends the degree.  eta^2 / |R|^2 is the relative reduction of
# |R|^2 that the Gauss-Newton model predicts for the step, so the test
# says the model predicts less than 1% (the predicted-reduction test of
# MINPACK, J.J. More, LNM 630, 1978, taken on a single step).  The tightest
# certifying run of the family sweep, laguerre(0) 7 -> 15 at degree 18,
# keeps eta / |R| >= 0.29 throughout, so 0.2 would leave little room; at
# 0.03 the sweep takes 8,161 iterations, at 0.1 6,829, for the same rules.
_STALL_RATIO = 0.1
# Plateau: no new best residual over this many iterations ends the degree
# even when no single step is weak (guards cycling).
_PLATEAU_RUN = 200
# A frozen base counts as symmetric when max |x_i + x_{n-1-i}| is at most
# this times max(1, max |x|): the Legendre 31-point chain rule sits at
# 2.1e-14, a Simpson base nudged 5e-12 past the domain does not.
_SYMMETRY_TOL = 1e-12
# The penalty coefficient c_k = max(_A, 1/|R|) never exceeds _C_CAP.
_A = 1e3
_C_CAP = 1e16
# The whole search may spend this many times the per-degree budget.
_BUDGET_DEGREES = 40
# prune_negligible drops nodes whose |weight| is below this.
_PRUNE_THRESHOLD = 1e-13
# hermite_to_laguerre folds a rule only when mirrored nodes cancel, and
# mirrored weights agree, within this (nodes relative to max(1, max |x|)).
_FOLD_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Tunables of the nested-rule search.

    ``alpha2_initial`` overrides the default start n + 2 m - 1 of the
    fine-degree search for a rule of n base and m new nodes, the degree at
    which the node polynomial of the new nodes is unique; it must exceed
    the base's degree and may not exceed 2 (n + m) - 1, the highest degree
    an (n + m)-node rule can reach.
    """

    epsilon: float = 1e-12
    max_iterations: int = 5000
    allow_negative_weights: bool = False
    alpha2_initial: int | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ParameterError("epsilon must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be positive")


def _weight_floor(family: WeightFamily) -> float:
    """The floor the weight penalty keeps every weight above: 1e-6 on a
    bounded domain, 1e-13 on an unbounded one, whose rules carry genuinely
    tiny tail weights."""
    return 1e-6 if family.domain.bounded else 1e-13


@dataclass
class OptimizerState:
    """The record of one search, returned as diagnostics.

    ``attempts`` holds one (alpha2, outcome, steps) per degree tried, in
    order: ``_solve_degree``'s outcome, "no seed", "overdetermined" (an
    upward probe refused at its warm start) or "search budget" (the run
    the whole search's budget cut).  ``iteration`` sums their steps,
    ``restarts`` counts the degrees conceded before the first certified
    one, ``best_residual`` is the least augmented residual norm seen.
    """

    iteration: int = 0
    restarts: int = 0
    best_residual: float = math.inf
    attempts: list = field(default_factory=list)


@dataclass(frozen=True)
class NestedRulePair:
    """A certified coarse rule embedded in a fine rule.

    ``residual_norm`` is the 2-norm of the stacked moment residual of both
    rules, recomputed at full precision after the search finished.
    """

    coarse: QuadratureRule
    fine: QuadratureRule
    subset_map: tuple
    residual_norm: float

    def __post_init__(self):
        sm = tuple(int(i) for i in self.subset_map)
        object.__setattr__(self, "subset_map", sm)
        if self.coarse.family != self.fine.family:
            raise ParameterError("pair members disagree on the weight family")
        if len(sm) != self.coarse.n:
            raise ParameterError("subset_map length must equal the coarse size")
        if any(not 0 <= i < self.fine.n for i in sm):
            raise ParameterError("subset_map must index the fine nodes")
        if any(b <= a for a, b in zip(sm, sm[1:])):
            raise ParameterError("subset_map must be strictly increasing")
        embedded = self.fine.nodes[list(sm)]
        if not np.array_equal(embedded, self.coarse.nodes):
            raise ParameterError("coarse nodes must be fine nodes bit-exactly")
        if not self.coarse.exactness_degree < self.fine.exactness_degree:
            raise ParameterError("fine degree must exceed coarse degree")

    @property
    def family(self) -> WeightFamily:
        return self.coarse.family

    @property
    def n1(self) -> int:
        return self.coarse.n

    @property
    def n2(self) -> int:
        return self.fine.n


class _MomentProblem:
    """Rule blocks sharing one node vector, with trailing frozen nodes.

    ``blocks`` lists (node indices, degree) per rule; the degree search
    varies the last block's degree.  The trailing ``frozen.size`` nodes are
    constants held at ``frozen``, so the decision vector is
    d = (movable nodes, w_1, ..., w_B) with one weight block per rule.
    Moment rows come in block order; penalty rows are the nodes, a frozen
    node's row always zero, then the weights from the last block to the
    first.  ``slots`` = (base, new) slice the node vector, by default the
    frozen and the movable nodes; ``new`` counts the m new nodes and
    ``square`` is their ``_square_degree``.  ``top`` is the highest degree
    the search may probe: 2 n - 1, beyond which no n-node rule is exact,
    or a custom family's last stored coefficient if that comes first; a
    table short of ``top`` is rebuilt from its family through it.
    """

    def __init__(self, n: int, blocks, config: OptimizerConfig,
                 table: RecurrenceTable, frozen=(), slots=None):
        self.n = n
        self.idx = [np.asarray(idx, dtype=int) for idx, _ in blocks]
        self.degrees = [int(alpha) for _, alpha in blocks]
        self.domain = table.family.domain
        self.weight_floor = _weight_floor(table.family)
        self.config = config
        self.top = 2 * n - 1
        if table.family.kind == "custom":
            self.top = min(self.top, len(table.family.custom_a) - 1)
        if table.capacity < self.top:
            table = recurrence_coefficients(table.family, self.top)
        self.table = table
        self.frozen = np.asarray(frozen, dtype=float)
        self.n_free = n - self.frozen.size
        self.base_slots, self.new_slots = slots or (
            slice(self.n_free, n), slice(0, self.n_free))
        self.new = len(range(n)[self.new_slots])
        self.square = _square_degree(n - self.new, self.new)
        ends = np.cumsum([self.n_free] + [idx.size for idx in self.idx])
        self.weights = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        self.n_unknowns = int(ends[-1])
        # the derivative columns of an evaluation with derivatives
        self.slope_idx = [idx + n for idx in self.idx]
        self._taken = None
        # column of each penalty row's unknown; a frozen node's row, which
        # is never violated, has none
        self.penalty_cols = np.concatenate(
            [np.arange(self.n_free), np.full(self.frozen.size, -1)]
            + [np.arange(s.start, s.stop) for s in reversed(self.weights)])

    def set_degree(self, alpha: int):
        self.table.require(alpha)
        self.degrees[-1] = alpha
        self._taken = None

    def nodes(self, d) -> np.ndarray:
        """All n nodes: the movable ones of ``d``, then the frozen ones."""
        return np.concatenate([d[:self.n_free], self.frozen])

    def evaluate(self, d):
        """One recurrence pass over all n nodes at the largest block
        degree, values in columns [:n] and their node derivatives in
        columns [n:]."""
        degree = max(self.degrees)
        self.table.require(degree)
        return _values(self.table, degree, self.nodes(d), derivatives=True)

    def grow(self, d, ev):
        """The values of ``evaluate(d)`` from ``ev``, an evaluation of the
        same ``d`` at lower degrees: the recurrence resumes after ev's
        value rows, with the same bits as a fresh pass."""
        return _values(self.table, max(self.degrees), self.nodes(d),
                       ev[:, :self.n])

    @functools.cached_property
    def base_rule(self):
        """(nodes, start weights) of the base y_1..y_n: an extension's
        frozen nodes, or a pair's Gauss nodes and weights."""
        if self.frozen.size:
            return self.frozen, []
        nodes = _gauss_nodes(self.table, self.n - self.new)
        return nodes, [_gauss_weights(self.table, nodes)]

    @functools.cached_property
    def gram_factors(self):
        """(P, u): the rows p_0..p_m at the nodes t of a Gauss-g rule, and
        its Christoffel weights times pi = prod (t - y_k), scaled by the
        largest |pi| (which cancels in c), so that the Gram matrix of
        degree k is (P[:k] * u) @ P.T.

        Its entries pi p_i p_j have degree n + k - 1 + m, at most both
        n + 2 m - 1 and alpha, so a Gauss rule of g points with 2 g - 1
        at least either bound integrates them exactly; the table, which
        reaches alpha, caps g no lower than that.  Its weights' evaluation,
        through g - 1 >= m, holds p_0..p_m at its nodes.
        """
        table, (base, _), m = self.table, self.base_rule, self.new
        g = min((self.square + 1) // 2 + 2, table.capacity + 1)
        t = _gauss_nodes(table, g)
        V = eval_orthonormal(table, g - 1, t)
        diff = t[:, None] - base[None, :]
        with np.errstate(divide="ignore"):
            log_pi = np.log(np.abs(diff)).sum(axis=1)
        pi = np.prod(np.sign(diff), axis=1) * np.exp(log_pi - log_pi.max())
        return V[:m + 1], _christoffel_weights(V) * pi

    def _block_rows(self, ev):
        """Each block's value rows at its own nodes.  np.take copies them
        in C order whether ``ev`` holds values only or derivatives too, so
        the products below round identically.  The rows of the last ``ev``
        are kept, so ``jacobian`` reuses those ``residual`` took."""
        if self._taken is None or self._taken[0] is not ev:
            self._taken = ev, [np.take(ev[:alpha + 1], idx, axis=1)
                               for idx, alpha in zip(self.idx, self.degrees)]
        return self._taken[1]

    def residual(self, d, ev) -> np.ndarray:
        target = math.sqrt(self.table.b[0])
        parts = []
        for V, w in zip(self._block_rows(ev), self.weights):
            r = V @ d[w]
            r[0] -= target
            parts.append(r)
        return np.concatenate(parts)

    def violations(self, d) -> np.ndarray:
        """Node excess, then weight shortfall, in penalty-row order; the
        penalties are their squares."""
        x = d[:self.n_free]
        node = np.zeros(self.n)
        if self.domain.bounded_above:
            node[:self.n_free] = np.maximum(0.0, x - self.domain.hi)
        if self.domain.bounded_below:
            node[:self.n_free] = np.maximum(node[:self.n_free],
                                            self.domain.lo - x)
        w = d[self.penalty_cols[self.n:]]
        if self.config.allow_negative_weights:
            return np.concatenate([node, np.zeros_like(w)])
        return np.concatenate([node, np.maximum(0.0, self.weight_floor - w)])

    def jacobian(self, d, ev, c_k: float, v) -> np.ndarray:
        """The step system's matrix over the unknowns: the Jacobian of every
        moment row of R and of each row of c_k P whose violation ``v`` is
        nonzero.

        Residual rows use d p_m(x_i) w_i / d x_i = p'_m(x_i) w_i; a node
        shared by several blocks gets one entry per block's rows.  The
        derivative rows are read from ``ev``; a values-only ``ev``, a
        seeded or grown start's, gets one pass with derivatives at the same
        nodes, whose values have the same bits.  A penalty row of zero
        violation is zero in both the Jacobian and the residual, so leaving
        it out changes J^T J, J^T R and the step only by rounding; at a
        feasible iterate that is about half the rows.
        """
        values = self._block_rows(ev)
        if ev.shape[1] == self.n:
            ev = self.evaluate(d)
        hit = np.flatnonzero(v)
        n_moments = sum(alpha + 1 for alpha in self.degrees)
        J = np.zeros((n_moments + hit.size, self.n_unknowns))
        row = 0
        for idx, slope_idx, w, V, alpha in zip(self.idx, self.slope_idx,
                                               self.weights, values,
                                               self.degrees):
            rows = slice(row, row + V.shape[0])
            move = idx < self.n_free
            dV = np.take(ev[:alpha + 1], slope_idx, axis=1)
            J[rows, idx[move]] = (dV * d[w])[:, move]
            J[rows, w] = V
            row = rows.stop

        # d/dx (x - hi)^2 = 2(x - hi) above, d/dx (lo - x)^2 = -2(lo - x)
        # below, d/dw (floor - w)^2 = -2(floor - w)
        slope = np.full(v.size, -2.0)
        slope[:self.n_free] = np.where(d[:self.n_free] < self.domain.lo,
                                       -2.0, 2.0)
        J[row + np.arange(hit.size), self.penalty_cols[hit]] = \
            c_k * (slope[hit] * v[hit])
        return J

    def check_feasible(self, d):
        """Check and snap: the nodes of ``d`` in ascending order and the
        rank of each, as (sorted nodes, ranks).

        Penalty violations above ``_BOUNDARY_TOL`` are a FeasibilityError,
        and so is any weight at or below zero unless negative weights are
        allowed, and so are colliding nodes; smaller excursions of the
        movable nodes are clipped into the domain.  Frozen nodes stay where
        the base rule put them.
        """
        v = self.violations(d)
        excess = float(np.max(v[:self.n], initial=0.0))
        if excess > _BOUNDARY_TOL:
            raise FeasibilityError(
                f"converged nodes violate the domain by {excess:.3e}")
        shortfall = float(np.max(v[self.n:], initial=0.0))
        if shortfall > _BOUNDARY_TOL:
            raise FeasibilityError(
                f"converged weights fall {shortfall:.3e} below the floor")
        # a floor below _BOUNDARY_TOL lets a tiny nonpositive weight past
        if (not self.config.allow_negative_weights
                and np.any(d[self.n_free:] <= 0.0)):
            raise FeasibilityError("converged weights are not all positive")

        x = np.concatenate([
            np.clip(d[:self.n_free], self.domain.lo, self.domain.hi),
            self.frozen])
        order = np.argsort(x)
        xs = x[order]
        if np.any(np.diff(xs) <= 0.0):
            raise FeasibilityError("nodes collided during optimization")
        pos = np.empty(self.n, dtype=int)
        pos[order] = np.arange(self.n)
        return xs, pos

    def certify(self, d) -> list:
        """Check, snap, sort and certify: one (rule, subset map) per block,
        each rule carrying its recomputed moment residual.  Raises
        FeasibilityError as ``check_feasible`` does."""
        xs, pos = self.check_feasible(d)
        out = []
        for idx, w, alpha in zip(self.idx, self.weights, self.degrees):
            rank = pos[idx]
            perm = np.argsort(rank)
            subset = rank[perm]
            rule = certified_rule(self.table, xs[subset], d[w][perm], alpha,
                                  self.config.allow_negative_weights)
            out.append((rule, tuple(subset.tolist())))
        return out


def _pair_problem(n1: int, table: RecurrenceTable, alpha2: int,
                  config: OptimizerConfig) -> _MomentProblem:
    """The nested-pair layout over n_2 = n_1 + m nodes: the coarse block
    (the odd slots, degree 2 n_1 - 1) between the new nodes and the fine
    block (all nodes, ``alpha2``), nothing frozen."""
    if n1 < 1:
        raise ParameterError("n1 must be at least 1")
    n2 = n1 + _new_nodes(n1)
    coarse = slice(1, n2, 2)
    blocks = [(range(n2)[coarse], 2 * n1 - 1), (range(n2), alpha2)]
    return _MomentProblem(n2, blocks, config, table,
                          slots=(coarse, slice(0, n2, 2)))


def penalty_coefficient(residual_norm: float) -> float:
    """c_k = max(1e3, 1/|R|), capped at 1e16 (the exact-root limit)."""
    if not residual_norm >= 0.0:
        raise ParameterError("residual norm must be nonnegative")
    if residual_norm == 0.0:
        return _C_CAP
    return float(min(max(_A, 1.0 / residual_norm), _C_CAP))


def _step_from_svd(u, s, vt, residual, lam: float):
    """Tikhonov-filtered step V diag(s / (s^2 + lam^2)) U^T r; a direction
    with s = lam = 0 contributes nothing."""
    utr = u.T @ residual
    denom = s * s + lam * lam
    coef = np.divide(s * utr, denom, out=np.zeros_like(utr),
                     where=denom > 0.0)
    return vt.T @ coef


def _normal_solve(A: np.ndarray, g: np.ndarray):
    """The solution of the normal equations A s = g, or None when the
    eigenvalues of the symmetric matrix A show it singular, indefinite or
    of condition number above ``_NORMAL_MAX_COND``, or when a solve
    fails."""
    try:
        mu = np.linalg.eigvalsh(A)
        if 0.0 < mu[0] and mu[-1] <= _NORMAL_MAX_COND * mu[0]:
            return np.linalg.solve(A, g)
    except np.linalg.LinAlgError:
        pass
    return None


def _damped_step(J: np.ndarray, r: np.ndarray, lam: float):
    """The Tikhonov step (J^T J + lam^2 I)^{-1} J^T r and its Newton
    decrement eta = |step . J^T r|^(1/2), as (step, eta).

    With at least ``_NORMAL_MIN_COLS`` columns and a damped normal matrix
    whose condition number is at most ``_NORMAL_MAX_COND``, the normal
    equations are solved directly; otherwise the step comes from the SVD
    filter s / (s^2 + lam^2), which also copes with a singular normal
    matrix.
    """
    g = J.T @ r
    step = None
    if J.shape[1] >= _NORMAL_MIN_COLS:
        A = J.T @ J
        A[np.diag_indices_from(A)] += lam * lam
        step = _normal_solve(A, g)
    if step is None:
        try:
            u, s, vt = np.linalg.svd(J, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"SVD failed during iteration: {exc}") from exc
        step = _step_from_svd(u, s, vt, r, lam)
    return step, float(math.sqrt(abs(float(np.dot(step, g)))))


def _new_nodes(n: int) -> int:
    """m, the number of nodes a nested search adds to a base of n nodes:
    n + 1, as Kronrod's pairs and Patterson's extensions do."""
    return n + 1


def _square_degree(n: int, m: int) -> int:
    """Where m nodes added to n give as many unknowns as moment rows."""
    return n + 2 * m - 1


def _start_degree(config: OptimizerConfig, n: int, m: int,
                  floor: int) -> int:
    """Start degree of the search adding m nodes to a base of n, by
    default the square degree; a start at or below ``floor``, the base's
    degree, or above 2 (n + m) - 1, where no (n + m)-node rule is exact,
    is refused before any table is asked for it."""
    alpha2, top = config.alpha2_initial, 2 * (n + m) - 1
    if alpha2 is None:
        return _square_degree(n, m)
    if alpha2 > top:
        raise ParameterError(
            f"alpha2_initial={alpha2} exceeds {top}, the highest degree a "
            f"{n + m}-node rule can reach")
    if alpha2 <= floor:
        raise ParameterError(
            f"alpha2_initial={alpha2} must exceed {floor}, the base rule's "
            f"degree")
    return alpha2


def _node_polynomial_seed(problem: _MomentProblem, alpha: int):
    """Start for degree ``alpha`` at the roots of the new nodes' polynomial,
    as (d, ``problem.evaluate(d)``), or None when a root is complex or
    outside the domain.

    With base nodes y_1..y_n (``problem.base_rule``) and
    pi = prod (x - y_k), the n + m nodes reach degree alpha when the
    polynomial q_m = p_m + sum_{i<m} c_i p_i of the m new nodes is
    orthogonal under pi w to p_0..p_{k-1}, k = alpha - n - m + 1
    (T.N.L. Patterson, Math. Comp. 22, 1968; G. Monegato, SIAM Rev. 24,
    1982).  At the square degree n + 2 m - 1, k = m and q_m is unique;
    below it c is the minimum-norm solution, and above it the square
    degree's polynomial is used.  The roots of q_m are the eigenvalues of
    J_m - sqrt(b_m) e_m c^T; they and the base fill the problem's slots.
    The weights of the last block solve its moment system through
    ``alpha`` in the least-squares sense; a pair's coarse block starts at
    the Gauss weights.  A problem of at least ``_NORMAL_MIN_COLS``
    unknowns, whose steps take the normal equations, solves them from the
    normal equations too when ``_normal_solve`` accepts their condition,
    and every other through ``lstsq``.  The Vandermonde of that
    least-squares solve is the evaluation of the first Gauss-Newton
    iteration (same nodes, same degree), so it is returned.  What does
    not depend on ``alpha`` (``base_rule``, ``gram_factors``) is built
    once per search.
    """
    table, domain = problem.table, problem.domain
    base, base_weights = problem.base_rule
    m = problem.new
    c = np.zeros(m)
    k = min(alpha - problem.n + 1, m)
    if k > 0:
        P, u = problem.gram_factors
        gram = (P[:k] * u) @ P.T
        c = np.linalg.lstsq(gram[:, :m], -gram[:, m], rcond=None)[0]
    off = np.sqrt(table.b[1:m])
    comrade = np.diag(table.a[:m]) + np.diag(off, 1) + np.diag(off, -1)
    comrade[-1] -= math.sqrt(table.b[m]) * c
    try:
        roots = np.linalg.eigvals(comrade)
    except np.linalg.LinAlgError:
        return None
    if (np.any(np.abs(roots.imag) > 1e-10)
            or not domain.contains(roots.real, tol=_BOUNDARY_TOL)):
        return None
    new = np.clip(np.sort(roots.real), domain.lo, domain.hi)

    x = np.empty(problem.n)
    x[problem.new_slots], x[problem.base_slots] = new, base
    target = np.zeros(alpha + 1)
    target[0] = math.sqrt(table.b[0])
    V = eval_orthonormal(table, alpha, x)
    fine = None
    if problem.n_unknowns >= _NORMAL_MIN_COLS:
        fine = _normal_solve(V.T @ V, V.T @ target)
    if fine is None:
        fine = np.linalg.lstsq(V, target, rcond=None)[0]
    return np.concatenate([x[:problem.n_free], *base_weights, fine]), V


def _solve_degree(problem: _MomentProblem, d, config: OptimizerConfig,
                  state: OptimizerState, log=None, *, max_steps=None,
                  ev=None):
    """Gauss-Newton at the problem's current degree, starting from ``d``,
    whose ``problem.evaluate(d)``, or its values alone, may be passed as
    ``ev``.  A ``log`` list receives one ``--log`` CSV row per step.

    Returns (last iterate, outcome, evaluation), the evaluation being
    ``problem.evaluate`` of a certified iterate, or the values-only ``ev``
    it was given, which a probe grows (None for every other outcome).  The
    outcome is "certified" once the augmented residual is within epsilon
    and ``problem.check_feasible`` accepts the iterate (the search builds
    the certificate only for the degree it returns); "infeasible" when it
    is within epsilon but ``check_feasible`` refuses it (collided or
    out-of-domain nodes); "diverged" when the moment residual is not
    finite; "stall" when the last step's Newton decrement fell below
    ``_STALL_RATIO`` times the augmented residual it was computed at, that
    residual being above 100 epsilon (the Gauss-Newton model predicted
    less than 1% reduction); "plateau" when the residual has not improved
    for ``_PLATEAU_RUN`` steps; and "budget" when the degree has used
    ``max_steps`` steps (by default ``max_iterations``; with 0 the call
    only checks ``d``).  A step is tested at the top of the next
    iteration, after the new iterate had its chance to certify.  Every
    step is damped with lambda = ``_DAMPING`` times the augmented residual
    norm.  Raises ConvergenceError when the whole search's budget is spent.
    """
    alpha2 = problem.degrees[-1]
    if max_steps is None:
        max_steps = config.max_iterations
    best = math.inf
    plateau_run = 0
    # the last step's decrement and the |R| it was computed at
    eta = prev_rnorm = math.inf
    for level_iter in itertools.count():
        if state.iteration >= config.max_iterations * _BUDGET_DEGREES:
            # _drive appends this attempt to the state's list as it leaves
            raise ConvergenceError(
                f"iteration budget exhausted at alpha2={alpha2}",
                best_residual=state.best_residual, attempts=state.attempts)

        if ev is None:
            ev = problem.evaluate(d)
        r = problem.residual(d, ev)
        if not np.all(np.isfinite(r)):
            return d, "diverged", None
        c = penalty_coefficient(float(np.linalg.norm(r)))
        v = problem.violations(d)
        rt = np.concatenate([r, c * (v * v)])
        rnorm = float(np.linalg.norm(rt))
        state.best_residual = min(state.best_residual, rnorm)
        if rnorm <= config.epsilon:
            try:
                problem.check_feasible(d)
            except FeasibilityError:
                return d, "infeasible", None
            return d, "certified", ev

        if rnorm < best - 1e-16:
            best = rnorm
            plateau_run = 0
        else:
            plateau_run += 1
        if (eta < _STALL_RATIO * prev_rnorm
                and prev_rnorm > 100.0 * config.epsilon):
            return d, "stall", None
        if plateau_run >= _PLATEAU_RUN:
            return d, "plateau", None
        if level_iter >= max_steps:
            return d, "budget", None

        lam = _DAMPING * rnorm
        active = np.concatenate([np.ones(r.size, dtype=bool), v != 0.0])
        step, eta = _damped_step(problem.jacobian(d, ev, c, v), rt[active],
                                 lam)
        d = d - step
        ev = None
        prev_rnorm = rnorm

        state.iteration += 1
        if log is not None:
            log.append(f"{state.iteration},{rnorm:.17e},{eta:.17e},{c:.17e},"
                       f"{lam:.17e},{alpha2}")


def _drive(problem: _MomentProblem, config: OptimizerConfig,
           alpha2_start: int, min_alpha2: int, log_path=None):
    """Degree search around ``_solve_degree``.

    Returns (certificate, state), ``problem.certify`` of the iterate of
    the highest certified degree, the only certificate the search builds,
    and leaves the problem at that degree; degrees at or below
    ``min_alpha2`` are never tried.  Each degree starts once, at its
    node-polynomial seed, and is conceded when it has no seed or its run
    ends in anything but "certified"; the next degree starts from its own
    seed, never from the failed iterate.  After the first certified degree
    the search probes upward, warm from the last certified iterate, whose
    evaluation the probe grows by one recurrence row, until a probe fails
    or reaches ``problem.top``.  Each degree tried is recorded in
    ``state.attempts``, which a ConvergenceError carries; the steps' rows
    go to ``log_path``, if given, as the ``--log`` CSV, even on error.

    The problem has as many unknowns as moment rows at ``square``, and
    each probe above it adds a row and no unknown.  Such a probe takes no
    step: it certifies only when its warm start already does, and is
    conceded otherwise.  On a symmetric weight with a symmetric frozen
    base (trivially so for a pair, which freezes nothing), a probe to an
    odd degree keeps its steps, because the odd moment that vanishes in
    exact arithmetic may be left above epsilon by rounding (Legendre
    31 -> 63 reaches Patterson's 95 that way).  Under an asymmetric base
    that moment does not vanish, so such a probe is as overdetermined as
    any other.
    """
    frozen = problem.frozen
    skew = np.max(np.abs(frozen + frozen[::-1]), initial=0.0)
    scale = max(1.0, np.max(np.abs(frozen), initial=0.0))
    symmetric = (problem.table.family.symmetric
                 and skew <= _SYMMETRY_TOL * scale)
    alpha2 = alpha2_start
    state = OptimizerState()
    log = None if log_path is None else []

    def attempt(d, ev, max_steps=None):
        start, outcome = state.iteration, "search budget"  # if it raises
        try:
            d, outcome, ev = _solve_degree(problem, d, config, state, log,
                                           max_steps=max_steps, ev=ev)
        finally:
            if max_steps == 0 and outcome == "budget":
                outcome = "overdetermined"
            state.attempts.append((problem.degrees[-1], outcome,
                                   state.iteration - start))
        return d, outcome, ev

    try:
        while True:
            problem.set_degree(alpha2)
            seed = _node_polynomial_seed(problem, alpha2)
            if seed is None:
                state.attempts.append((alpha2, "no seed", 0))
            else:
                d, outcome, ev = attempt(*seed)
                if outcome == "certified":
                    break
            state.restarts += 1
            alpha2 -= 1
            if alpha2 <= min_alpha2:
                raise ConvergenceError(
                    f"search fell below the minimal degree {min_alpha2 + 1} "
                    f"without converging", best_residual=state.best_residual,
                    attempts=state.attempts)

        while alpha2 < problem.top:
            problem.set_degree(alpha2 + 1)
            overdetermined = (alpha2 + 1 > problem.square
                              and not (symmetric and (alpha2 + 1) % 2))
            probe, outcome, probe_ev = attempt(
                d, problem.grow(d, ev), 0 if overdetermined else None)
            if outcome != "certified":
                problem.set_degree(alpha2)
                break
            alpha2 += 1
            d, ev = probe, probe_ev
        return problem.certify(d), state
    finally:
        if log is not None:
            with open(log_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(["iteration,residual_norm,newton_decrement,"
                                    "c_k,lambda,alpha2", *log]) + "\n")


def generate_nested(n1: int, table: RecurrenceTable,
                    config: OptimizerConfig | None = None,
                    log_path=None):
    """Generate a certified nested pair with n_2 = n_1 + m nodes.

    The coarse rule targets degree 2 n_1 - 1 (which forces it onto the
    Gauss rule); the fine degree is searched downward from
    ``config.alpha2_initial`` (default n_1 + 2 m - 1, at most 2 n_2 - 1)
    to 2 n_1 at the lowest, each degree from the node-polynomial seed on
    the Gauss nodes, and then probed upward through 2 n_2 - 1 at most, a
    short table being extended.  Returns the pair and the iteration
    diagnostics.
    Raises ConvergenceError when no degree certifies, FeasibilityError
    when a converged iterate is infeasible.
    """
    config = config or OptimizerConfig()
    alpha2 = _start_degree(config, n1, _new_nodes(n1), 2 * n1 - 1)
    problem = _pair_problem(n1, table, alpha2, config)
    ((coarse, subset), (fine, _)), state = _drive(
        problem, config, alpha2, 2 * n1 - 1, log_path)
    pair = NestedRulePair(coarse, fine, subset,
                          float(math.hypot(coarse.residual_norm,
                                           fine.residual_norm)))
    return pair, state


def extend_patterson(base: QuadratureRule, table: RecurrenceTable,
                     config: OptimizerConfig | None = None,
                     log_path=None):
    """Extend a certified n-node rule by m nodes, keeping its nodes frozen.

    Sequential (Patterson-style) construction: only the m new node
    positions and all n + m weights are optimized against the fine moment
    conditions, from ``config.alpha2_initial`` (default n + 2 m - 1) down,
    and then probed upward as a pair is.  Returns the extended rule (whose
    exactness degree is the certified alpha_2) and the iteration
    diagnostics.  Raises ParameterError for a start at or below the base's
    degree or above 2 (n + m) - 1, and CapacityError when a custom
    family's coefficients stop short of degree m, the degree of the new
    nodes' polynomial, both before the search.
    """
    config = config or OptimizerConfig()
    m = _new_nodes(base.n)
    alpha2 = _start_degree(config, base.n, m, base.exactness_degree)
    if base.family != table.family:
        raise ParameterError("base rule and table disagree on the family")
    n2 = base.n + m
    problem = _MomentProblem(n2, [(range(n2), alpha2)], config, table,
                             frozen=base.nodes)
    table = problem.table
    if table.capacity < m:
        raise CapacityError(
            f"table capacity {table.capacity} cannot reach degree {m}, "
            f"which the polynomial of the {m} new nodes needs")
    _, fresh, allowed = recheck(table, base.nodes, base.weights,
                                base.exactness_degree, base.residual_norm)
    if fresh > allowed:
        raise ParameterError(
            f"base rule fails its own certificate ({fresh:.3e}, allowed "
            f"{allowed:.3e})")
    ((rule, _),), state = _drive(problem, config, alpha2,
                                 base.exactness_degree, log_path)
    return rule, state


def prune_negligible(rule: QuadratureRule, table: RecurrenceTable,
                     config: OptimizerConfig | None = None) -> QuadratureRule:
    """Drop nodes whose |weight| falls below 1e-13.

    The pruned rule is re-verified at the original exactness degree and
    returned with its updated certificate; if the re-verified residual
    exceeds 10 epsilon (or the pruned rule is structurally invalid) the
    prune is refused and the input returned unchanged.
    """
    config = config or OptimizerConfig()
    keep = np.abs(rule.weights) >= _PRUNE_THRESHOLD
    if np.all(keep) or not np.any(keep):
        return rule
    try:
        pruned = certified_rule(table, rule.nodes[keep], rule.weights[keep],
                                rule.exactness_degree,
                                rule.weight_floor_relaxed)
    except ParameterError:
        return rule
    return rule if pruned.residual_norm > 10.0 * config.epsilon else pruned


def _fold_half(rule: QuadratureRule):
    """Split a symmetric rule into (center weight or None, positive half)."""
    x, w = rule.nodes, rule.weights
    n = x.size
    scale = max(1.0, float(np.max(np.abs(x))))
    for i in range(n // 2):
        j = n - 1 - i
        if (abs(x[i] + x[j]) > _FOLD_TOL * scale
                or abs(w[i] - w[j]) > _FOLD_TOL):
            raise ParameterError(
                "rule is not symmetric about zero; cannot fold")
    if n % 2 == 1:
        mid = n // 2
        if abs(x[mid]) > _FOLD_TOL * scale:
            raise ParameterError("odd-sized rule lacks a center node at zero")
        return float(w[mid]), x[mid + 1:], w[mid + 1:]
    return None, x[n // 2:], w[n // 2:]


def hermite_to_laguerre(pair: NestedRulePair) -> NestedRulePair:
    """Map a symmetric generalized-Hermite pair to a generalized-Laguerre one.

    The substitution t = x^2 sends a rule for |x|^rho_G exp(-x^2) on the
    real line, rho_G the pair's family parameter, to one for
    t^rho_L exp(-t) on the half line with rho_L = (rho_G - 1)/2; symmetric
    node pairs fold onto t = x^2 with doubled weight (a center node at 0
    keeps its weight) and exactness degrees halve.  Asymmetric input is
    rejected.
    """
    if pair.family.kind != "generalized_hermite":
        raise UnsupportedFamilyError(
            "only generalized-Hermite pairs can be folded to Laguerre")

    rho_l = (pair.family.params[0] - 1.0) / 2.0
    lag = generalized_laguerre(rho_l)
    alpha1 = pair.coarse.exactness_degree // 2
    alpha2 = pair.fine.exactness_degree // 2
    table = recurrence_coefficients(lag, max(alpha2, 1))

    def fold(rule: QuadratureRule, alpha: int) -> QuadratureRule:
        wc, xh, wh = _fold_half(rule)
        nodes = xh * xh
        weights = 2.0 * wh
        if wc is not None:
            nodes = np.concatenate([[0.0], nodes])
            weights = np.concatenate([[wc], weights])
        return certified_rule(table, nodes, weights, alpha,
                              rule.weight_floor_relaxed)

    coarse = fold(pair.coarse, alpha1)
    fine = fold(pair.fine, alpha2)
    subset = [int(np.searchsorted(fine.nodes, t)) for t in coarse.nodes]
    stacked = float(math.hypot(coarse.residual_norm, fine.residual_norm))
    return NestedRulePair(coarse, fine, tuple(subset), stacked)
