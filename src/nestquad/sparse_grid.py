"""Smolyak sparse grids assembled from univariate quadrature levels.

A level family supplies one univariate rule per accuracy level i, sized so
that level i integrates polynomials of degree 2i - 1.  The level-k sparse
operator in d dimensions combines tensor products of these rules,

    A(d, k) = sum_{r} (-1)^(k-1-r) C(d-1, k-1-r) sum_{|i| = d+r} X_i1 x ... x X_id,

with r running over max(0, k-d) .. k-1.  Coincident nodes across blocks are
merged by summing weights, which is where nested level families pay off:
their shared nodes coincide bit-exactly, so the union grows far slower than
with independent Gauss rules per level.

The merge needs no sort (after Gerstner & Griebel, Numer. Algorithms 18,
1998, and Bungartz & Griebel, Acta Numerica 13, 2004).  Each coordinate of
a node is an index into the sorted union of the levels' nodes, and each
index has a birth: the first level holding it, counted from 0.  A point of
block i has a birth of at most i_j - 1 on coordinate j, so its births sum
to at most k - 1.  The d-tuples of indices whose births sum to at most
k - 1, ranked lexicographically, are the grid's slots: known before any
block is expanded, they hold every node, in node order.  A tuple's rank
is a sum of one table entry per coordinate (``_slot_steps``), so a point
finds its slot directly.  Only non-nested levels with k > d leave slots
that no block reaches, and those are dropped.

Blocks are expanded by broadcasting.  The points of the first d - 1
coordinates of all blocks with one |i| are grown coordinate by coordinate
(``_prefixes``), and a shell's points are these prefixes times the nodes
of each last rule, taken in batches of about ``_MERGE_BATCH`` points.
Each batch is added into the slots by np.add.at, which adds in input
order, so each node's weight is the sum of its block weights in block
order, starting from 0.0, whatever the batch size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EvaluationError, ParameterError
from .gauss import QuadratureRule, gauss_rule
from .orthopoly import RecurrenceTable, WeightFamily

__all__ = [
    "UnivariateLevelFamily",
    "SparseGrid",
    "gauss_levels",
    "nested_levels",
    "tensor_rule",
    "smolyak_grid",
    "integrate",
    "tensor_error_bound",
    "write_grid_csv",
    "grid_to_json_dict",
]

# Full tensor products and sparse grids with more points or slots than this
# are refused outright.
_TENSOR_CAP = 1e8
# Accidental node coincidences (non-nested families) merge within this
# absolute distance per coordinate; nested families merge bit-exactly.
_MERGE_TOL = 1e-14
# Merged weights below this magnitude are candidates for removal.
_DROP_TOL = 1e-15
# Tensor-block points are added into the grid in batches of about this
# many, which bounds the memory of the expanded last coordinate.
_MERGE_BATCH = 1 << 16


@dataclass(frozen=True)
class UnivariateLevelFamily:
    """Univariate rules indexed by level i = 1..depth.

    ``nested`` tells whether each level's nodes are a bit-exact subset of
    the next level's.  A level whose certified exactness degree falls
    short of the 2i - 1 convention is admitted with a warning: the grid is
    still well defined, it just loses the sparse operator's total-degree
    exactness guarantee.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ParameterError("need at least one level")
        family = levels[0].family
        for rule in levels[1:]:
            if rule.family != family:
                raise ParameterError("levels must share one weight family")
        for i, rule in enumerate(levels, start=1):
            if rule.exactness_degree < 2 * i - 1:
                warnings.warn(
                    f"level {i} rule only certifies degree "
                    f"{rule.exactness_degree}, below the 2i-1 convention "
                    f"({2 * i - 1}); total-degree exactness will degrade",
                    UserWarning, stacklevel=2)

    @property
    def nested(self) -> bool:
        return all(map(_embedded, self.levels, self.levels[1:]))

    @property
    def family(self) -> WeightFamily:
        return self.levels[0].family

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def sizes(self) -> tuple:
        return tuple(rule.n for rule in self.levels)

    def rule(self, level: int) -> QuadratureRule:
        if not 1 <= level <= self.depth:
            raise ParameterError(
                f"level must lie in 1..{self.depth}, got {level}")
        return self.levels[level - 1]


def _embedded(inner: QuadratureRule, outer: QuadratureRule) -> bool:
    """Whether every node of ``inner`` is bit-exactly a node of ``outer``."""
    return set(inner.nodes.tolist()) <= set(outer.nodes.tolist())


def gauss_levels(table: RecurrenceTable, depth: int) -> UnivariateLevelFamily:
    """Level i = the i-point Gauss rule (degree 2i - 1, nothing shared)."""
    if depth < 1:
        raise ParameterError("depth must be at least 1")
    return UnivariateLevelFamily(
        tuple(gauss_rule(table, i) for i in range(1, depth + 1)))


def nested_levels(chain, depth: int) -> UnivariateLevelFamily:
    """Build the repeated-size level schedule from a telescoping chain.

    ``chain`` is a sequence of successively embedded rules (a Gauss seed
    plus its extensions).  Chain entry m serves the m consecutive levels
    m(m-1)/2 < i <= m(m+1)/2, giving sizes [1, 3, 3, 7, 7, 7, 15, ...].
    Extension chains whose degree roughly doubles per entry (5, 11, 23 for
    the uniform weight) then certify degree 2i - 1 at every level; chains
    that grow slower trip the level family's shortfall warning instead of
    failing.  A chain whose levels do not nest is rejected.
    """
    if depth < 1:
        raise ParameterError("depth must be at least 1")
    chain = sorted(chain, key=lambda r: r.n)
    schedule = _chain_schedule(depth)
    if schedule[-1] > len(chain):
        raise CapacityError(f"chain has {len(chain)} rules, level {depth} "
                            f"needs entry {schedule[-1]}")
    levels = tuple(chain[m - 1] for m in schedule)
    for i, (lo, hi) in enumerate(zip(levels, levels[1:]), start=1):
        if not _embedded(lo, hi):
            raise ParameterError(
                f"level {i} nodes are not embedded in level {i + 1}")
    return UnivariateLevelFamily(levels)


def _chain_schedule(depth: int) -> list:
    """Chain entry (counted from 1) serving each level 1..depth: entry m
    serves the m levels m(m-1)/2 < i <= m(m+1)/2."""
    entries = range(1, math.isqrt(2 * depth) + 2)
    return [m for m in entries for _ in range(m)][:depth]


def tensor_rule(rules):
    """Full tensor product of d univariate rules.

    Returns (nodes, weights): nodes is an (N, d) array in lexicographic
    order (first coordinate slowest), weights the matching products.
    """
    rules = list(rules)
    if not rules:
        raise ParameterError("need at least one rule")
    total = 1.0
    for rule in rules:
        total *= rule.n
    if total > _TENSOR_CAP:
        raise CapacityError(
            f"tensor product would hold {total:.3g} points")
    mesh = np.meshgrid(*[rule.nodes for rule in rules], indexing="ij")
    weights = rules[0].weights
    for rule in rules[1:]:
        weights = np.multiply.outer(weights, rule.weights)
    return np.stack([m.ravel() for m in mesh], axis=1), weights.ravel()


def _level_union(levels):
    """The sorted distinct values of the level node arrays, each level's
    nodes as indices into them, and each index's birth: the first level
    holding it, counted from 0."""
    values = np.sort(np.concatenate(levels))
    union = values[np.concatenate(([True], values[1:] != values[:-1]))]
    indices = [np.searchsorted(union, nodes) for nodes in levels]
    # the smallest integer type that holds a level, which keeps the budget
    # arrays of _prefixes small
    birth = np.empty(union.size, dtype=np.min_scalar_type(len(levels)))
    for level, index in reversed(list(enumerate(indices))):
        birth[index] = level
    return union, indices, birth


def _slot_steps(birth, d: int, budget: int):
    """Rank tables of the slot map, and its slot count.

    The slots are the d-tuples of union indices whose births sum to at
    most ``budget``, ranked lexicographically.  With cnt[m, s] the number
    of m-tuples whose births sum to at most s, a tuple's rank is the sum
    over its coordinates j of step[d-1-j, s_j, u_j], where s_j is the
    budget left before coordinate j and

        step[m, s, u] = sum of cnt[m, s - birth[v]] over v < u, birth[v] <= s.

    Padding a tuple with birth-0 indices maps it to a slot, so no entry
    exceeds the slot count.  That count is checked against ``_TENSOR_CAP``
    (below 2^31) before any table is filled, so the tables are exact int32.
    """
    # counted in Python integers, which cannot overflow
    born = np.bincount(birth, minlength=budget + 1)[:budget + 1].astype(object)
    cnt = [np.ones(budget + 1, dtype=object)]
    for _ in range(d):
        cnt.append(np.convolve(born, cnt[-1])[:budget + 1])
    slots = int(cnt[d][budget])
    if slots > _TENSOR_CAP:
        raise CapacityError(f"sparse grid would span {slots:.3g} slots")
    gap = np.arange(budget + 1)[:, None] - birth.astype(np.intp)
    # terms[m, s, v] = cnt[m, s - birth[v]], or 0 where birth[v] > s
    terms = np.where(gap >= 0,
                     np.array(cnt[:d], dtype=float)[:, np.maximum(gap, 0)],
                     0.0)
    step = np.zeros(terms.shape, dtype=np.int32)
    step[:, :, 1:] = np.cumsum(terms[:, :, :-1], axis=2)
    return step, slots


def _prefixes(indices, level_weights, birth, step, d: int) -> dict:
    """The points of the first d - 1 coordinates of every tensor block.

    Maps n to (rank, left, w) over the points of all (d-1)-coordinate
    blocks i with |i| = n: blocks in colexicographic order (last coordinate
    slowest), each block's points in lexicographic order.  ``rank`` is the
    slot rank summed over these coordinates (see ``_slot_steps``), ``left``
    the birth budget they leave, and ``w`` the left-to-right product of
    their weights.  A block's points follow from those of its first j - 1
    coordinates by one broadcast against the nodes of its j-th rule, so
    the blocks that share that rule and |i| grow in one step.
    """
    k = len(indices)
    layer = {0: (np.zeros(1, dtype=step.dtype),
                 np.full(1, step.shape[1] - 1, dtype=birth.dtype),
                 np.ones(1))}
    for j in range(1, d):
        grown = {}
        for n in range(j, j + k):
            parts = [(layer[n - 1 - level], level) for level in range(k)
                     if n - 1 - level in layer]
            size = sum(part[0].size * indices[level].size
                       for part, level in parts)
            rank = np.empty(size, dtype=step.dtype)
            left = np.empty(size, dtype=birth.dtype)
            w = np.empty(size)
            end = 0
            for (rank0, left0, w0), level in parts:
                index = indices[level]
                shape = (rank0.size, index.size)
                out = slice(end, end + rank0.size * index.size)
                end = out.stop
                np.add(rank0[:, None], step[d - j][left0[:, None], index],
                       out=rank[out].reshape(shape))
                np.subtract(left0[:, None], birth[index],
                            out=left[out].reshape(shape))
                np.multiply(w0[:, None], level_weights[level],
                            out=w[out].reshape(shape))
            grown[n] = rank, left, w
        layer = grown
    return layer


def _slot_nodes(union, birth, d: int, budget: int, keep):
    """(len(keep), d) coordinates of the slots ``keep``, read from one
    lexicographic enumeration of the d-tuples whose births sum to at most
    ``budget``."""
    # the indices born by budget s, for each s
    members = [np.flatnonzero(birth <= s) for s in range(budget + 1)]
    size = np.array([m.size for m in members])
    start = np.cumsum(size) - size
    flat = np.concatenate(members)
    left = np.array([budget])
    parents, digits = [], []
    for _ in range(d):
        count = size[left]
        first = np.cumsum(count) - count
        parent = np.repeat(np.arange(left.size), count)
        u = flat[np.arange(parent.size) + (start[left] - first)[parent]]
        left = left[parent] - birth[u]
        parents.append(parent)
        digits.append(u)
    nodes = np.empty((len(keep), d))
    row = keep
    for j in reversed(range(d)):
        nodes[:, j] = union[digits[j][row]]
        row = parents[j][row]
    return nodes


def _canonical_levels(family: UnivariateLevelFamily, k: int):
    """Per-level node arrays with cross-level coincidences snapped to one
    representative, so the merge step can key on exact values."""
    if family.nested:
        return [family.rule(i).nodes for i in range(1, k + 1)]
    values = sorted({float(x)
                     for i in range(1, k + 1)
                     for x in family.rule(i).nodes})
    canon = {}
    group_start = None
    rep = None
    for v in values:
        if group_start is None or v - group_start > _MERGE_TOL:
            group_start = v
            rep = v
        canon[v] = rep
    return [np.array([canon[float(x)] for x in family.rule(i).nodes])
            for i in range(1, k + 1)]


@dataclass(frozen=True)
class SparseGrid:
    """Merged node/weight set of the level-k sparse operator in d dims.

    Combination weights can be negative; the total still sums to unit mass
    for probability-normalized families.
    """

    k: int
    nodes: np.ndarray
    weights: np.ndarray
    source: UnivariateLevelFamily

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[0] != weights.size:
            raise ParameterError("nodes must be (node_count, d)")
        mass = float(self.source.family.mass) ** nodes.shape[1]
        # the rounding of the sum grows with sum |w|, which the combination
        # coefficients C(d - 1, k - 1 - r) inflate at large d
        scale = max(mass, float(np.abs(weights).sum()))
        if abs(weights.sum() - mass) > 1e-10 * scale:
            raise ParameterError(
                f"grid weights sum to {weights.sum()!r}, expected {mass!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def node_count(self) -> int:
        return self.weights.size


def _merged_weights(family: UnivariateLevelFamily, indices, birth, d: int,
                    k: int):
    """(slots, weights): the slots some block touches, ascending, and the
    weight summed into each.  The prefix tables, the slot steps and the
    touched mask die with this call, before ``_slot_nodes`` allocates its
    own enumeration."""
    level_weights = [family.rule(i).weights for i in range(1, k + 1)]
    step, slots = _slot_steps(birth, d, k - 1)
    prefixes = _prefixes(indices, level_weights, birth, step, d)
    weights = np.zeros(slots)
    touched = np.zeros(slots, dtype=bool)
    for r in range(max(0, k - d), k):
        coeff = (-1.0) ** (k - 1 - r) * math.comb(d - 1, k - 1 - r)
        # the shell's blocks, grouped by the rule on their last coordinate
        for level, index in enumerate(indices):
            if d + r - 1 - level not in prefixes:
                continue
            rank, left, w = prefixes[d + r - 1 - level]
            rows = max(1, _MERGE_BATCH // index.size)
            for lo in range(0, rank.size, rows):
                part = slice(lo, lo + rows)
                slot = rank[part, None] + step[0][left[part, None], index]
                w_part = w[part, None] * level_weights[level]
                np.add.at(weights, slot.ravel(), coeff * w_part.ravel())
                touched[slot.ravel()] = True
    keep = np.flatnonzero(touched)
    return keep, weights[keep]


def smolyak_grid(family: UnivariateLevelFamily, d: int, k: int) -> SparseGrid:
    """Build the level-k sparse grid over d dimensions.

    Tensor blocks are taken shell by shell (|i| = d + r, indices
    colexicographic), each block's points in lexicographic order, and
    coincident nodes merge by summation.  Each point is added straight into
    its slot (see the module docstring), in batches of about
    ``_MERGE_BATCH`` points; each node's weight is the sum of its block
    weights in that order, starting from 0.0, so it does not depend on the
    batch size.  Nodes come in lexicographic order.  Merged nodes with
    |weight| < 1e-15 are dropped only when the removal provably cannot
    disturb degree-(2k-1) exactness.  More than ``_TENSOR_CAP`` slots
    raise CapacityError before any block is expanded.
    """
    if d < 1 or k < 1:
        raise ParameterError("need d >= 1 and k >= 1")
    if family.depth < k:
        raise ParameterError(
            f"family supplies {family.depth} levels, level {k} requested")

    levels = _canonical_levels(family, k)
    union, indices, birth = _level_union(levels)
    keep, weights = _merged_weights(family, indices, birth, d, k)
    nodes = _slot_nodes(union, birth, d, k - 1, keep)

    small = np.abs(weights) < _DROP_TOL
    if np.any(small):
        # a dropped node can shift any degree-(2k-1) monomial by at most
        # |w| * prod_q max(1, |x_q|)^(2k-1); refuse unless provably harmless
        mags = np.prod(np.maximum(1.0, np.abs(nodes)), axis=1) ** (2 * k - 1)
        if float(np.sum(np.abs(weights[small]) * mags[small])) <= 1e-12:
            nodes = nodes[~small]
            weights = weights[~small]

    return SparseGrid(k, nodes, weights, family)


def integrate(grid: SparseGrid, f) -> float:
    """Sum w_q f(x_q) over the grid in node order.

    ``f`` is called once on the whole (N, d) node array, and its result is
    used when it holds one real value per node (shape (N,)).  An integrand
    written for one d-vector with ``axis=-1`` semantics, such as
    ``lambda x: np.cos(x.sum(axis=-1))``, so costs one call.  Otherwise
    (the call raised, or returned another shape) ``f`` is called once per
    node in order, with one d-vector each; a scalar integrand still works,
    but sees the whole array first, which matters if it keeps state.  When
    N == d the array is square, a scalar integrand such as ``x[0] * x[1]``
    would also return N values, and ``f`` gets only the per-node calls.

    The sum is ``math.fsum`` of the products w_q f(x_q).  A non-finite
    value aborts with an evaluation error carrying the first offending
    node in node order.
    """
    return _weighted_sum(grid.weights, _node_values(grid.nodes, f))


def _weighted_sum(weights, values) -> float:
    """math.fsum of the products w_q f(x_q)."""
    return math.fsum((weights * values).tolist())


def _node_values(nodes, f) -> np.ndarray:
    """f on every row of ``nodes`` (see ``integrate``); the first
    non-finite value in node order raises EvaluationError naming its
    node."""
    values = _batch_values(nodes, f)
    if values is None:
        return np.array([_finite(f(point), point) for point in nodes],
                        dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _finite(values[bad[0]], nodes[bad[0]])  # raises
    return values


def _batch_values(nodes, f):
    """The values of ``f`` on every row of ``nodes`` from one call on the
    whole array, or None if that call raises or does not give one real
    value per row.  A square array is not probed (see ``integrate``).

    Any exception from the probe only means "not vectorized": an error
    that is real shows up again in the per-row calls.  The probe silences
    floating-point errors and warnings as well, since a scalar integrand
    handed an array may well overflow or warn, and non-finite values of
    an integrand that works on arrays are caught afterwards.
    """
    n, d = nodes.shape
    if n == d:
        return None
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            values = np.asarray(f(nodes))
        except Exception:
            return None
    if values.shape != (n,) or values.dtype.kind not in "biuf":
        return None
    return values.astype(float)


def _finite(value, point) -> float:
    """``float(value)``; EvaluationError naming ``point`` if not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise EvaluationError(
            f"integrand returned {value} at {point.tolist()}",
            node=point.copy())
    return value


def tensor_error_bound(epsilon: float, alphas, p_norm: float) -> float:
    """Worst-case integration error of one tensor block.

    For d univariate rules, one per entry of ``alphas``, whose moment
    residuals are bounded by epsilon and a polynomial p within the block's
    joint exactness span, the integration error is at most
    eps * |p| * d * (1+eps)^(d-1) * prod sqrt(alpha_q + 1).
    """
    alphas = tuple(alphas)
    d = len(alphas)
    if epsilon < 0.0 or p_norm < 0.0:
        raise ParameterError("epsilon and p_norm must be nonnegative")
    if d < 1:
        raise ParameterError("need one alpha per dimension")
    if any(a < 0 for a in alphas):
        raise ParameterError("degrees must be nonnegative")
    prod = 1.0
    for a in alphas:
        prod *= math.sqrt(a + 1.0)
    return epsilon * p_norm * d * (1.0 + epsilon) ** (d - 1) * prod


def write_grid_csv(grid: SparseGrid, path):
    """One row per node: d coordinates then the weight."""
    header = ",".join(f"x{q + 1}" for q in range(grid.d)) + ",weight"
    lines = [header]
    for point, weight in zip(grid.nodes.tolist(), grid.weights.tolist()):
        lines.append(",".join(map(repr, [*point, weight])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def grid_to_json_dict(grid: SparseGrid, family_ref: str) -> dict:
    return {
        "d": grid.d,
        "k": grid.k,
        "family_ref": family_ref,
        "nodes": grid.nodes.tolist(),
        "weights": grid.weights.tolist(),
    }
