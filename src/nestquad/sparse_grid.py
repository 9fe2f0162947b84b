"""Smolyak sparse grids assembled from univariate quadrature levels.

A level family supplies one univariate rule per accuracy level i, sized so
that level i integrates polynomials of degree 2i - 1.  The level-k sparse
operator in d dimensions combines tensor products of these rules,

    A(d, k) = sum_{r} (-1)^(k-1-r) C(d-1, k-1-r) sum_{|i| = d+r} X_i1 x ... x X_id,

with r running over max(0, k-d) .. k-1.  Coincident nodes across blocks are
merged by summing weights, which is where nested level families pay off:
their shared nodes coincide bit-exactly, so the union grows far slower than
with independent Gauss rules per level.

The merge works on integers (after Gerstner & Griebel, Numer. Algorithms 18,
1998).  Each coordinate of a node is an index into the sorted union of the
levels' nodes, and the node's key packs its d indices in mixed radix, first
coordinate most significant, into as many int64 words as needed.  Sorting
keys then sorts nodes lexicographically.  Blocks are expanded in batches of
about ``_MERGE_BATCH`` points, and each batch is merged into the running
grid with np.unique and np.bincount.  Each node's weight is summed in block
order, starting from 0.0, so the weights do not depend on the batch size,
and memory stays bounded by the grid plus one batch.
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

# Full tensor products beyond this many points are refused outright.
_TENSOR_CAP = 1e8
# Accidental node coincidences (non-nested families) merge within this
# absolute distance per coordinate; nested families merge bit-exactly.
_MERGE_TOL = 1e-14
# Merged weights below this magnitude are candidates for removal.
_DROP_TOL = 1e-15
# Tensor-block points are merged into the grid in batches of about this
# many, which bounds the working memory of the merge.
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
    union = np.unique(np.concatenate([rule.nodes for rule in rules]))
    axes = _stack_axes([np.searchsorted(union, rule.nodes) for rule in rules],
                       [rule.weights for rule in rules])
    d = len(rules)
    per_word = _digits_per_word(union.size, d)
    keys, weights = _tensor_blocks(np.arange(d)[None, :], axes, union.size,
                                   per_word)
    return _decode_keys(keys, union, d, per_word), weights


def _compositions(total: int, d: int) -> dict:
    """All d-tuples of positive integers summing to t, for t = d..total.

    Maps t to an int array with one tuple per row, in colexicographic order
    (last coordinate varies slowest).
    """
    # table[t]: the compositions of t into `parts` parts
    table = {t: np.array([[t]]) for t in range(1, total - d + 2)}
    for parts in range(2, d + 1):
        table = {t: np.concatenate([
            np.column_stack([table[t - last],
                             np.full(len(table[t - last]), last)])
            for last in range(1, t - parts + 2)])
            for t in range(parts, total - d + parts + 1)}
    return table


def _digits_per_word(radix: int, d: int) -> int:
    """Base-``radix`` digits of a d-digit node key held by one int64 word.

    A node's key is its d axis indices written in base ``radix``, first
    coordinate most significant, split into words of this many digits (the
    last word may hold fewer).  Every word stays below 2^63, so a key takes
    one word unless radix^d exceeds 2^63.
    """
    per_word = 1
    while per_word < d and radix ** (per_word + 1) <= 2 ** 63:
        per_word += 1
    return per_word


def _stack_axes(indices, weights):
    """Pack univariate rules, given as node-index and weight arrays, into
    (start, size, index, weight): rule j is the slice
    ``start[j]:start[j] + size[j]`` of ``index`` and of ``weight``."""
    size = np.array([ix.size for ix in indices])
    return (np.cumsum(size) - size, size,
            np.concatenate(indices), np.concatenate(weights))


def _tensor_blocks(blocks, axes, radix: int, per_word: int):
    """Node keys and weights of a batch of tensor blocks.

    Row b of ``blocks`` names the rule of ``axes`` (see ``_stack_axes``) on
    each coordinate of block b.  Points come block by block, each block in
    lexicographic order (first coordinate slowest), as np.meshgrid(...,
    indexing="ij") lists them.  A point's weight is the left-to-right
    product of its axis weights, bit for bit what chained np.multiply.outer
    gives.  Keys come as one row per word (see ``_digits_per_word``).
    """
    start, size, index, weight = axes
    block = np.arange(blocks.shape[0])
    words, w = [], None
    for j in range(blocks.shape[1]):
        # expand every partial point by the nodes of its block's rule j
        rule = blocks[block, j]
        count = size[rule]
        first = np.cumsum(count) - count
        pos = (np.arange(first[-1] + count[-1])
               + np.repeat(start[rule] - first, count))
        block = np.repeat(block, count)
        words = [np.repeat(word, count) for word in words]
        if j % per_word == 0:
            words.append(index[pos])
        else:
            words[-1] = words[-1] * radix + index[pos]
        w = weight[pos] if w is None else np.repeat(w, count) * weight[pos]
    return np.stack(words), w


def _merge(keys, weights):
    """Distinct keys (one row per word) in increasing lexicographic order,
    with the weights of equal keys summed.

    np.bincount adds the weights of each key one at a time in input order,
    starting from 0.0, so each sum rounds exactly as a running
    ``total += w`` over the inputs does.
    """
    key = keys[0]
    for word in keys[1:]:
        # fold in the next word through dense ranks, which keep the order
        _, high = np.unique(key, return_inverse=True)
        values, low = np.unique(word, return_inverse=True)
        key = high * values.size + low
    unique, inverse = np.unique(key, return_inverse=True)
    first = np.empty(unique.size, dtype=np.intp)
    first[inverse] = np.arange(inverse.size)
    return keys[:, first], np.bincount(inverse, weights=weights,
                                       minlength=unique.size)


def _decode_keys(keys, union, d: int, per_word: int):
    """(N, d) node coordinates of the keys, read back from the union."""
    digits = np.empty((keys.shape[1], d), dtype=np.intp)
    for word, key in enumerate(keys):
        lo = word * per_word
        for j in range(min(lo + per_word, d) - 1, lo - 1, -1):
            key, digits[:, j] = np.divmod(key, union.size)
    return union[digits]


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
        if abs(weights.sum() - mass) > 1e-10:
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


def smolyak_grid(family: UnivariateLevelFamily, d: int, k: int) -> SparseGrid:
    """Build the level-k sparse grid over d dimensions.

    Tensor blocks are taken shell by shell (|i| = d + r, indices
    colexicographic), each block's points in lexicographic order, and
    coincident nodes merge by summation.  Nodes are keyed by integers (see
    the module docstring) and merged in batches of about ``_MERGE_BATCH``
    points; each node's weight is the sum of its block weights in that
    order, starting from 0.0, so it does not depend on the batch size.
    Merged nodes with |weight| < 1e-15 are dropped only when the removal
    provably cannot disturb degree-(2k-1) exactness.
    """
    if d < 1 or k < 1:
        raise ParameterError("need d >= 1 and k >= 1")
    if family.depth < k:
        raise ParameterError(
            f"family supplies {family.depth} levels, level {k} requested")

    levels = _canonical_levels(family, k)
    union = np.unique(np.concatenate(levels))
    axes = _stack_axes([np.searchsorted(union, nodes) for nodes in levels],
                       [family.rule(i).weights for i in range(1, k + 1)])
    sizes = axes[1]
    per_word = _digits_per_word(union.size, d)
    keys = np.empty((-(-d // per_word), 0), dtype=np.int64)
    weights = np.empty(0)
    shells = _compositions(d + k - 1, d)
    for r in range(max(0, k - d), k):
        coeff = (-1.0) ** (k - 1 - r) * math.comb(d - 1, k - 1 - r)
        blocks = shells[d + r] - 1
        points = np.prod(sizes[blocks], axis=1, dtype=float)
        too_big = np.flatnonzero(points > _TENSOR_CAP)
        if too_big.size:
            ivec = tuple(int(i) + 1 for i in blocks[too_big[0]])
            raise CapacityError(f"tensor block {ivec} would hold "
                                f"{points[too_big[0]]:.3g} points")
        batch = np.cumsum(points) // _MERGE_BATCH
        for chunk in np.split(blocks, np.flatnonzero(np.diff(batch)) + 1):
            new_keys, new_weights = _tensor_blocks(chunk, axes, union.size,
                                                   per_word)
            keys, weights = _merge(
                np.concatenate([keys, new_keys], axis=1),
                np.concatenate([weights, coeff * new_weights]))
    nodes = _decode_keys(keys, union, d, per_word)

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
    return _weighted_sum(grid.nodes, grid.weights, f)


def _weighted_sum(nodes, weights, f) -> float:
    """math.fsum of w_q f(x_q) over the rows of ``nodes`` (see
    ``integrate``); the first non-finite value in node order raises
    EvaluationError naming its node."""
    values = _batch_values(nodes, f)
    if values is None:
        values = np.array([_finite(f(point), point) for point in nodes],
                          dtype=float)
    else:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            _finite(values[bad[0]], nodes[bad[0]])  # raises
    return math.fsum((weights * values).tolist())


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
