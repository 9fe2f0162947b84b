"""Smolyak sparse grids assembled from univariate quadrature levels.

A level family supplies one univariate rule per accuracy level i, sized so
that level i integrates polynomials of degree 2i - 1.  The level-k sparse
operator in d dimensions combines tensor products of these rules,

    A(d, k) = sum_{r} (-1)^(k-1-r) C(d-1, k-1-r) sum_{|i| = d+r} X_i1 x ... x X_id,

with r running over max(0, k-d) .. k-1.  Coincident nodes across blocks are
merged by summing weights, which is where nested level families pay off:
their shared nodes coincide bit-exactly, so the union grows far slower than
with independent Gauss rules per level.

The merge needs neither a sort nor the tensor points themselves (after
Gerstner & Griebel, Numer. Algorithms 18, 1998, and Bungartz & Griebel,
Acta Numerica 13, 2004).  Each coordinate of a node is an index u into the
sorted union of the levels' nodes, with a birth b_u: the first level
holding it, counted from 0.  A point of block i has a birth of at most
i_j - 1 on coordinate j, so its births sum to at most k - 1.  The d-tuples
of indices whose births sum to at most k - 1, in lexicographic order, are
the grid's slots: they hold every node, in node order.  With Q_u[l] the
weight of u in level b_u + l (counted from 0, and 0 where that level lacks
u), the weight summed into slot (u_1, ..., u_d) factors as

    W(u) = sum_r c_r [z^r] prod_j z^(b_j) Q_(u_j)(z),
    c_r = (-1)^(k-1-r) C(d-1, k-1-r),

and depends only on the multiset of the slot's indices, since a product
does not depend on the order of its factors.  So each multiset's weight
is computed once (``_multisets``, ``_multiset_weights``): the d = 10,
k = 7 grid has 60,225 slots but 86 multisets.  Permuted slots therefore
carry bitwise the same weight.  One walk of the slot tree, coordinate by
coordinate and in lexicographic order, enumerates the slots
(``_slot_walk``); a tree node carries only the id of its multiset, and a
child's id is one table lookup.  The weights differ from a
block-by-block sum only by rounding.  Only non-nested levels with k > d
leave slots that no block reaches; the same sum over 0/1 level
indicators counts the blocks reaching each multiset, and the slots of
the unreached ones are dropped.

A grid file is written by ``write_grid_csv`` or ``write_grid_json``, and
``read_grid_json`` is the one reader of the JSON file.
"""

from __future__ import annotations

import decimal
import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EvaluationError, ParameterError, SchemaError
from .gauss import QuadratureRule, gauss_rule
from .orthopoly import RecurrenceTable, WeightFamily
from .rulestore import _write_atomically

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
    "write_grid_json",
    "read_grid_json",
]

# Full tensor products and sparse grids with more points or slots than this
# are refused outright.
_TENSOR_CAP = 1e8
# Accidental node coincidences (non-nested families) merge within this
# absolute distance per coordinate; nested families merge bit-exactly.
_MERGE_TOL = 1e-14
# Merged weights below this magnitude are candidates for removal.
_DROP_TOL = 1e-15
# ``_weighted_sum`` files each product m 2^e under slot e + _EXPONENT_BIAS:
# np.frexp gives e from -1073 (the least subnormal) to 1024.
_EXPONENT_BIAS = 1073
_EXPONENT_SLOTS = 2098
# x + c - c rounds a mantissa |x| < 1 to a multiple of 2^-17, and its
# remainder to a multiple of 2^-35; the pieces scale to integers by these.
_SPLITS = (1.5 * 2.0 ** 35, 1.5 * 2.0 ** 17)
_PIECE_SCALES = np.array([[2.0 ** 17], [2.0 ** 35], [2.0 ** 53]])
# Products go through the kernel in blocks of this many, which keeps its
# temporaries small.
_SUM_BLOCK = 1 << 14
# Slot coordinates are read back in blocks of this many rows.
_READBACK_ROWS = 1 << 12


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
    union = _sorted_distinct(np.concatenate(levels))
    indices = [np.searchsorted(union, nodes) for nodes in levels]
    birth = np.empty(union.size, dtype=np.intp)
    for level, index in reversed(list(enumerate(indices))):
        birth[index] = level
    return union, indices, birth


def _sorted_distinct(values):
    """The distinct entries of the 1-d array ``values``, ascending."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _slot_count(birth, d: int, budget: int) -> int:
    """The number of d-tuples of union indices whose births sum to at most
    ``budget``; CapacityError if it exceeds ``_TENSOR_CAP``.

    With born(z) = sum_u z^(birth[u]), the m-tuples whose births sum to s
    number [z^s] born(z)^m; the power is taken by repeated squaring,
    truncated past z^budget.
    """
    # counted in Python integers, which cannot overflow
    base = np.bincount(birth, minlength=budget + 1)[:budget + 1]
    base = base.astype(object)
    power = np.ones(1, dtype=object)
    while d:
        if d & 1:
            power = np.convolve(power, base)[:budget + 1]
        base = np.convolve(base, base)[:budget + 1]
        d >>= 1
    slots = int(power.sum())
    if slots > _TENSOR_CAP:
        raise CapacityError(f"sparse grid would span {slots:.3g} slots")
    return slots


def _level_tables(indices, level_weights, birth, budget: int):
    """q[l, u]: the weight of union index u in level birth[u] + l, counted
    from 0, and 0 where that level lacks u.  A level whose nodes share an
    index adds their weights."""
    q = np.zeros((budget + 1, birth.size))
    for level, (index, weights) in enumerate(zip(indices, level_weights)):
        np.add.at(q, (level - birth[index], index), weights)
    return q


def _runs(stop, count):
    """Runs of count[i] consecutive integers ending before stop[i], laid
    end to end: (the run of each entry, the entries)."""
    run = np.arange(count.size).repeat(count)
    value = (stop - count.cumsum()).take(run)
    value += np.arange(value.size)
    return run, value


def _multisets(birth, d: int, budget: int):
    """The multisets of union indices that slots hold, numbered, and the
    children of a slot tree node by its multiset.

    The first index z of birth 0 is left out: a slot's multiset is T plus
    d - |T| copies of z, where T holds its other coordinates.  Ranks order
    the union by birth, then by index, so z has rank 0 and the indices
    born by budget s are the ranks below born[s].  The T with |T| <= d and
    births summing to at most ``budget`` are numbered by size, and within
    a size in lexicographic order of their ascending rank tuples; T is its
    parent, T without its highest rank, plus that rank.

    Returns (tree, edges).  ``tree`` is (z, starts, parent, member,
    spent): the T of size m are the ids starts[m] to starts[m + 1] - 1,
    and parent[t], member[t] and spent[t] are T's parent, the index of its
    highest rank and its birth sum (-1, z and 0 for the empty T, id 0).
    ``edges`` is (count, values, child): a slot tree node whose
    coordinates other than z form T, |T| < d, has count[t] children, the
    indices born by budget - spent[t] in ascending order.  They are the
    edges from sum(count[:t]) on, with index values[e] and multiset
    child[e].

    Row t of ``grow`` holds the id of T plus each rank below
    born[budget - spent[t]].  A rank from T's highest up makes a child of
    T.  A lower rank r reuses the parent's row: T plus r is the child, at
    T's highest rank, of parent(T) plus r.
    """
    order = np.argsort(birth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    born = np.searchsorted(birth[order], np.arange(budget + 1), "right")
    parents = [np.array([-1])]
    tops = [np.zeros(1, dtype=np.intp)]
    spents = [np.zeros(1, dtype=np.intp)]
    starts = [0, 1]
    for _ in range(d):
        low = np.maximum(tops[-1], 1)
        fresh = np.maximum(born[budget - spents[-1]] - low, 0)
        run, top = _runs(low + fresh, fresh)
        if not top.size:
            break
        parents.append(run + starts[-2])
        tops.append(top)
        spents.append(spents[-1].take(run) + birth[order[top]])
        starts.append(starts[-1] + top.size)
    parent, top, spent = map(np.concatenate, (parents, tops, spents))
    low = np.maximum(top, 1)
    width = born[budget - spent]
    children = np.maximum(width - low, 0)
    first = np.cumsum(children) - children + 1  # T's children are in a row
    levels = min(d, len(starts) - 1)  # the sizes below d
    inner = starts[levels]
    offset = np.zeros(inner + 1, dtype=np.intp)
    np.cumsum(width[:inner], out=offset[1:])
    grow = np.empty(offset[-1], dtype=np.intp)
    grow[:width[0]] = np.arange(width[0])
    for m in range(1, levels):
        row = width[starts[m]:starts[m + 1]]
        t, r = _runs(row, row)
        t += starts[m]
        prior = grow.take(offset.take(parent.take(t)) + r)
        grow[offset[starts[m]]:offset[starts[m + 1]]] = np.where(
            r >= low.take(t), first.take(t) + r - low.take(t),
            first.take(prior) + top.take(t) - low.take(prior))
    # the indices born by each budget, ascending, one list after another
    _, members = np.nonzero(birth <= np.arange(budget + 1)[:, None])
    count = width[:inner]
    run, at = _runs(born.cumsum()[budget - spent[:inner]], count)
    values = members.take(at)
    child = grow.take(offset.take(run) + rank.take(values))
    tree = (order[0], starts, parent, order.take(top), spent)
    return tree, (count, values, child)


def _multiset_weights(tree, q, c, d: int):
    """Per multiset of ``_multisets``, sum_r c[r] [z^r] of the product of
    z^(birth[u]) Q_u(z) over its d indices u, where Q_u has the
    coefficients q[:, u].

    The product over the ranks of T below its highest, R_T, is built one
    size at a time: coefficient s of R_T sums the parent's coefficients
    a = 0..s times q[s - a] in that order.  Q_z(z)^m is built the same way
    and folded with c in fold[m, t] = sum_l c[t + l] [z^l] Q_z(z)^m, and
    T's highest index u and the births join through
    table[m, t, u] = sum_j q[j, u] fold[m, t + j], which is 0 past
    t = budget: T's weight sums R_T[a] table[d - |T|, spent + a, u].
    """
    z, starts, parent, member, spent = tree
    size = q.shape[0]
    budget = size - 1
    levels = len(starts) - 1
    product = np.zeros((size, starts[max(1, levels - 1)]))
    product[0, 0] = 1.0
    for m in range(1, levels - 1):
        rows = slice(starts[m], starts[m + 1])
        prefix = product[:, parent[rows]]
        factor = q[:, member[rows]]
        grown = prefix[0] * factor
        for a in range(1, size):
            grown[a:] += prefix[a] * factor[:size - a]
        product[:, rows] = grown
    # the powers d - |T|, from |T| = levels - 1 up to the empty T
    low = max(0, d + 1 - levels)
    q_z = q[:, z].tolist()
    powers = [[1.0] + [0.0] * budget]
    for m in range(d):
        power = powers[-1]
        grown = []
        for s in range(size):
            acc = power[0] * q_z[s]
            for a in range(1, s + 1):
                acc += power[a] * q_z[s - a]
            grown.append(acc)
        powers.append(grown)
    powers = np.array(powers[low:])
    fold = np.zeros((len(powers), 3 * budget + 1))
    for t in range(size):
        for l in range(size - t):
            fold[:, t] += c[t + l] * powers[:, l]
    span = 2 * budget + 1
    table = fold[:, :span, None] * q[0]
    for j in range(1, size):
        table += fold[:, j:j + span, None] * q[j]
    at = ((d - low - np.repeat(np.arange(levels), np.diff(starts))) * span
          + spent) * q.shape[1] + member
    weights = np.empty(parent.size)
    weights[0] = fold[d - low, 0]
    table = table.ravel()
    below = parent[1:]
    weights[1:] = product[0].take(below) * table.take(at[1:])
    for a in range(1, size):
        weights[1:] += (product[a].take(below)
                        * table.take(at[1:] + a * q.shape[1]))
    return weights


def _slot_walk(count, child, d: int):
    """Enumerate the slots, one coordinate per step, in lexicographic
    order.

    Returns (parents, steps, ids): per step, each tree node's parent in
    the step before and the edge of ``_multisets`` that reached it, and
    per slot (a node of the last step) its multiset.  A node's children
    depend only on the multiset of its coordinates: the count[t] edges of
    multiset t, which lead to the multisets child[e].  So the walk carries
    the multiset of each node, one lookup per step.
    """
    stop = count.cumsum()
    frontier = np.zeros(1, dtype=np.intp)
    parents, steps = [], []
    for _ in range(d):
        parent, edge = _runs(stop.take(frontier), count.take(frontier))
        parents.append(parent)
        steps.append(edge)
        frontier = child.take(edge)
    return parents, steps, frontier


def _slot_nodes(values, parents, steps, keep):
    """(len(keep), d) coordinates of the slots ``keep``, read back from the
    tree of ``_slot_walk``, where edge e holds the coordinate values[e].
    Each block of ``_READBACK_ROWS`` slots gathers its (d, rows) edges,
    one contiguous row per coordinate, then fills its rows of the node
    array in one gather, so that array is written row after row."""
    d = len(steps)
    nodes = np.empty((keep.size, d))
    index = np.empty((d, min(keep.size, _READBACK_ROWS)), dtype=np.intp)
    for start in range(0, keep.size, _READBACK_ROWS):
        row = keep[start:start + _READBACK_ROWS]
        block = index[:, :row.size]
        for j in reversed(range(d)):
            steps[j].take(row, out=block[j])
            row = parents[j].take(row)
        nodes[start:start + row.size] = values[block].T
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
    for probability-normalized families.  Nodes and weights must be
    finite, as a ``QuadratureRule``'s are.
    """

    k: int
    nodes: np.ndarray
    weights: np.ndarray
    source: UnivariateLevelFamily

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if (nodes.ndim != 2 or nodes.shape[0] != weights.size
                or nodes.shape[1] < 1):
            raise ParameterError("nodes must be (node_count, d), d >= 1")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ParameterError("grid nodes and weights must be finite")
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


def smolyak_grid(family: UnivariateLevelFamily, d: int, k: int) -> SparseGrid:
    """Build the level-k sparse grid over d dimensions.

    Coincident nodes of the tensor blocks merge by summation.  A node's
    weight is computed once per multiset of its coordinates (see the
    module docstring), without expanding the blocks: nodes that permute
    each other's coordinates carry bitwise the same weight.  It equals the
    block-by-block sum up to rounding, and is bitwise the same on every
    run.  Nodes come in lexicographic order.  Merged nodes with
    |weight| < 1e-15 are dropped only when the removal provably cannot
    disturb degree-(2k-1) exactness.  More than ``_TENSOR_CAP`` slots raise
    CapacityError before any slot is enumerated.
    """
    if d < 1 or k < 1:
        raise ParameterError("need d >= 1 and k >= 1")
    if family.depth < k:
        raise ParameterError(
            f"family supplies {family.depth} levels, level {k} requested")

    levels = _canonical_levels(family, k)
    union, indices, birth = _level_union(levels)
    budget = k - 1
    _slot_count(birth, d, budget)
    q = _level_tables(
        indices, [family.rule(i).weights for i in range(1, k + 1)], birth,
        budget)
    c = np.array([(-1.0) ** (budget - r) * math.comb(d - 1, budget - r)
                  for r in range(k)])
    tree, (count, values, child) = _multisets(birth, d, budget)
    parents, steps, ids = _slot_walk(count, child, d)
    weights = _multiset_weights(tree, q, c, d)[ids]
    if family.nested or k <= d:
        # every slot is reached: with k <= d the block of its birth levels
        # is in the sum, and nested levels hold an index above its birth
        keep = np.arange(weights.size)
    else:
        # count the blocks reaching each multiset, over 0/1 level indicators
        held = _level_tables(indices, [np.ones(i.size) for i in indices],
                             birth, budget)
        blocks = _multiset_weights(tree, held, (np.arange(k) >= k - d) * 1.0,
                                   d)
        keep = np.flatnonzero(blocks[ids])
        weights = weights[keep]
    nodes = _slot_nodes(union[values], parents, steps, keep)

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

    The sum is the correctly rounded sum of the products w_q f(x_q), the
    double ``math.fsum`` returns (see ``_weighted_sum``).  A value that is
    not one finite real number (complex, a string, an array, inf, nan)
    aborts with an evaluation error carrying the first offending node in
    node order.
    """
    return _weighted_sum(grid.weights, _node_values(grid.nodes, f))


def _weighted_sum(weights, values) -> float:
    """The correctly rounded sum of the products w_q f(x_q): the double
    ``math.fsum`` returns, bit for bit.

    The sum is exact before its one rounding, with per-exponent
    accumulators after Demmel & Hida (SIAM J. Sci. Comput. 25, 2003).
    ``np.frexp`` writes each product as m 2^e with |m| < 1 a multiple of
    2^-53.  Rounding m to a multiple of 2^-17, and what is left to a
    multiple of 2^-35, splits it into three pieces of at most 18 bits,
    and ``np.bincount`` sums each piece over the products sharing e.  Each
    of these float sums is an integer multiple of its piece's unit below
    2^53 units for fewer than 2^36 products, so it is exact.  One pass
    over the exponents present adds the pieces up as one Python int, and
    one int/int true division, which Python rounds correctly, gives the
    double.

    Two cases go to ``math.fsum`` as they are: a product that is not
    finite (w_q f(x_q) can overflow when f(x_q) is finite), so that inf,
    nan and the ValueError of inf - inf come out as ``math.fsum`` gives
    them, and an exact total of zero, for the sign ``math.fsum`` gives
    that zero.  A sum that rounds beyond the float range raises
    OverflowError, as ``math.fsum`` does.  Where ``math.fsum`` raises
    "intermediate overflow" on finite products whose exact sum is in
    range, such as 1e308 + 1e308 - 1e308, this returns that sum rounded
    (1e308).
    """
    products = weights * values
    if not np.isfinite(products).all():
        return math.fsum(products.tolist())
    sums = np.zeros((3, _EXPONENT_SLOTS))
    for start in range(0, products.size, _SUM_BLOCK):
        mantissas, exponents = np.frexp(products[start:start + _SUM_BLOCK])
        slots = exponents.astype(np.intp)
        slots += _EXPONENT_BIAS
        pieces = []
        for split in _SPLITS:
            piece = mantissas + split
            piece -= split
            mantissas -= piece
            pieces.append(piece)
        pieces.append(mantissas)
        for row, piece in zip(sums, pieces):
            row += np.bincount(slots, weights=piece,
                               minlength=_EXPONENT_SLOTS)
    digits = (sums * _PIECE_SCALES).astype(np.int64)
    present = np.flatnonzero(digits.any(axis=0))
    total = 0
    for slot, (high, middle, low) in zip(present.tolist(),
                                         digits[:, present].T.tolist()):
        total += ((high << 36) + (middle << 18) + low) << slot
    if total == 0:
        return math.fsum(products.tolist())
    return total / (1 << (_EXPONENT_BIAS + 53))


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
    """``float(value)``; EvaluationError naming ``point`` unless ``value``
    is one finite real number: a ``numbers.Real`` or ``Decimal`` (exact
    and arbitrary-precision reals included; float and int are tested
    first, as the cheap case), or a numpy bool or 0-d real array."""
    if not isinstance(value, (float, int, numbers.Real, decimal.Decimal)):
        array = np.asarray(value)
        if array.shape != () or array.dtype.kind not in "biuf":
            raise EvaluationError(
                f"integrand returned {value!r}, not one real number, "
                f"at {point.tolist()}", node=point.copy())
    try:
        value = float(value)
    except OverflowError:  # an int or Fraction beyond the double range
        value = math.inf
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


def write_grid_csv(grid: SparseGrid, path) -> None:
    """One row per node: d coordinates then the weight, each as its
    ``repr``, under an ``x1,...,xd,weight`` header."""
    values = _grid_strings(grid)
    width = grid.d + 1
    # the header, then value, separator, value, ... with each row's last
    # separator a newline
    pieces = [","] * (2 * values.size + 1)
    pieces[0] = ",".join(f"x{q + 1}" for q in range(grid.d)) + ",weight\n"
    pieces[1::2] = values.ravel().tolist()
    pieces[2 * width::2 * width] = ["\n"] * grid.node_count
    text = "".join(pieces)
    del values, pieces  # freed before the text is encoded
    _write_atomically(path, text)


def write_grid_json(grid: SparseGrid, path, family_ref: str) -> None:
    """The grid as one JSON object: d, k, family_ref, nodes (N rows of d
    coordinates) and weights (N values), in the bytes of
    ``json.dump(doc, indent=2)`` plus a newline.  The layout is spelled
    out here, because the encoder would format every coordinate anew."""
    if not isinstance(family_ref, str):
        raise ParameterError(
            f"family_ref must be a string, not {family_ref!r}")
    values = _grid_strings(grid)
    n, d = grid.node_count, grid.d
    # the head, then coordinate, separator, coordinate, ... with each
    # row's last separator closing it and opening the next; the last one
    # closes the nodes and holds the weights
    pieces = [",\n      "] * (2 * n * d + 1)
    pieces[0] = (f'{{\n  "d": {json.dumps(d)},\n'
                 f'  "k": {json.dumps(grid.k)},\n'
                 f'  "family_ref": {json.dumps(family_ref)},\n'
                 '  "nodes": [\n    [\n      ')
    pieces[1::2] = values[:, :d].ravel().tolist()
    pieces[2 * d::2 * d] = ["\n    ],\n    [\n      "] * n
    pieces[-1] = ('\n    ]\n  ],\n  "weights": [\n    '
                  + ",\n    ".join(values[:, d].tolist()) + "\n  ]\n}\n")
    text = "".join(pieces)
    del values, pieces  # freed before the text is encoded
    _write_atomically(path, text)


def _grid_strings(grid: SparseGrid):
    """The ``repr`` of each node's coordinates and then of its weight, as
    an (N, d + 1) object array; ``json`` writes a float as its ``repr``
    too.  A grid holds few distinct values, and each is formatted once;
    distinct means distinct bits, so -0.0 keeps its sign.  Every value is
    finite, as ``SparseGrid`` requires, so a reader takes each back."""
    bits = np.column_stack((grid.nodes, grid.weights)).view(np.int64)
    distinct = _sorted_distinct(bits.ravel())
    text = np.array(list(map(float.__repr__, distinct.view(float).tolist())),
                    dtype=object)
    return text[np.searchsorted(distinct, bits)]


class _ParsedFloats(dict):
    """Number text -> float, parsing each distinct text once."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def read_grid_json(path):
    """(nodes, weights, family_ref) of a ``write_grid_json`` file.

    SchemaError refuses a file that is not JSON or lacks a field, a d
    that is not a positive integer, nodes that are not an (N, d) array
    with N >= 1, weights that are not N values, non-finite values and a
    family_ref that is not a string.  A grid holds few distinct
    coordinates, so each distinct number text is parsed once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_ParsedFloats().__getitem__)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        d = doc["d"]
        nodes = np.array(doc["nodes"], dtype=float)
        weights = np.array(doc["weights"], dtype=float)
        if type(d) is not int or d < 1:
            raise ValueError(f"d must be a positive integer, not {d!r}")
        if (nodes.ndim != 2 or nodes.shape[1] != d or not nodes.size
                or weights.shape != nodes.shape[:1]):
            raise ValueError(f"{nodes.shape} nodes and {weights.shape} "
                             f"weights for d={d}")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("nodes and weights must be finite")
        family_ref = doc["family_ref"]
        if type(family_ref) is not str:
            raise ValueError(
                f"family_ref must be a string, not {family_ref!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed grid ({exc})") from exc
    return nodes, weights, family_ref
