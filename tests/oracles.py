"""Independent high-precision oracles used to freeze expected test values.

Everything here is built from first principles with mpmath: exact moment
sequences per weight family, a Stieltjes/Gram-Schmidt recurrence builder
working on polynomial coefficient lists, and coefficient-based polynomial
evaluation.  The Smolyak reference merge is the plain dict-of-tuples
merge, kept as the bitwise reference for the package's grid nodes; its
rational twin sums the same blocks exactly, as the reference for the
grid weights.
The moment-matching references are the former separate assemblies of the
nested-pair and the frozen-node extension problems, kept as the bitwise
reference for the package's shared kernel; they take the package's
recurrence evaluation and its derivative as arguments, since only the
assembly around them is under test.  The textbook recurrence loops are
the bitwise reference for the package's in-place recurrence kernel.
Laurie's Jacobi-Kronrod matrix gives an independent Gauss-Kronrod rule
to check nested pairs against.  No
imports from the package under test, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 60


def legendre_moments(n: int):
    """Moments of w = 1/2 on [-1, 1]: m_k = 1/(k+1) for even k, else 0."""
    return [mp.mpf(1) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            for k in range(n + 1)]


def chebyshev1_moments(n: int):
    """Moments of w = 1/(pi sqrt(1-x^2)): central binomial over 2^k."""
    out = []
    for k in range(n + 1):
        if k % 2:
            out.append(mp.mpf(0))
        else:
            out.append(mp.binomial(k, k // 2) / mp.mpf(2) ** k)
    return out


def jacobi_moments(alpha, beta, n: int):
    """Moments of the normalized Jacobi weight (1-x)^a (1+x)^b on [-1, 1].

    Substituting t = (1+x)/2 turns each moment into a finite Beta-function
    sum, exact to working precision.
    """
    alpha, beta = mp.mpf(alpha), mp.mpf(beta)
    mass = mp.beta(beta + 1, alpha + 1)
    out = []
    for k in range(n + 1):
        acc = mp.mpf(0)
        for j in range(k + 1):
            acc += (mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j)
                    * mp.beta(beta + j + 1, alpha + 1))
        out.append(acc / mass)
    return out


def generalized_hermite_moments(rho, n: int):
    """Moments of |x|^rho exp(-x^2) / Gamma((rho+1)/2) on the real line."""
    rho = mp.mpf(rho)
    mass = mp.gamma((rho + 1) / 2)
    return [mp.gamma((rho + k + 1) / 2) / mass if k % 2 == 0 else mp.mpf(0)
            for k in range(n + 1)]


def generalized_laguerre_moments(rho, n: int):
    """Moments of x^rho exp(-x) / Gamma(rho+1) on the half line."""
    rho = mp.mpf(rho)
    mass = mp.gamma(rho + 1)
    return [mp.gamma(rho + k + 1) / mass for k in range(n + 1)]


def _poly_mul_x(p):
    return [mp.mpf(0)] + list(p)


def _poly_axpy(alpha, p, q):
    """alpha*p + q on coefficient lists (ascending powers)."""
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else mp.mpf(0)
        b = q[i] if i < len(q) else mp.mpf(0)
        out.append(alpha * a + b)
    return out


def _inner(p, q, moments):
    acc = mp.mpf(0)
    for i, ci in enumerate(p):
        if ci == 0:
            continue
        for j, cj in enumerate(q):
            if cj == 0:
                continue
            acc += ci * cj * moments[i + j]
    return acc


def stieltjes_recurrence(moments, n_coeffs: int, dps: int = DPS):
    """Orthonormal recurrence coefficients a_0..a_N, b_0..b_N from moments.

    Runs the Stieltjes procedure on monic polynomials held as exact
    coefficient lists; needs moments up to order 2*N + 1.  Also returns the
    monic polynomials and their squared norms for independent evaluation.
    """
    with mp.workdps(dps):
        moments = [mp.mpf(m) for m in moments]
        need = 2 * n_coeffs + 2
        if len(moments) < need:
            raise ValueError(f"need {need} moments, got {len(moments)}")
        a, b = [], []
        polys, norms2 = [], []
        pi_prev, pi = None, [mp.mpf(1)]
        norm2 = moments[0]
        norm2_prev = None
        b.append(moments[0])
        for k in range(n_coeffs + 1):
            polys.append(list(pi))
            norms2.append(norm2)
            a_k = _inner(_poly_mul_x(pi), pi, moments) / norm2
            a.append(a_k)
            if k == n_coeffs:
                break
            nxt = _poly_axpy(-a_k, pi, _poly_mul_x(pi))
            if pi_prev is not None:
                b_k = norm2 / norm2_prev
                nxt = _poly_axpy(-b_k, pi_prev, nxt)
            pi_prev, pi = pi, nxt
            norm2_prev, norm2 = norm2, _inner(pi, pi, moments)
            b.append(norm2 / norm2_prev)
        return a, b, polys, norms2


def eval_orthonormal_oracle(polys, norms2, degree: int, x, dps: int = DPS):
    """Evaluate orthonormal p_0..p_degree at scalar x by Horner on the
    monic coefficient lists (independent of any forward recurrence)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        out = []
        for j in range(degree + 1):
            acc = mp.mpf(0)
            for c in reversed(polys[j]):
                acc = acc * x + c
            out.append(acc / mp.sqrt(norms2[j]))
        return out


def family_moments(kind: str, params, n: int, dps: int = DPS):
    with mp.workdps(dps):
        if kind == "legendre":
            return legendre_moments(n)
        if kind == "chebyshev1":
            return chebyshev1_moments(n)
        if kind == "jacobi":
            return jacobi_moments(params[0], params[1], n)
        if kind == "generalized_hermite":
            return generalized_hermite_moments(params[0], n)
        if kind == "generalized_laguerre":
            return generalized_laguerre_moments(params[0], n)
        raise ValueError(kind)


def oracle_recurrence(kind: str, params, n_coeffs: int, dps: int = DPS):
    """(a, b) orthonormal coefficients as floats for direct comparison."""
    with mp.workdps(dps):
        moments = family_moments(kind, params, 2 * n_coeffs + 2)
        a, b, _, _ = stieltjes_recurrence(moments, n_coeffs, dps)
        return [float(v) for v in a], [float(v) for v in b]


def oracle_gauss(kind: str, params, n: int, dps: int = DPS):
    """n-point Gauss rule from the oracle recurrence via mpmath eigensym.

    Solves the Jacobi-matrix eigenproblem in high precision; weights are
    b_0 times the squared first eigenvector components.
    """
    with mp.workdps(dps):
        moments = family_moments(kind, params, 2 * n + 2)
        a, b, _, _ = stieltjes_recurrence(moments, n, dps)
        T = mp.zeros(n)
        for i in range(n):
            T[i, i] = a[i]
        for i in range(1, n):
            off = mp.sqrt(b[i])
            T[i - 1, i] = off
            T[i, i - 1] = off
        E, V = mp.eigsy(T)
        pairs = sorted((E[i], b[0] * V[0, i] ** 2) for i in range(n))
        nodes = [float(p[0]) for p in pairs]
        weights = [float(p[1]) for p in pairs]
        return nodes, weights


def _compositions(total: int, d: int):
    """All d-tuples of positive integers summing to total, colexicographic
    (last coordinate varies slowest)."""
    if d == 1:
        yield (total,)
        return
    for last in range(1, total - d + 2):
        for head in _compositions(total - last, d - 1):
            yield head + (last,)


def reference_smolyak(levels, level_weights, d: int, k: int):
    """Level-k Smolyak grid by summing tensor-block points into a dict.

    ``levels`` holds the node arrays of levels 1..k, with nodes that should
    merge already equal, and ``level_weights`` their weights.  Blocks go
    shell by shell in colexicographic order, points within a block in
    lexicographic order; each node's weight is summed in that order from
    0.0, the nodes are sorted, and weights below 1e-15 are dropped when the
    drop provably keeps degree-(2k-1) exactness.  Returns (nodes, weights,
    scales), where a node's scale is the sum of the magnitudes of the
    terms summed into its weight (A(u) of ``exact_smolyak``, in floats).
    """
    table = {}
    for r in range(max(0, k - d), k):
        coeff = (-1.0) ** (k - 1 - r) * math.comb(d - 1, k - 1 - r)
        for ivec in _compositions(d + r, d):
            mesh = np.meshgrid(*[levels[i - 1] for i in ivec], indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            w = level_weights[ivec[0] - 1]
            for i in ivec[1:]:
                w = np.multiply.outer(w, level_weights[i - 1])
            w = coeff * w.ravel()
            for point, wq in zip(map(tuple, pts.tolist()), w.tolist()):
                total, scale = table.get(point, (0.0, 0.0))
                table[point] = (total + wq, scale + abs(wq))

    points = sorted(table.keys())
    weights = np.array([table[p][0] for p in points])
    scales = np.array([table[p][1] for p in points])
    nodes = np.array(points, dtype=float).reshape(len(points), d)
    small = np.abs(weights) < 1e-15
    if np.any(small):
        mags = np.prod(np.maximum(1.0, np.abs(nodes)), axis=1) ** (2 * k - 1)
        if float(np.sum(np.abs(weights[small]) * mags[small])) <= 1e-12:
            nodes = nodes[~small]
            weights = weights[~small]
            scales = scales[~small]
    return nodes, weights, scales


def exact_smolyak(levels, level_weights, d: int, k: int) -> dict:
    """Level-k Smolyak weights summed exactly, block by block.

    Takes the inputs of ``reference_smolyak`` and visits the same blocks,
    but sums in ``fractions.Fraction``, which holds every float and every
    product of floats exactly.  Maps each node tuple that some block
    reaches to (W, A): W is its weight, the sum over blocks of c_r times
    the product of the block's weights, and A the sum of |c_r| times the
    product of their magnitudes, which scales the rounding of any float
    summation of those terms.  Nothing is dropped.
    """
    table = {}
    rules = [list(zip(nodes.tolist(), map(Fraction, weights.tolist())))
             for nodes, weights in zip(levels, level_weights)]
    for r in range(max(0, k - d), k):
        coeff = (-1) ** (k - 1 - r) * math.comb(d - 1, k - 1 - r)
        for ivec in _compositions(d + r, d):
            points = [((), Fraction(coeff))]
            for i in ivec:
                points = [(point + (x,), w * wx) for point, w in points
                          for x, wx in rules[i - 1]]
            for point, w in points:
                total, scale = table.get(point, (0, 0))
                table[point] = (total + w, scale + abs(w))
    return table


def _bounds(domain):
    lo = domain.lo if domain.bounded_below else -math.inf
    hi = domain.hi if domain.bounded_above else math.inf
    return lo, hi


def _violations(x2, w1, w2, domain, config):
    """Signed penalty violations: (node excess, w2 shortfall, w1 shortfall).

    The weight floor is 1e-6 on a bounded domain and 1e-13 otherwise.
    """
    floor = 1e-6 if domain.bounded else 1e-13
    lo, hi = _bounds(domain)
    node = np.zeros_like(x2)
    if domain.bounded_above:
        node = np.maximum(node, x2 - hi)
    if domain.bounded_below:
        node = np.maximum(node, lo - x2)
    if config.allow_negative_weights:
        v2 = np.zeros_like(w2)
        v1 = np.zeros_like(w1)
    else:
        v2 = np.maximum(0.0, floor - w2)
        v1 = np.maximum(0.0, floor - w1)
    return node, v2, v1


def _node_penalty_gradient(x2, domain):
    lo, hi = _bounds(domain)
    grad = np.zeros(x2.size)
    above = x2 > hi
    below = x2 < lo
    grad[above] = 2.0 * (x2[above] - hi)
    grad[below] = -2.0 * (lo - x2[below])
    return grad


def reference_pair(evaluate, differentiate, d, table, dims, c_k, config):
    """(moment residual, penalties, Jacobian) of the nested-pair problem.

    ``evaluate(table, degree, x)`` gives the values p_j(x_i), rows j, and
    ``differentiate(table, x, values)`` their derivatives.

    d = (x_2, w_1, w_2); the coarse rule reads its nodes through
    ``dims.subset_map``.  Each rule gets its own recurrence evaluation.
    """
    n1, n2 = dims.n1, dims.n2
    a1, a2 = dims.alpha1, dims.alpha2
    x2, w1, w2 = d[:n2], d[n2:n2 + n1], d[n2 + n1:]
    sub = list(dims.subset_map)
    x1 = x2[sub]
    target = math.sqrt(table.b[0])
    V1 = evaluate(table, a1, x1)
    V2 = evaluate(table, a2, x2)
    r1 = V1 @ w1
    r1[0] -= target
    r2 = V2 @ w2
    r2[0] -= target
    residual = np.concatenate([r1, r2])

    domain = table.family.domain
    node, v2, v1 = _violations(x2, w1, w2, domain, config)
    penalties = np.concatenate([node * node, v2 * v2, v1 * v1])

    n_moments = a1 + a2 + 2
    J = np.zeros((n_moments + 2 * n2 + n1, n1 + 2 * n2))
    J[:a1 + 1, sub] = differentiate(table, x1, V1) * w1
    J[:a1 + 1, n2:n2 + n1] = V1
    J[a1 + 1:n_moments, :n2] = differentiate(table, x2, V2) * w2
    J[a1 + 1:n_moments, n2 + n1:] = V2
    rows = np.arange(n2)
    J[n_moments + rows, rows] = c_k * _node_penalty_gradient(x2, domain)
    J[n_moments + n2 + rows, n2 + n1 + rows] = -2.0 * c_k * v2
    rows1 = np.arange(n1)
    J[n_moments + 2 * n2 + rows1, n2 + rows1] = -2.0 * c_k * v1
    return residual, penalties, J


def reference_extension(evaluate, differentiate, d, table, alpha2, n_frozen,
                        c_k, config):
    """(moment residual, penalties, Jacobian) of the frozen-node extension.

    d = (x_2, w_2) with the frozen nodes in the trailing ``n_frozen`` slots
    of x_2; the Jacobian omits their columns.
    """
    n2 = d.size // 2
    x2, w2 = d[:n2], d[n2:]
    V = evaluate(table, alpha2, x2)
    r = V @ w2
    r[0] -= math.sqrt(table.b[0])

    domain = table.family.domain
    node, v2, _ = _violations(x2, np.empty(0), w2, domain, config)
    penalties = np.concatenate([node * node, v2 * v2])

    J = np.zeros((alpha2 + 1 + 2 * n2, 2 * n2))
    J[:alpha2 + 1, :n2] = differentiate(table, x2, V) * w2
    J[:alpha2 + 1, n2:] = V
    base = alpha2 + 1
    rows = np.arange(n2)
    J[base + rows, rows] = c_k * _node_penalty_gradient(x2, domain)
    J[base + n2 + rows, n2 + rows] = -2.0 * c_k * v2
    free = np.concatenate([np.arange(n2 - n_frozen), n2 + np.arange(n2)])
    return r, penalties, J[:, free]


def textbook_recurrence(table, degree, x):
    """The three-term recurrence and its derivative as two plain row loops,
    values first, then derivatives from them: the reference the package's
    in-place kernel must reproduce bit for bit."""
    a, b = table.a, table.b
    sqrt_b = np.sqrt(b)
    p = np.empty((degree + 1, x.size))
    p[0] = 1.0 / sqrt_b[0]
    if degree >= 1:
        p[1] = (x - a[0]) * p[0] / sqrt_b[1]
    for m in range(1, degree):
        p[m + 1] = ((x - a[m]) * p[m] - sqrt_b[m] * p[m - 1]) / sqrt_b[m + 1]
    q = np.zeros_like(p)
    if degree >= 1:
        q[1] = p[0] / sqrt_b[1]
    for m in range(1, degree):
        q[m + 1] = ((x - a[m]) * q[m] - sqrt_b[m] * q[m - 1]
                    + p[m]) / sqrt_b[m + 1]
    return p, q


def kronrod_rule(table, n1: int):
    """The (2 n1 + 1)-point Gauss-Kronrod rule of the table's weight from
    Laurie's Jacobi-Kronrod matrix (D.P. Laurie, Math. Comp. 66, 1997),
    built as in the loop of Gautschi's ``r_kronrod``, as (nodes, weights)
    with ascending nodes; None where no such rule is real and positive
    (some b_k <= 0) or a node lies more than 1e-12 outside the family's
    domain.  ``table`` holds the monic a_k and b_k (b_0 the mass) through
    index ceil(3 n1 / 2)."""
    n = n1
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    a[:3 * n // 2 + 1] = table.a[:3 * n // 2 + 1]
    b[:(3 * n + 1) // 2 + 1] = table.b[:(3 * n + 1) // 2 + 1]
    s, t = np.zeros(n // 2 + 3), np.zeros(n // 2 + 3)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += ((a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k]
                  - b[l] * s[k + 1])
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += (-(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                  + b[l] * s[j + 2])
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + ((s[j + 1] - b[k + n + 1] * s[j + 2])
                                   / t[j + 2])
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    if not np.all(b[1:] > 0):
        return None
    off = np.sqrt(b[1:])
    nodes, vectors = np.linalg.eigh(np.diag(a) + np.diag(off, 1)
                                    + np.diag(off, -1))
    domain = table.family.domain
    if nodes[0] < domain.lo - 1e-12 or nodes[-1] > domain.hi + 1e-12:
        return None
    return nodes, b[0] * vectors[0] ** 2
