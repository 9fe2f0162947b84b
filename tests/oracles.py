"""Independent high-precision oracles used to freeze expected test values.

Everything here is built from first principles with mpmath: exact moment
sequences per weight family, a Stieltjes/Gram-Schmidt recurrence builder
working on polynomial coefficient lists, and coefficient-based polynomial
evaluation.  The Smolyak reference merge is the plain dict-of-tuples
merge, kept as the bitwise reference for the package's integer-key merge.
No imports from the package under test, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import math

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
    drop provably keeps degree-(2k-1) exactness.  Returns (nodes, weights).
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
                table[point] = table.get(point, 0.0) + wq

    points = sorted(table.keys())
    weights = np.array([table[p] for p in points])
    nodes = np.array(points, dtype=float).reshape(len(points), d)
    small = np.abs(weights) < 1e-15
    if np.any(small):
        mags = np.prod(np.maximum(1.0, np.abs(nodes)), axis=1) ** (2 * k - 1)
        if float(np.sum(np.abs(weights[small]) * mags[small])) <= 1e-12:
            nodes = nodes[~small]
            weights = weights[~small]
    return nodes, weights
