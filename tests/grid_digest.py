"""Digest of Smolyak grid assembly, for before/after comparisons.

Builds the four grids of the benchmark's ``grid`` workload (the Legendre
Patterson chain 1 -> 3 -> 7 -> 15 at d = 8, k = 7; d = 10, k = 7 and
d = 20, k = 4, and Gauss levels at d = 8, k = 5), the same chain at
d = 23, k = 4, the asymmetric jacobi(0, 0.3) chain 1 -> 3 -> 7 at
d = 5, k = 4 and d = 3, k = 6, and Gauss levels with k > d (Legendre at
d = 2, k = 6 and jacobi(0, 0.3) at d = 3, k = 5).  It prints one line
per grid: its node count, the number of distinct multisets of
coordinates among its nodes (``smolyak_grid`` computes one weight per
multiset), a sha256 of its node bytes, a sha256 of its weight bytes,
the largest |w - w_ref| / max |w_ref| against the plain dict merge
``oracles.reference_smolyak``, which sums each node's block terms in
block order, and ``float.hex`` of ``integrate`` of the smooth
integrand cos(0.5 + 0.3 (x_1 + ... + x_d)).  Two trees build the same
grids exactly when the hashes are equal; a change that only re-rounds the
weights keeps the node hashes and moves the weight hashes by a gap of a
few ulps.  Two trees integrate the same bits exactly when the hex
columns are equal:

    PYTHONPATH=src python tests/grid_digest.py > after.txt

The script runs the tree it sits in; to digest an older tree, copy it and
``script_support.py`` into that tree's ``tests`` and run it there.

BLAS is pinned to one thread (``script_support``).  The full run takes a
few seconds on a 2-CPU x86 host, most of them in the dict merge.  pytest
does not collect this file.
"""

# first: pins BLAS before numpy loads and puts this tree's src on the path
from script_support import sha

import warnings

import numpy as np

import nestquad as nq
from nestquad.sparse_grid import _canonical_levels
from oracles import reference_smolyak


def _chain(family, steps):
    table = nq.recurrence_coefficients(family, 4 * (2 ** (steps + 1) - 1) + 8)
    chain = [nq.gauss_rule(table, 1)]
    for _ in range(steps):
        chain.append(nq.extend_patterson(chain[-1], table)[0])
    return table, chain


def _line(name, levels, d, k) -> str:
    grid = nq.smolyak_grid(levels, d, k)
    ref_weights = reference_smolyak(
        _canonical_levels(levels, k),
        [levels.rule(i).weights for i in range(1, k + 1)], d, k)[1]
    gap = (np.max(np.abs(grid.weights - ref_weights))
           / np.max(np.abs(ref_weights)))
    integral = nq.integrate(grid, _smooth)
    nodes, weights = sha(grid.nodes.tobytes()), sha(grid.weights.tobytes())
    multisets = len(np.unique(np.sort(grid.nodes, axis=1), axis=0))
    return (f"{name} d={d} k={k}: nodes {grid.node_count}, multisets "
            f"{multisets}, sha256 nodes "
            f"{nodes} weights {weights}, "
            f"max|dw|/max|w| vs dict merge {gap:.2e}, "
            f"integral {integral.hex()}")


def _smooth(x):
    return np.cos(0.5 + 0.3 * x.sum(axis=-1))


def main():
    warnings.simplefilter("ignore")  # chains below the 2i - 1 convention
    legendre_table, legendre_chain = _chain(nq.legendre(), 3)
    nested = nq.nested_levels(legendre_chain, 7)
    jacobi_table, jacobi_chain = _chain(nq.jacobi(0.0, 0.3), 2)
    jacobi_nested = nq.nested_levels(jacobi_chain, 6)
    grids = [
        ("legendre nested", nested, 8, 7),
        ("legendre nested", nested, 10, 7),
        ("legendre nested", nested, 20, 4),
        ("legendre gauss", nq.gauss_levels(legendre_table, 5), 8, 5),
        ("legendre nested", nested, 23, 4),
        ("jacobi(0,0.3) nested", jacobi_nested, 5, 4),
        ("jacobi(0,0.3) nested", jacobi_nested, 3, 6),
        ("legendre gauss", nq.gauss_levels(legendre_table, 6), 2, 6),
        ("jacobi(0,0.3) gauss", nq.gauss_levels(jacobi_table, 5), 3, 5),
    ]
    for name, levels, d, k in grids:
        print(_line(name, levels, d, k))


if __name__ == "__main__":
    main()
