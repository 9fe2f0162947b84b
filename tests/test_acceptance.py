"""Release gate: each headline result prints one PASS/FAIL line.

The checks run in order and pool the rules, pairs, and grids they produce;
the final sweep re-validates every pooled artifact (positivity, mass,
bit-exact nesting, serialization round-trips, deterministic reruns).  The
summary lines bypass output capture so a full run reads as a checklist.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nestquad.gauss import QuadratureRule, gauss_rule, moment_residuals
from nestquad.nested_optimizer import (
    NestedRulePair,
    OptimizerConfig,
    extend_patterson,
    generate_nested,
    prune_negligible,
)
from nestquad.nested_optimizer import _pair_problem
from nestquad.orthopoly import (
    chebyshev1,
    eval_orthonormal,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
)
from nestquad.rulestore import load, make_pair_record, make_rule_record, save
from nestquad.sparse_grid import (
    gauss_levels,
    nested_levels,
    read_grid_json,
    smolyak_grid,
    tensor_error_bound,
    write_grid_json,
)

from oracles import eval_orthonormal_oracle, family_moments, \
    stieltjes_recurrence
from refdata import gauss_kronrod_15

_POOL: dict[str, object] = {}

_CHAIN_CAPACITY = 70


def _report(capsys, index: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[{index:02d} {'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def _pair_for(family, n1, capacity=None):
    table = recurrence_coefficients(family, capacity or 4 * n1 + 10)
    return generate_nested(n1, table)


def _patterson_chain(family, capacity=_CHAIN_CAPACITY):
    """Yield (rule, state) for three doublings from the 1-point seed."""
    table = recurrence_coefficients(family, capacity)
    rule = gauss_rule(table, 1)
    chain = [rule]
    for _ in range(3):
        rule, state = extend_patterson(rule, table)
        chain.append(rule)
    return table, chain


def _legendre_tensor_moment(powers):
    out = 1.0
    for j in powers:
        if j % 2:
            return 0.0
        out /= j + 1
    return out


def test_01_kronrod_relationship_legendre(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n1 in range(1, 11):
        pair, _ = _pair_for(legendre(), n1)
        want_a2 = 3 * n1 + 1 if n1 % 2 == 0 else 3 * n1 + 2
        ok &= pair.fine.n == 2 * n1 + 1
        ok &= pair.coarse.exactness_degree == 2 * n1 - 1
        ok &= pair.fine.exactness_degree == want_a2
        ok &= pair.residual_norm <= 1e-12
        worst = max(worst, pair.residual_norm)
        _POOL[f"pair legendre n1={n1}"] = pair
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(capsys, 1, ok,
            f"legendre n1=1..10 all reach (2n1+1, 2n1-1, 3n1+1|+2); "
            f"max residual {worst:.2e}; {elapsed:.1f}s")


def test_02_legendre_15_point_cross_check(capsys):
    pair, _ = _pair_for(legendre(), 7)
    shape_ok = (pair.fine.n, pair.coarse.exactness_degree,
                pair.fine.exactness_degree) == (15, 13, 23)

    moments = family_moments("legendre", (), 2 * 23 + 2)
    _, _, polys, norms2 = stieltjes_recurrence(moments, 23)
    values = np.array([
        [float(v) for v in eval_orthonormal_oracle(polys, norms2, 23, x)]
        for x in pair.fine.nodes])
    r = values.T @ pair.fine.weights
    r[0] -= 1.0
    oracle_worst = float(np.max(np.abs(r)))

    ref_nodes, ref_weights, ref_coarse_w, subset = gauss_kronrod_15()
    cross_dev = max(float(np.max(np.abs(pair.fine.nodes - ref_nodes))),
                    float(np.max(np.abs(pair.fine.weights - ref_weights))),
                    float(np.max(np.abs(pair.coarse.weights - ref_coarse_w))))
    cross_ok = cross_dev <= 1e-8 and pair.subset_map == tuple(subset)

    _POOL["pair legendre n1=7 cross-check"] = pair
    ok = shape_ok and oracle_worst <= 1e-12 and cross_ok
    _report(capsys, 2, ok,
            f"legendre n1=7 gives (15, 13, 23); worst oracle moment "
            f"{oracle_worst:.2e}; published 15-point deviation "
            f"{cross_dev:.2e}")


def test_03_jacobi_asymmetric_pair(capsys):
    pair, _ = _pair_for(jacobi(0.0, 0.3), 10)
    shape = (pair.fine.n, pair.coarse.exactness_degree,
             pair.fine.exactness_degree)
    ok = shape == (21, 19, 31) and pair.residual_norm <= 1e-12
    _POOL["pair jacobi(0,0.3) n1=10"] = pair
    _report(capsys, 3, ok,
            f"jacobi(0, 0.3) n1=10 gives {shape}; residual "
            f"{pair.residual_norm:.2e}")


def test_04_hermite_pair_targets(capsys):
    targets = {1: 5, 2: 7, 3: 9, 4: 11, 5: 15, 6: 17, 7: 19, 8: 21}
    ok = True
    achieved = []
    worst = 0.0
    for n1, floor_a2 in targets.items():
        pair, _ = _pair_for(generalized_hermite(0.0), n1)
        ok &= pair.fine.n == 2 * n1 + 1
        ok &= pair.coarse.exactness_degree == 2 * n1 - 1
        ok &= pair.fine.exactness_degree >= floor_a2
        ok &= pair.residual_norm <= 1e-12
        achieved.append(pair.fine.exactness_degree)
        worst = max(worst, pair.residual_norm)
        _POOL[f"pair hermite n1={n1}"] = pair
    _report(capsys, 4, ok,
            f"hermite n1=1..8 reach alpha2={achieved} (targets "
            f"{list(targets.values())}); max residual {worst:.2e}")


def test_05_patterson_legendre_sequence(capsys):
    _, chain = _patterson_chain(legendre())
    got = [(r.n, r.exactness_degree) for r in chain[1:]]
    worst = max(r.residual_norm for r in chain[1:])
    ok = got == [(3, 5), (7, 11), (15, 23)] and worst <= 1e-12
    _POOL["patterson legendre chain"] = chain
    _report(capsys, 5, ok,
            f"patterson legendre reaches {got}; max residual {worst:.2e}")


def test_06_patterson_chebyshev_sequence_and_prune(capsys):
    table, chain = _patterson_chain(chebyshev1())
    got = [(r.n, r.exactness_degree) for r in chain[1:]]
    worst = max(r.residual_norm for r in chain[1:])
    ok = got == [(3, 5), (7, 11), (15, 23)] and worst <= 1e-12

    base = chain[2]
    spot = 0.5 * (base.nodes[3] + base.nodes[4])
    padded = QuadratureRule(
        base.family,
        np.insert(base.nodes, 4, spot),
        np.insert(base.weights, 4, 0.0),
        base.exactness_degree, base.residual_norm,
        weight_floor_relaxed=True)
    pruned = prune_negligible(padded, table)
    prune_ok = (pruned.n == base.n
                and np.array_equal(pruned.nodes, base.nodes)
                and np.array_equal(pruned.weights, base.weights))
    ok &= prune_ok

    _POOL["patterson chebyshev chain"] = chain
    _report(capsys, 6, ok,
            f"patterson chebyshev reaches {got}; max residual {worst:.2e}; "
            f"zero-weight node pruned {padded.n}->{pruned.n}")


def test_07_patterson_hermite_rho1_sequence(capsys):
    _, chain = _patterson_chain(generalized_hermite(1.0))
    got = [(r.n, r.exactness_degree) for r in chain[1:]]
    worst = max(r.residual_norm for r in chain[1:])
    ok = got == [(3, 5), (7, 9), (15, 21)] and worst <= 1e-12
    _POOL["patterson hermite(1) chain"] = chain
    _report(capsys, 7, ok,
            f"patterson hermite(rho=1) reaches {got}; max residual "
            f"{worst:.2e}")


def _legendre_level_families(depth):
    chain = _POOL.get("patterson legendre chain")
    if chain is None:
        _, chain = _patterson_chain(legendre())
    nested = nested_levels(chain[:3], depth)
    table = recurrence_coefficients(legendre(), 2 * depth + 1)
    return nested, gauss_levels(table, depth)


def test_08_sparse_grid_node_counts(capsys):
    t0 = time.perf_counter()
    nested4, gauss4 = _legendre_level_families(6)
    nested10, gauss10 = _legendre_level_families(4)

    counts = {}
    for tag, family, d, ks in (("nested d=4", nested4, 4, range(1, 7)),
                               ("gauss d=4", gauss4, 4, range(1, 7)),
                               ("nested d=10", nested10, 10, range(1, 5)),
                               ("gauss d=10", gauss10, 10, range(1, 5))):
        row = []
        for k in ks:
            grid = smolyak_grid(family, d, k)
            row.append(grid.node_count)
            _POOL[f"grid {tag} k={k}"] = grid
        counts[tag] = row
    elapsed = time.perf_counter() - t0

    ok = (counts["nested d=4"] == [1, 9, 33, 81, 193, 385]
          and counts["gauss d=4"] == [1, 9, 41, 137, 385, 953]
          and counts["nested d=10"] == [1, 21, 201, 1201]
          and counts["gauss d=10"] == [1, 21, 221, 1581]
          and elapsed < 30.0)
    _report(capsys, 8, ok,
            f"node counts d=4 nested {counts['nested d=4']} / gauss "
            f"{counts['gauss d=4']}, d=10 nested {counts['nested d=10']} / "
            f"gauss {counts['gauss d=10']}; {elapsed:.1f}s")


def test_09_smolyak_total_degree_exactness(capsys):
    nested, gauss = _legendre_level_families(4)
    worst = 0.0
    for family in (nested, gauss):
        for d in (2, 3):
            for k in range(1, 5):
                grid = smolyak_grid(family, d, k)
                _POOL[f"grid exactness {family.family.kind} "
                      f"{id(family) == id(nested)} d={d} k={k}"] = grid
                for powers in itertools.product(range(2 * k), repeat=d):
                    if sum(powers) > 2 * k - 1:
                        continue
                    applied = float(
                        np.prod(grid.nodes ** np.array(powers), axis=1)
                        @ grid.weights)
                    worst = max(worst,
                                abs(applied - _legendre_tensor_moment(powers)))
    ok = worst <= 1e-9
    _report(capsys, 9, ok,
            f"total-degree exactness for d=2,3 and k=1..4 on both level "
            f"schedules; worst moment error {worst:.2e}")


def test_10_tensor_error_bound(capsys):
    table = recurrence_coefficients(legendre(), 12)
    g3 = gauss_rule(table, 3)
    alpha = g3.exactness_degree
    basis = eval_orthonormal(table, alpha, g3.nodes)

    direction = np.array([1.0, 0.0, -1.0])
    delta = 1e-6 / float(np.linalg.norm(basis @ direction))
    perturbed_w = g3.weights + delta * direction
    eps = float(np.linalg.norm(
        moment_residuals(g3.nodes, perturbed_w, table, alpha)))
    eps_ok = abs(eps - 1e-6) <= 1e-8

    d = 3
    bound = tensor_error_bound(eps, (alpha,) * d, 1.0)
    applied_max = 0.0
    tensor_w = np.multiply.outer(
        np.multiply.outer(perturbed_w, perturbed_w), perturbed_w).ravel()
    bound_ok = True
    for js in itertools.product(range(alpha + 1), repeat=d):
        p = np.multiply.outer(
            np.multiply.outer(basis[js[0]], basis[js[1]]),
            basis[js[2]]).ravel()
        exact = 1.0 if js == (0, 0, 0) else 0.0
        dev = abs(float(tensor_w @ p) - exact)
        applied_max = max(applied_max, dev)
        bound_ok &= dev <= bound

    rng = np.random.default_rng(7)
    lemma_ok = True
    for k in range(1, 13):
        for lemma_eps in (1e-3, 1e-6):
            for _ in range(200):
                s = rng.uniform(-1.0, 1.0, size=k)
                r = s + rng.uniform(-lemma_eps, lemma_eps, size=k)
                gap = abs(np.prod(s) - np.prod(r))
                lemma_ok &= gap <= k * lemma_eps * (1 + lemma_eps) ** (k - 1)

    ok = eps_ok and bound_ok and lemma_ok
    _report(capsys, 10, ok,
            f"perturbed rule at residual {eps:.3e}: worst tensor-basis "
            f"error {applied_max:.3e} within bound {bound:.3e}; product "
            f"lemma holds through k=12")


def _fd_jacobian(problem, d, c_k, h=1e-7):
    def augmented(v):
        r = problem.residual(v, problem.evaluate(v))
        viol = problem.violations(v)
        return np.concatenate([r, c_k * (viol * viol)])

    cols = []
    for j in range(d.size):
        e = np.zeros_like(d)
        e[j] = h
        cols.append((augmented(d + e) - augmented(d - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def test_11_jacobian_matches_finite_differences(capsys):
    families = (legendre(), chebyshev1(), jacobi(0.0, 0.3),
                generalized_hermite(0.0), generalized_laguerre(0.5))
    rng = np.random.default_rng(2026)
    worst = 0.0
    for family in families:
        table = recurrence_coefficients(family, 13)
        problem = _pair_problem(2, table, 7, OptimizerConfig())
        dom = family.domain
        lo = dom.lo if dom.bounded_below else -3.0
        hi = dom.hi if dom.bounded_above else 3.0
        for _ in range(20):
            x2 = np.sort(rng.uniform(lo + 1e-3, hi - 1e-3, size=5))
            w1 = rng.uniform(1e-3, 0.8, size=2)
            w2 = rng.uniform(1e-3, 0.8, size=5)
            d = np.concatenate([x2, w1, w2])
            c_k = 10.0 ** rng.uniform(0, 4)
            J = problem.jacobian(d, problem.evaluate(d), c_k,
                                 problem.violations(d))
            # at a feasible point the step system is the moment rows, and
            # every penalty row of the full Jacobian is zero
            J_fd = _fd_jacobian(problem, d, c_k)
            ok_rows = not np.any(J_fd[J.shape[0]:])
            err = (np.max(np.abs(J - J_fd[:J.shape[0]]))
                   / max(1.0, np.max(np.abs(J))))
            worst = max(worst, float(err) if ok_rows else math.inf)
    ok = worst <= 1e-6
    _report(capsys, 11, ok,
            f"analytic jacobian vs central differences over 20 feasible "
            f"points x {len(families)} families; worst relative deviation "
            f"{worst:.2e}")


def test_12_large_legendre_informational(capsys):
    t0 = time.perf_counter()
    try:
        pair, state = _pair_for(legendre(), 100)
        elapsed = time.perf_counter() - t0
        shape = (pair.fine.n, pair.coarse.exactness_degree,
                 pair.fine.exactness_degree)
        detail = (f"informational: legendre n1=100 reached {shape} at "
                  f"residual {pair.residual_norm:.2e} in {state.iteration} "
                  f"iterations, {elapsed:.1f}s")
    except Exception as exc:  # stretch run never gates the release
        elapsed = time.perf_counter() - t0
        detail = (f"informational: legendre n1=100 stopped after "
                  f"{elapsed:.1f}s ({exc})")
    _report(capsys, 12, True, detail)


def _round_trip(obj, path):
    if isinstance(obj, NestedRulePair):
        record = make_pair_record(obj)
    else:
        mode = "gauss" if obj.n == 1 else "patterson"
        record = make_rule_record(obj, mode=mode)
    save(record, path)
    back = load(path)
    if isinstance(obj, NestedRulePair):
        return (np.array_equal(back.payload.fine.nodes, obj.fine.nodes)
                and np.array_equal(back.payload.fine.weights,
                                   obj.fine.weights)
                and np.array_equal(back.payload.coarse.weights,
                                   obj.coarse.weights)
                and back.payload.subset_map == obj.subset_map)
    return (np.array_equal(back.payload.nodes, obj.nodes)
            and np.array_equal(back.payload.weights, obj.weights))


def test_13_property_sweep_over_artifacts(capsys, tmp_path):
    pairs = {k: v for k, v in _POOL.items() if isinstance(v, NestedRulePair)}
    chains = {k: v for k, v in _POOL.items() if isinstance(v, list)}
    grids = {k: v for k, v in _POOL.items()
             if not isinstance(v, (NestedRulePair, list))}
    assert len(pairs) >= 19 and len(chains) == 3 and len(grids) >= 20, \
        "earlier checks did not pool their artifacts"

    ok = True
    count = 0
    for i, (label, pair) in enumerate(pairs.items()):
        for rule in (pair.coarse, pair.fine):
            ok &= bool(np.all(rule.weights > 0.0))
            ok &= abs(math.fsum(rule.weights) - 1.0) <= 1e-12
        ok &= np.array_equal(pair.fine.nodes[list(pair.subset_map)],
                             pair.coarse.nodes)
        ok &= _round_trip(pair, tmp_path / f"pair{i}.json")
        count += 1
    for i, (label, chain) in enumerate(chains.items()):
        for j, rule in enumerate(chain):
            ok &= bool(np.all(rule.weights > 0.0))
            ok &= abs(math.fsum(rule.weights) - 1.0) <= 1e-12
            ok &= set(chain[max(0, j - 1)].nodes.tolist()) \
                <= set(rule.nodes.tolist())
            ok &= _round_trip(rule, tmp_path / f"chain{i}-{j}.json")
            count += 1
    for i, (label, grid) in enumerate(grids.items()):
        ok &= abs(math.fsum(grid.weights) - 1.0) <= 1e-12
        write_grid_json(grid, tmp_path / f"grid{i}.json", "legendre")
        nodes, weights, _ = read_grid_json(tmp_path / f"grid{i}.json")
        ok &= np.array_equal(nodes, grid.nodes)
        ok &= np.array_equal(weights, grid.weights)
        count += 1

    rerun_pair, _ = _pair_for(legendre(), 4)
    first = _POOL["pair legendre n1=4"]
    ok &= np.array_equal(rerun_pair.fine.nodes, first.fine.nodes)
    ok &= np.array_equal(rerun_pair.fine.weights, first.fine.weights)
    _, rerun_chain = _patterson_chain(chebyshev1())
    for fresh, pooled in zip(rerun_chain,
                             _POOL["patterson chebyshev chain"]):
        ok &= np.array_equal(fresh.nodes, pooled.nodes)
        ok &= np.array_equal(fresh.weights, pooled.weights)
    nested4, _ = _legendre_level_families(6)
    rerun_grid = smolyak_grid(nested4, 4, 3)
    pooled_grid = _POOL["grid nested d=4 k=3"]
    ok &= np.array_equal(rerun_grid.nodes, pooled_grid.nodes)
    ok &= np.array_equal(rerun_grid.weights, pooled_grid.weights)

    _report(capsys, 13, ok,
            f"{count} pooled artifacts: positive weights, unit mass, "
            f"bit-exact nesting, serialization round-trips, and reruns "
            f"are bitwise identical")
