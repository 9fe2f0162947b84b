"""Integration tests for nested-pair generation, extension, and folding."""

import collections
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestquad.errors import (
    CapacityError,
    ConvergenceError,
    NestQuadError,
    ParameterError,
    UnsupportedFamilyError,
)
from nestquad import nested_optimizer
from nestquad.gauss import QuadratureRule, gauss_rule, moment_residuals, \
    recheck, verify_rule
from nestquad.nested_optimizer import (
    OptimizerConfig,
    extend_patterson,
    generate_nested,
    hermite_to_laguerre,
)
from nestquad.orthopoly import (
    RecurrenceTable,
    chebyshev1,
    custom_family,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
)

from oracles import kronrod_rule
from refdata import gauss_kronrod_15


def table_for(family, capacity):
    return recurrence_coefficients(family, capacity + 1)


class TestGenerateNested:
    def test_smallest_pair_recovers_gauss3(self):
        table = table_for(legendre(), 12)
        pair, state = generate_nested(1, table)
        assert pair.fine.exactness_degree == 5
        assert pair.coarse.exactness_degree == 1
        root = math.sqrt(0.6)
        np.testing.assert_allclose(pair.fine.nodes, [-root, 0.0, root],
                                   atol=1e-9)
        np.testing.assert_allclose(pair.fine.weights,
                                   [5 / 18, 4 / 9, 5 / 18], atol=1e-9)
        np.testing.assert_allclose(pair.coarse.nodes, [0.0], atol=1e-9)
        np.testing.assert_allclose(pair.coarse.weights, [1.0], atol=1e-12)
        assert pair.residual_norm <= 1e-12

    def test_kronrod_7_15_matches_published_rule(self):
        table = table_for(legendre(), 30)
        pair, _ = generate_nested(7, table)
        assert pair.fine.exactness_degree == 23
        ref_nodes, ref_weights, ref_coarse_w, subset = gauss_kronrod_15()
        assert pair.subset_map == tuple(subset)
        np.testing.assert_allclose(pair.fine.nodes, ref_nodes, atol=1e-8)
        np.testing.assert_allclose(pair.fine.weights, ref_weights, atol=1e-8)
        np.testing.assert_allclose(pair.coarse.weights, ref_coarse_w,
                                   atol=1e-8)

    def test_table_needs_only_the_start_degree(self):
        # the search starts at 3 n1 + 1 = 10; the table, which stops short
        # of 4 n1 + 1 = 13, is extended there, and the probe fails at 12
        table = recurrence_coefficients(legendre(), 12)
        pair, _ = generate_nested(3, table)
        assert (pair.coarse.exactness_degree,
                pair.fine.exactness_degree) == (5, 11)

    def test_short_table_is_extended_to_the_node_bound(self):
        # a table through 22 stops one short of 2 n2 - 1 = 23, the degree
        # the 15-node rule reaches; the search extends it and returns the
        # rule a longer table gives, bit for bit
        short, _ = generate_nested(7, recurrence_coefficients(legendre(), 22))
        full, _ = generate_nested(7, recurrence_coefficients(legendre(), 40))
        assert short.fine.exactness_degree == full.fine.exactness_degree == 23
        for a, b in ((short.coarse, full.coarse), (short.fine, full.fine)):
            assert a.nodes.tobytes() == b.nodes.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.residual_norm == b.residual_norm

    def test_large_pair_takes_the_normal_equations_step(self, monkeypatch):
        # 53 nodes and 79 weights: 132 unknowns, past the size gate, and
        # every iterate is well conditioned, so no step needs the SVD.  The
        # seed certifies the default start 79 without a step and the probe
        # at 80 takes none, so this search starts at 80, where its second
        # step predicts less than 1% reduction and concedes 80 for 79
        def fail(*args, **kwargs):
            raise AssertionError("SVD called")
        monkeypatch.setattr(nested_optimizer.np.linalg, "svd", fail)
        table = recurrence_coefficients(legendre(), 114)
        pair, state = generate_nested(26, table,
                                      OptimizerConfig(alpha2_initial=80))
        assert (pair.coarse.exactness_degree,
                pair.fine.exactness_degree) == (51, 79)
        assert pair.residual_norm <= 1e-12
        assert state.iteration == 2

    def test_stationary_start_is_conceded_early(self):
        # the generalized-Hermite (rho = 1) pair n1 = 8 stops at a nonzero
        # stationary residual at its start 22; the weak-step test concedes
        # it in at most 23 steps, and the search still certifies (15, 21)
        # with the same nodes and weights, hashed as tests/search_digest.py
        # hashes them
        table = recurrence_coefficients(generalized_hermite(1.0), 42)
        pair, state = generate_nested(8, table)
        rules = (pair.coarse, pair.fine)
        assert tuple(r.exactness_degree for r in rules) == (15, 21)
        arrays = b"".join(r.nodes.tobytes() + r.weights.tobytes()
                          for r in rules)
        assert hashlib.sha256(arrays).hexdigest()[:16] == "0ac114c04721ff97"
        assert state.iteration <= 23

    def test_embedding_is_bit_exact(self):
        table = table_for(legendre(), 16)
        pair, _ = generate_nested(3, table)
        np.testing.assert_array_equal(
            pair.fine.nodes[list(pair.subset_map)], pair.coarse.nodes)

    @pytest.mark.parametrize("subset", [(7,), (-2,)])
    def test_pair_rejects_subset_outside_fine_nodes(self, subset):
        pair, _ = generate_nested(1, table_for(legendre(), 12))
        with pytest.raises(ParameterError, match="index the fine nodes"):
            dataclasses.replace(pair, subset_map=subset)

    def test_certificates_and_mass(self):
        table = table_for(jacobi(0.0, 0.3), 20)
        pair, state = generate_nested(3, table)
        assert pair.residual_norm <= 1e-12
        assert verify_rule(pair.fine, table).norm <= 1e-12
        assert verify_rule(pair.coarse, table).norm <= 1e-12
        assert np.all(pair.fine.weights > 0)
        assert np.all(pair.coarse.weights > 0)
        assert abs(pair.fine.weights.sum() - 1.0) <= 1e-12
        assert abs(pair.coarse.weights.sum() - 1.0) <= 1e-12

    def test_deterministic(self):
        table = table_for(legendre(), 16)
        a, _ = generate_nested(2, table)
        b, _ = generate_nested(2, table)
        np.testing.assert_array_equal(a.fine.nodes, b.fine.nodes)
        np.testing.assert_array_equal(a.fine.weights, b.fine.weights)
        np.testing.assert_array_equal(a.coarse.weights, b.coarse.weights)

    def test_hermite_defaults(self):
        fam = generalized_hermite(0.0)
        table = table_for(fam, 22)
        pair, _ = generate_nested(3, table, OptimizerConfig())
        assert pair.fine.exactness_degree == 9
        assert np.all(pair.fine.weights > 0)

    def test_explicit_config_keeps_the_domain_floor(self):
        # an explicit config on an unbounded weight must search exactly as
        # the default does, with the 1e-13 floor and not the 1e-6 one
        table = recurrence_coefficients(generalized_hermite(1.0), 60)
        default, _ = generate_nested(8, table)
        explicit, _ = generate_nested(8, table, OptimizerConfig())
        for got, want in ((explicit.coarse, default.coarse),
                          (explicit.fine, default.fine)):
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    def test_alpha2_override(self):
        table = table_for(legendre(), 16)
        config = OptimizerConfig(alpha2_initial=7)
        pair, _ = generate_nested(2, table, config)
        assert pair.fine.exactness_degree == 7

    def test_diagnostics_log(self, tmp_path):
        table = table_for(legendre(), 12)
        path = tmp_path / "trace.csv"
        _, state = generate_nested(1, table, log_path=path)
        lines = path.read_text().strip().splitlines()
        header = "iteration,residual_norm,newton_decrement,c_k,lambda,alpha2"
        assert lines[0] == header
        assert len(lines) == state.iteration + 1

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a budget of one step in all, which the first degree with a seed
        # spends, long before the search falls below alpha1 = 29
        monkeypatch.setattr(nested_optimizer, "_BUDGET_DEGREES", 1)
        table = recurrence_coefficients(generalized_laguerre(0.0), 70)
        config = OptimizerConfig(max_iterations=1, alpha2_initial=61)
        with pytest.raises(ConvergenceError, match="budget exhausted") as info:
            generate_nested(15, table, config)
        assert math.isfinite(info.value.best_residual)

    @pytest.mark.parametrize("family, n1, degrees", [
        (legendre(), 1, (1, 5)),
        (generalized_hermite(0.0), 2, (3, 5)),
    ], ids=["legendre", "hermite"])
    def test_table_through_the_start_degree_suffices(self, family, n1,
                                                     degrees):
        # the table stops at the start 2 n1; the search extends it to
        # 2 n2 - 1 and probes up to the pair's full degree
        table = recurrence_coefficients(family, 2 * n1)
        pair, _ = generate_nested(n1, table,
                                  OptimizerConfig(alpha2_initial=2 * n1))
        assert (pair.coarse.exactness_degree,
                pair.fine.exactness_degree) == degrees

    def test_search_reaches_alpha1_plus_one(self):
        # one step per start certifies no degree of this pair
        table = recurrence_coefficients(jacobi(1.24, -0.79), 22)
        with pytest.raises(ConvergenceError, match="minimal degree 6") as info:
            generate_nested(3, table, OptimizerConfig(max_iterations=1))
        # the last attempt is a run of one step at alpha1 + 1, not a
        # degree conceded without a seed
        assert info.value.attempts[-1] == (6, "budget", 1)

    @pytest.mark.parametrize("n1, degrees", [(4, (7, 13)), (5, (9, 15))])
    def test_jacobi_1_minus_half_pairs_certify(self, n1, degrees):
        table = recurrence_coefficients(jacobi(1.0, -0.5), 4 * n1 + 10)
        pair, _ = generate_nested(n1, table)
        assert (pair.coarse.exactness_degree,
                pair.fine.exactness_degree) == degrees
        assert np.all(pair.fine.weights > 0.0)
        assert pair.residual_norm <= 1e-12

    def test_laguerre_pair_reaches_degree_15(self):
        table = recurrence_coefficients(generalized_laguerre(0.0), 34)
        pair, _ = generate_nested(6, table)
        assert pair.fine.exactness_degree >= 15

    def test_rejects_alpha2_at_or_below_alpha1(self):
        table = table_for(legendre(), 12)
        with pytest.raises(ParameterError):
            generate_nested(2, table, OptimizerConfig(alpha2_initial=3))

    def test_start_beyond_the_node_bound_fails_before_the_table(self):
        # no 5-node rule is exact beyond degree 9; a capacity-10 table
        # would raise CapacityError for a larger start, so the
        # ParameterError shows the start is refused before the table
        # is asked for it
        table = recurrence_coefficients(legendre(), 10)
        for start in (10, 10 ** 9):
            with pytest.raises(ParameterError, match="exceeds 9"):
                generate_nested(2, table, OptimizerConfig(alpha2_initial=start))
        pair, _ = generate_nested(2, table, OptimizerConfig(alpha2_initial=9))
        assert pair.fine.exactness_degree == 7

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(alpha=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
           beta=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
           n1=st.integers(1, 3))
    def test_jacobi_pairs_certify_or_fail_by_name(self, alpha, beta, n1):
        family = jacobi(alpha, beta)
        table = recurrence_coefficients(family, 4 * n1 + 10)
        try:
            pair, _ = generate_nested(n1, table)
        except NestQuadError:
            return
        np.testing.assert_array_equal(
            pair.fine.nodes[list(pair.subset_map)], pair.coarse.nodes)
        fresh = recurrence_coefficients(family, pair.fine.exactness_degree)
        for rule in (pair.coarse, pair.fine):
            assert np.all(rule.weights > 0.0)
            assert rule.residual_norm <= 1e-11
            assert verify_rule(rule, fresh).norm <= 10.0 * (
                rule.residual_norm + 1e-16)

    def test_perturbed_custom_pairs_certify_or_fail_by_name(self):
        """Custom recurrences off the classical ones: b scaled by up to 5%
        and a shifted by up to 0.01, each coefficient on its own, on the
        Gershgorin interval of the Jacobi matrix."""
        outcomes = collections.Counter()
        bases = [legendre(), jacobi(0.0, 0.3), jacobi(1.0, -0.5),
                 jacobi(-0.5, -0.5)]

        @settings(max_examples=30, derandomize=True, deadline=None,
                  database=None)
        @given(base=st.sampled_from(bases), n1=st.integers(1, 8),
               seed=st.integers(0, 2 ** 32 - 1))
        def check(base, n1, seed):
            rng = np.random.default_rng(seed)
            capacity = 2 * (2 * n1 + 1)
            classical = recurrence_coefficients(base, capacity)
            a = classical.a + rng.uniform(-0.01, 0.01, capacity + 1)
            b = classical.b * rng.uniform(0.95, 1.05, capacity + 1)
            off = np.sqrt(b[1:])
            radius = np.append(off, 0.0) + np.insert(off, 0, 0.0)
            family = custom_family(a, b, (float(np.min(a - radius)),
                                          float(np.max(a + radius))))
            table = recurrence_coefficients(family, capacity)
            try:
                pair, _ = generate_nested(
                    n1, table, OptimizerConfig(max_iterations=500))
            except NestQuadError as exc:
                assert type(exc) is not NestQuadError
                outcomes[type(exc).__name__] += 1
                return
            outcomes["certified"] += 1
            np.testing.assert_array_equal(
                pair.fine.nodes[list(pair.subset_map)], pair.coarse.nodes)
            fresh = recurrence_coefficients(family,
                                            pair.fine.exactness_degree)
            for rule in (pair.coarse, pair.fine):
                assert np.all(rule.weights > 0.0)
                assert verify_rule(rule, fresh).norm <= 10.0 * (
                    rule.residual_norm + 1e-16)

        check()
        assert outcomes["certified"] >= 1, outcomes


class TestLaurieOracle:
    """Pairs against Laurie's Jacobi-Kronrod matrix (``oracles``), an
    independent construction of the Gauss-Kronrod rule: a fine rule of
    degree 3 n1 + 1 or more on the Gauss nodes is that rule."""

    @pytest.mark.parametrize("family, n1", [
        (legendre(), 3), (legendre(), 10), (legendre(), 30),
        (jacobi(0, 0.3), 5), (jacobi(0, 0.3), 20),
        (chebyshev1(), 3), (chebyshev1(), 7),
        (generalized_hermite(0), 1), (generalized_hermite(0), 2),
    ], ids=lambda v: getattr(v, "kind", v))
    def test_search_finds_the_kronrod_rule(self, family, n1):
        table = recurrence_coefficients(family, 4 * n1 + 10)
        nodes, _ = kronrod_rule(table, n1)
        pair, _ = generate_nested(n1, table)
        assert pair.fine.exactness_degree >= 3 * n1 + 1
        assert np.max(np.abs(np.sort(pair.fine.nodes) - nodes)) <= 1e-13

    @pytest.mark.parametrize("family, n1", [
        (generalized_hermite(0), 3), (generalized_hermite(0), 4),
        (generalized_laguerre(0), 2), (generalized_laguerre(0), 3),
        (jacobi(0, 5), 4),
        (generalized_laguerre(0), 1),  # real, positive, a node at -0.449
    ], ids=lambda v: getattr(v, "kind", v))
    def test_no_kronrod_rule_no_square_degree(self, family, n1):
        table = recurrence_coefficients(family, 4 * n1 + 10)
        assert kronrod_rule(table, n1) is None
        pair, _ = generate_nested(n1, table)
        assert pair.fine.exactness_degree < 3 * n1 + 1

    def test_kronrod_rule_matches_the_published_7_15_rule(self):
        nodes, weights = kronrod_rule(
            recurrence_coefficients(legendre(), 12), 7)
        ref_nodes, ref_weights, _, _ = gauss_kronrod_15()
        np.testing.assert_allclose(nodes, ref_nodes, atol=1e-14)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-14)


def tried(state):
    """(alpha2, outcome) of each attempt the search recorded, in order."""
    return [(alpha2, outcome) for alpha2, outcome, _ in state.attempts]


class TestDegreeSearch:
    """The order in which degrees and starts are tried; iteration counts
    are left out, because they depend on the BLAS."""

    def test_concede_restart_and_failed_probe(self):
        table = table_for(generalized_hermite(1.0), 40)
        base, _ = extend_patterson(gauss_rule(table, 1), table)
        rule, state = extend_patterson(base, table)
        # the start 10 stalls from its node-polynomial seed and is
        # conceded; 9 certifies from its seed; the probe at 10 fails
        assert tried(state) == [(10, "stall"), (9, "certified"),
                                (10, "stall")]
        assert state.restarts == 1
        assert rule.exactness_degree == 9

    def test_probe_climbs_past_the_start(self):
        table = recurrence_coefficients(chebyshev1(), 4 * 7 + 10)
        pair, state = generate_nested(7, table)
        # the seed certifies the start 22 = 3 n1 + 1; the probes at 23 to
        # 27 certify and the over-determined probe at 28 is refused
        assert tried(state) == [(alpha2, "certified") for alpha2 in
                                range(22, 28)] + [(28, "overdetermined")]
        assert state.restarts == 0
        assert pair.fine.exactness_degree == 27

    @pytest.mark.parametrize("failure", ["diverged", "infeasible", "stall",
                                         "plateau", "budget"])
    def test_conceded_degree_successor_starts_at_its_seed(self, monkeypatch,
                                                          failure):
        table = table_for(legendre(), 12)
        config = OptimizerConfig()
        problem = nested_optimizer._pair_problem(2, table, 8, config)
        calls = []

        def solve(problem, d, config, state, log=None, *, ev, **kwargs):
            calls.append((problem.degrees[-1], d, ev))
            if len(calls) == 1:
                failed = np.full_like(d, np.nan) if failure == "diverged" \
                    else d + 1.0
                return failed, failure, None
            if len(calls) == 2:
                return d, "certified", ev
            return d, "stall", None

        monkeypatch.setattr(nested_optimizer, "_solve_degree", solve)
        certificate, state = nested_optimizer._drive(problem, config, 8, 3)
        # 8 fails from its seed and is conceded; 7 starts from its own
        # seed, not from 8's failed iterate, and certifies; the probe at 8
        # starts warm from 7's certified iterate and fails
        assert [alpha2 for alpha2, _, _ in calls] == [8, 7, 8]
        at7 = nested_optimizer._pair_problem(2, table, 7, config)
        seed7, ev7 = nested_optimizer._node_polynomial_seed(at7, 7)
        np.testing.assert_array_equal(calls[1][1], seed7)
        assert calls[1][2].tobytes() == ev7.tobytes()
        assert calls[2][1] is calls[1][1]
        # the probe's evaluation is 7's grown by one row, with the bits of
        # the values of a fresh evaluation at 8
        at8 = nested_optimizer._pair_problem(2, table, 8, config)
        assert calls[2][2].tobytes() == \
            at8.evaluate(seed7)[:, :at8.n].tobytes()
        assert state.restarts == 1
        # the search certifies the iterate of the degree that certified,
        # and leaves the problem at that degree
        assert problem.degrees == [3, 7]
        want = at7.certify(seed7)
        assert [subset for _, subset in certificate] == \
            [subset for _, subset in want]
        for (got, _), (rule, _) in zip(certificate, want):
            assert got.exactness_degree == rule.exactness_degree
            assert got.nodes.tobytes() == rule.nodes.tobytes()
            assert got.weights.tobytes() == rule.weights.tobytes()
            assert got.residual_norm == rule.residual_norm

    def test_overdetermined_probe_takes_no_step(self, tmp_path):
        # the seed of jacobi(0, 0.3) 7 -> 15 certifies the square degree
        # 22 = 3 n + 1 without a step; the probe at 23 adds a moment row
        # and no unknown, so it is conceded without a step either
        table = recurrence_coefficients(jacobi(0.0, 0.3), 68)
        rule = gauss_rule(table, 1)
        for _ in range(2):
            rule, _ = extend_patterson(rule, table)
        path = tmp_path / "search.csv"
        rule, state = extend_patterson(rule, table, log_path=path)
        assert state.attempts == [(22, "certified", 0),
                                  (23, "overdetermined", 0)]
        assert (rule.exactness_degree, state.iteration) == (22, 0)
        # the log holds its header and no step
        assert len(path.read_text().splitlines()) == 1

    def test_symmetric_odd_probe_keeps_its_steps(self, tmp_path):
        # on Legendre, rounding leaves the odd moment of the 31 -> 63 probe
        # at 95 above epsilon; its steps reach Patterson's degree 95, and
        # the even probe at 96 takes none (the start 94 steps as any start)
        table = recurrence_coefficients(legendre(), 132)
        rule = gauss_rule(table, 1)
        for _ in range(4):
            rule, _ = extend_patterson(rule, table)
        path = tmp_path / "search.csv"
        rule, state = extend_patterson(rule, table, log_path=path)
        assert tried(state) == [(94, "certified"), (95, "certified"),
                                (96, "overdetermined")]
        assert [alpha2 for alpha2, _, steps in state.attempts if steps] == \
            [94, 95]
        assert len(path.read_text().splitlines()) == state.iteration + 1
        assert rule.exactness_degree == 95

    def test_odd_probe_over_an_asymmetric_base_takes_no_step(self):
        # Simpson's rule with its right node 5e-12 past 1 is not symmetric,
        # so the odd moments of its extension cannot vanish by symmetry:
        # the seed certifies 10 = 3 n + 1 and the odd probe at 11 is as
        # overdetermined as an even one, conceded without a step
        table = recurrence_coefficients(legendre(), 40)
        nodes = np.array([-1.0, 0.0, 1.0 + 5e-12])
        weights = np.array([1 / 6, 2 / 3, 1 / 6])
        r = moment_residuals(nodes, weights, table, 3)
        base = QuadratureRule(legendre(), nodes, weights, 3,
                              float(np.linalg.norm(r)))
        rule, state = extend_patterson(base, table)
        assert tried(state) == [(10, "certified"), (11, "overdetermined")]
        assert (rule.exactness_degree, state.iteration) == (10, 0)

    def test_one_certificate_per_search(self, monkeypatch):
        # each certified degree passes the feasibility tests once; the
        # certificate (moment residuals, rules, pair) is built once, for
        # the degree the search returns
        checked, certified = [], []
        check = nested_optimizer._MomentProblem.check_feasible
        certify = nested_optimizer._MomentProblem.certify

        def spy_check(problem, d):
            checked.append(problem.degrees[-1])
            return check(problem, d)

        def spy_certify(problem, d):
            certified.append(problem.degrees[-1])
            return certify(problem, d)

        monkeypatch.setattr(nested_optimizer._MomentProblem,
                            "check_feasible", spy_check)
        monkeypatch.setattr(nested_optimizer._MomentProblem, "certify",
                            spy_certify)
        table = recurrence_coefficients(chebyshev1(), 4 * 7 + 10)
        pair, state = generate_nested(7, table)
        # certify checks feasibility once more for the returned degree
        assert checked == [alpha2 for alpha2, outcome in tried(state)
                           if outcome == "certified"] + [27]
        assert checked[:-1] == list(range(22, 28))
        assert certified == [27]
        assert pair.fine.exactness_degree == 27

    def test_each_recurrence_pass_runs_once(self, monkeypatch):
        # a seeded start reuses the seed's values, a probe grows the
        # certified iterate's values by one row, and every other pass
        # carries values and derivatives together: jacobi(0, 0.3) 7 -> 15
        # certifies its seed at 22 and concedes the probe at 23 without a
        # step, so nothing evaluates afresh, the probe adds row 23 to the
        # 23 rows of 22, and nothing differentiates
        events, grown = [], []
        values = nested_optimizer._values
        step = nested_optimizer._damped_step
        solve = nested_optimizer._solve_degree

        def spy_values(table, degree, x, head=None, derivatives=False):
            if head is None:
                events.append("E" if derivatives else "V")
            else:
                grown.append((head.shape[0], degree))
            return values(table, degree, x, head, derivatives)

        def spy_step(J, r, lam):
            events.append("S")
            return step(J, r, lam)

        def spy_solve(*args, **kwargs):
            events.append("|")
            return solve(*args, **kwargs)

        monkeypatch.setattr(nested_optimizer, "_values", spy_values)
        monkeypatch.setattr(nested_optimizer, "_damped_step", spy_step)
        monkeypatch.setattr(nested_optimizer, "_solve_degree", spy_solve)
        table = recurrence_coefficients(jacobi(0.0, 0.3), 68)
        rule = gauss_rule(table, 1)
        for _ in range(2):
            rule, _ = extend_patterson(rule, table)
        events.clear()
        grown.clear()
        _, state = extend_patterson(rule, table)
        assert tried(state) == [(22, "certified"), (23, "overdetermined")]
        assert (events, grown, state.iteration) == (["|", "|"], [(23, 23)], 0)
        # a search that steps runs one pass, values and derivatives
        # together, before each step: a degree that steps from its seed
        # passes once more over the seed for its first step, and once over
        # the iterate its last step reached
        events.clear()
        _, state = extend_patterson(gauss_rule(table, 3), table,
                                    OptimizerConfig(alpha2_initial=11))
        runs = "".join(events).split("|")[1:]
        assert all(re.fullmatch("((ES)+E)?", run) for run in runs), runs
        assert "".join(runs).count("S") == state.iteration > 0

    def test_zero_step_probe_evaluates_nothing_afresh(self, monkeypatch):
        # a probe that may take no step checks its warm start on the
        # certified iterate's evaluation grown by one row: no fresh
        # recurrence pass, and no certificate's either.  The chebyshev1
        # pair n1 = 7 certifies its even probes 24 and 26 that way and
        # fails 28; the jacobi(0, 0.3) extension 7 -> 15 fails 23
        from nestquad import gauss
        probes, fresh, spied = [], [], []
        solve = nested_optimizer._solve_degree

        def spy_solve(problem, d, config, state, log=None, **kwargs):
            spied.clear()
            result = solve(problem, d, config, state, log, **kwargs)
            if kwargs.get("max_steps") == 0:
                probes.append(problem.degrees[-1])
                fresh.append(spied[:])
            return result

        def spy(name, owner, attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                spied.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        spy("evaluate", nested_optimizer._MomentProblem, "evaluate")
        spy("eval_orthonormal", nested_optimizer, "eval_orthonormal")
        spy("moments", gauss, "eval_orthonormal")
        monkeypatch.setattr(nested_optimizer, "_solve_degree", spy_solve)
        pair, _ = generate_nested(
            7, recurrence_coefficients(chebyshev1(), 4 * 7 + 10))
        assert pair.fine.exactness_degree == 27
        table = recurrence_coefficients(jacobi(0.0, 0.3), 68)
        rule = gauss_rule(table, 1)
        for _ in range(3):
            rule, _ = extend_patterson(rule, table)
        assert rule.exactness_degree == 22
        assert probes[:3] == [24, 26, 28] and probes[-1] == 23
        assert fresh == [[]] * len(probes)

    def test_seed_basis_is_built_once_per_search(self, monkeypatch):
        # the generalized-Hermite (rho = 1) pair n1 = 8 seeds the five
        # degrees 25 down to 21, the first four of which have complex
        # roots; its base Gauss rule and its Gauss-g Gram rule are built
        # once, by the first seed
        built, seeded = [], []
        gauss_nodes = nested_optimizer._gauss_nodes
        seed = nested_optimizer._node_polynomial_seed

        def spy_nodes(table, n):
            built.append(n)
            return gauss_nodes(table, n)

        def spy_seed(problem, alpha):
            result = seed(problem, alpha)
            seeded.append((alpha, result is not None))
            return result

        monkeypatch.setattr(nested_optimizer, "_gauss_nodes", spy_nodes)
        monkeypatch.setattr(nested_optimizer, "_node_polynomial_seed",
                            spy_seed)
        table = recurrence_coefficients(generalized_hermite(1.0), 42)
        pair, _ = generate_nested(8, table)
        assert pair.fine.exactness_degree == 21
        assert seeded == [(25, False), (24, False), (23, False),
                          (22, False), (21, True)]
        assert built == [8, 15]

    def test_degree_without_a_seed_is_conceded_without_a_run(
            self, monkeypatch):
        seed = nested_optimizer._node_polynomial_seed

        def no_seed_at_8(problem, alpha):
            return None if alpha == 8 else seed(problem, alpha)

        monkeypatch.setattr(nested_optimizer, "_node_polynomial_seed",
                            no_seed_at_8)
        table = table_for(legendre(), 12)
        pair, state = generate_nested(2, table,
                                      OptimizerConfig(alpha2_initial=8))
        # 8 is conceded before any step; 7 certifies from its seed; the
        # probe at 8, warm from 7's rule, needs no seed and is refused
        assert tried(state) == [(8, "no seed"), (7, "certified"),
                                (8, "overdetermined")]
        assert state.restarts == 1
        assert pair.fine.exactness_degree == 7

    def test_record_lists_the_degrees_without_a_seed(self):
        # the generalized-Hermite (rho = 1) pair n1 = 8: 25 down to 22,
        # whose seeds have complex roots, are conceded without a run; 21
        # certifies its seed without a step and the probe at 22 stalls
        table = recurrence_coefficients(generalized_hermite(1.0), 42)
        _, state = generate_nested(8, table)
        assert [(alpha2, outcome) for alpha2, outcome, _ in
                state.attempts] == [(25, "no seed"), (24, "no seed"),
                                    (23, "no seed"), (22, "no seed"),
                                    (21, "certified"), (22, "stall")]
        assert [steps for *_, steps in state.attempts[:-1]] == [0] * 5
        assert sum(steps for *_, steps in state.attempts) == \
            state.iteration > 0

    def test_budget_cut_search_error_carries_the_record(self, monkeypatch):
        # a whole-search budget of one step: the Laguerre (rho = 0) Gauss-15
        # extension from 61 has no seed down to 34 and spends the step at
        # 33, whose run the budget cuts
        monkeypatch.setattr(nested_optimizer, "_BUDGET_DEGREES", 1)
        table = recurrence_coefficients(generalized_laguerre(0.0), 70)
        config = OptimizerConfig(max_iterations=1, alpha2_initial=61)
        with pytest.raises(ConvergenceError, match="budget exhausted") as info:
            extend_patterson(gauss_rule(table, 15), table, config)
        attempts = info.value.attempts
        assert attempts == [(alpha2, "no seed", 0) for alpha2 in
                            range(61, 33, -1)] + [(33, "search budget", 1)]


class TestExtendPatterson:
    def test_first_legendre_extension_is_gauss3(self):
        table = table_for(legendre(), 12)
        base = gauss_rule(table, 1)
        rule, state = extend_patterson(base, table)
        assert rule.exactness_degree == 5
        root = math.sqrt(0.6)
        np.testing.assert_allclose(rule.nodes, [-root, 0.0, root], atol=1e-9)
        np.testing.assert_allclose(rule.weights, [5 / 18, 4 / 9, 5 / 18],
                                   atol=1e-9)
        # the base node is frozen bit-exactly
        assert rule.nodes[1] == base.nodes[0]

    def test_tightest_certifying_run_keeps_its_degree(self, monkeypatch):
        # laguerre(0) 7 -> 15 (table through 132) certifies 18 in the run
        # whose weakest step comes closest to the stall test of any
        # certifying run in tests/family_sweep.py: its smallest
        # eta / |R| is 0.29, against the _STALL_RATIO of 0.1 that would
        # concede it.  Same nodes and weights as the sweep hashes them
        table = recurrence_coefficients(generalized_laguerre(0.0), 132)
        rule = gauss_rule(table, 1)
        for _ in range(2):
            rule, _ = extend_patterson(rule, table)
        # each degree's log rows, one per step
        rows = collections.defaultdict(list)
        solve = nested_optimizer._solve_degree

        def spy(problem, d, config, state, log=None, **kwargs):
            return solve(problem, d, config, state,
                         rows[problem.degrees[-1]], **kwargs)

        monkeypatch.setattr(nested_optimizer, "_solve_degree", spy)
        rule, _ = extend_patterson(rule, table)
        assert rule.exactness_degree == 18
        digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes())
        assert digest.hexdigest()[:16] == "098f73b4bafdb2fd"
        ratio = min(float(eta) / float(rnorm) for _, rnorm, eta, *_ in
                    (row.split(",") for row in rows[18]))
        assert 2 * nested_optimizer._STALL_RATIO < ratio < 0.3

    def test_chebyshev_chain_hits_closed_forms(self):
        table = table_for(chebyshev1(), 30)
        rule = gauss_rule(table, 1)
        rule, _ = extend_patterson(rule, table)
        assert rule.exactness_degree == 5
        s = math.sqrt(3.0) / 2.0
        np.testing.assert_allclose(rule.nodes, [-s, 0.0, s], atol=1e-9)
        np.testing.assert_allclose(rule.weights, [1 / 3, 1 / 3, 1 / 3],
                                   atol=1e-9)
        rule, _ = extend_patterson(rule, table)
        assert rule.exactness_degree == 11
        expected = np.cos(np.pi * np.arange(6, -1, -1) / 6.0)
        np.testing.assert_allclose(rule.nodes, expected, atol=1e-9)
        np.testing.assert_allclose(
            rule.weights, [1 / 12, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 12],
            atol=1e-9)

    def test_base_nodes_survive_bitwise(self):
        def assert_frozen(rule, base):
            positions = np.searchsorted(rule.nodes, base.nodes)
            assert rule.nodes[positions].tobytes() == base.nodes.tobytes()

        table = table_for(legendre(), 16)
        base = gauss_rule(table, 3)
        rule, _ = extend_patterson(base, table)
        assert rule.n == 7
        assert_frozen(rule, base)
        # chains from one node, where the second base is itself an extension
        for family in (chebyshev1(), jacobi(0.0, 0.3),
                       generalized_hermite(1.0)):
            table = table_for(family, 40)
            rule = gauss_rule(table, 1)
            for n in (3, 7):
                base = rule
                rule, _ = extend_patterson(base, table)
                assert rule.n == n
                assert_frozen(rule, base)

    @pytest.mark.parametrize("excess, degree", [
        (0.0, 11), (1e-13, 11), (5e-12, 10), (5e-10, 10)])
    def test_base_node_past_the_domain_stays_frozen(self, excess, degree):
        # Simpson's rule with its right node up to the boundary slack past
        # 1, as QuadratureRule and load accept it: a frozen node carries no
        # penalty, so the extension certifies and keeps the node as it is
        table = recurrence_coefficients(legendre(), 40)
        nodes = np.array([-1.0, 0.0, 1.0 + excess])
        weights = np.array([1 / 6, 2 / 3, 1 / 6])
        r = moment_residuals(nodes, weights, table, 3)
        base = QuadratureRule(legendre(), nodes, weights, 3,
                              float(np.linalg.norm(r)))
        rule, _ = extend_patterson(base, table)
        assert rule.exactness_degree == degree
        assert rule.nodes[-1] == 1.0 + excess
        assert verify_rule(rule, table, degree).norm <= 1e-12

    def test_deterministic(self):
        table = table_for(legendre(), 16)
        base = gauss_rule(table, 3)
        a, _ = extend_patterson(base, table)
        b, _ = extend_patterson(base, table)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_custom_table_needs_only_the_target_degree(self):
        # 13 coefficients reach the start degree 11 but not degree 13, the
        # certificate degree of the 7-point Gauss rule the seed comes from
        coeffs = recurrence_coefficients(legendre(), 12)
        family = custom_family(coeffs.a, coeffs.b, (-1.0, 1.0))
        table = recurrence_coefficients(family, 12)
        rule, _ = extend_patterson(gauss_rule(table, 3), table)
        assert rule.n == 7 and rule.exactness_degree == 11

    def test_legendre_chain_reaches_pattersons_degrees(self):
        # Patterson's 3-, 7-, 15-, 31- and 63-point rules from the
        # Gauss-1 rule (Math. Comp. 22, 1968)
        table = recurrence_coefficients(legendre(), 132)
        rule, degrees = gauss_rule(table, 1), []
        for _ in range(5):
            rule, _ = extend_patterson(rule, table)
            degrees.append(rule.exactness_degree)
        assert degrees == [5, 11, 23, 47, 95]

    def test_short_table_reaches_pattersons_degree(self):
        # Patterson's 7-point rule has degree 11, one past a table through
        # 10; the search extends it and returns the rule a longer table
        # gives, bit for bit
        base = gauss_rule(recurrence_coefficients(legendre(), 5), 3)
        short, _ = extend_patterson(base, recurrence_coefficients(legendre(),
                                                                  10))
        full, _ = extend_patterson(base, recurrence_coefficients(legendre(),
                                                                 40))
        assert short.exactness_degree == full.exactness_degree == 11
        assert short.nodes.tobytes() == full.nodes.tobytes()
        assert short.weights.tobytes() == full.weights.tobytes()
        assert short.residual_norm == full.residual_norm

    def test_table_short_of_the_new_nodes_polynomial(self, monkeypatch):
        # the custom family's coefficients reach the start 2 and the base's
        # degree 1, but not degree 4 of the polynomial of the 4 new nodes,
        # so no extension of its table can
        def fail(*args, **kwargs):
            raise AssertionError("search started")
        monkeypatch.setattr(nested_optimizer, "_node_polynomial_seed", fail)
        coeffs = recurrence_coefficients(legendre(), 2)
        family = custom_family(coeffs.a, coeffs.b, (-1.0, 1.0))
        table = recurrence_coefficients(family, 2)
        base = QuadratureRule(family, np.array([-0.5, 0.0, 0.5]),
                              np.array([0.25, 0.5, 0.25]), 1, 0.0)
        with pytest.raises(CapacityError,
                           match="degree 4, which the polynomial of the 4 new"):
            extend_patterson(base, table, OptimizerConfig(alpha2_initial=2))

    def test_rejects_family_mismatch(self):
        table = table_for(legendre(), 12)
        base = gauss_rule(table_for(chebyshev1(), 12), 1)
        with pytest.raises(ParameterError):
            extend_patterson(base, table)

    def test_start_beyond_the_node_bound_fails_before_the_table(self):
        # no 7-node rule is exact beyond degree 13, and the table stops at 6
        table = recurrence_coefficients(legendre(), 6)
        base = gauss_rule(table, 3)
        for start in (14, 10 ** 9):
            with pytest.raises(ParameterError, match="exceeds 13"):
                extend_patterson(base, table,
                                 OptimizerConfig(alpha2_initial=start))

    @pytest.mark.parametrize("start", [5, 3, -10 ** 9])
    def test_start_at_or_below_the_base_fails_before_the_table(
            self, monkeypatch, start):
        # the Gauss-3 base is exact through degree 5, so an extension must
        # start above it, as a pair must start above alpha1
        table = recurrence_coefficients(legendre(), 14)
        base = gauss_rule(table, 3)

        def fail(*args, **kwargs):
            raise AssertionError("a table was asked for a degree")
        monkeypatch.setattr(RecurrenceTable, "require", fail)
        with pytest.raises(ParameterError,
                           match=f"alpha2_initial={start} must exceed 5"):
            extend_patterson(base, table,
                             OptimizerConfig(alpha2_initial=start))

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(family=st.one_of(
        st.builds(jacobi, st.floats(-1.0, 5.0, exclude_min=True),
                  st.floats(-1.0, 5.0, exclude_min=True)),
        st.builds(generalized_laguerre,
                  st.floats(-1.0, 3.0, exclude_min=True)),
        st.builds(generalized_hermite, st.floats(0.0, 3.0))))
    def test_chain_steps_certify_or_fail_by_name(self, family):
        # Gauss-1 -> 3 -> 7: every step either raises a named error or
        # certifies a rule that embeds its base bit for bit, passes the
        # re-check of its stored certificate and comes back bit for bit
        # when rerun
        table = recurrence_coefficients(family, 14)
        rule = gauss_rule(table, 1)
        for n in (3, 7):
            try:
                extended, _ = extend_patterson(rule, table)
            except NestQuadError:
                return
            assert extended.n == n
            assert extended.exactness_degree > rule.exactness_degree
            assert np.all(extended.weights > 0.0)
            positions = np.searchsorted(extended.nodes, rule.nodes)
            assert (extended.nodes[positions].tobytes()
                    == rule.nodes.tobytes())
            _, fresh, allowed = recheck(
                table, extended.nodes, extended.weights,
                extended.exactness_degree, extended.residual_norm)
            assert fresh <= allowed
            again, _ = extend_patterson(rule, table)
            assert again.nodes.tobytes() == extended.nodes.tobytes()
            assert again.weights.tobytes() == extended.weights.tobytes()
            assert (again.exactness_degree, again.residual_norm) == (
                extended.exactness_degree, extended.residual_norm)
            rule = extended

    def test_rejects_uncertified_base(self):
        table = table_for(legendre(), 12)
        # a rule whose claimed degree its weights cannot support
        bad = QuadratureRule(legendre(), np.array([-0.5, 0.5]),
                             np.array([0.3, 0.7]), 3, 0.0)
        with pytest.raises(ParameterError):
            extend_patterson(bad, table)


class TestHermiteToLaguerre:
    def _pair(self, n1=3, rho=0.0):
        fam = generalized_hermite(rho)
        table = table_for(fam, 4 * n1 + 12)
        pair, _ = generate_nested(n1, table, OptimizerConfig())
        return pair

    def test_fold_halves_degrees_and_sizes(self):
        pair = self._pair(3)
        lag = hermite_to_laguerre(pair)
        assert lag.family.kind == "generalized_laguerre"
        assert lag.family.params[0] == -0.5
        assert lag.coarse.n == 2 and lag.fine.n == 4
        assert lag.coarse.exactness_degree == 2
        assert lag.fine.exactness_degree == 4
        # Gauss-Hermite-3 squared: {0, 3/2}
        np.testing.assert_allclose(lag.coarse.nodes, [0.0, 1.5], atol=1e-9)

    def test_folded_rules_verify_on_half_line(self):
        pair = self._pair(3)
        lag = hermite_to_laguerre(pair)
        table = table_for(lag.family, 10)
        assert verify_rule(lag.fine, table).norm <= 1e-12
        assert verify_rule(lag.coarse, table).norm <= 1e-12
        assert lag.residual_norm <= 1e-12
        assert abs(lag.fine.weights.sum() - 1.0) <= 1e-12

    def test_embedding_survives_fold(self):
        pair = self._pair(3)
        lag = hermite_to_laguerre(pair)
        np.testing.assert_array_equal(
            lag.fine.nodes[list(lag.subset_map)], lag.coarse.nodes)

    def test_even_coarse_rule_folds(self):
        pair = self._pair(2, rho=1.0)
        lag = hermite_to_laguerre(pair)
        assert lag.family.params[0] == 0.0
        assert lag.coarse.n == 1 and lag.fine.n == 3
        assert lag.residual_norm <= 1e-12

    def test_rejects_non_hermite(self):
        table = table_for(legendre(), 12)
        pair, _ = generate_nested(1, table)
        with pytest.raises(UnsupportedFamilyError):
            hermite_to_laguerre(pair)

    def test_rejects_asymmetric_pair(self):
        pair = self._pair(3)
        fine = pair.fine
        skewed_w = fine.weights.copy()
        skewed_w[0] += 1e-4
        skewed_w[-1] -= 1e-4
        fine2 = QuadratureRule(fine.family, fine.nodes, skewed_w,
                               fine.exactness_degree, 1.0)
        pair2 = type(pair)(pair.coarse, fine2, pair.subset_map, 1.0)
        with pytest.raises(ParameterError):
            hermite_to_laguerre(pair2)
