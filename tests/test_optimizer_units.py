"""Unit tests for the building blocks of the nested-rule optimizer."""

import math
import types

import numpy as np
import pytest

from nestquad import nested_optimizer
from nestquad.errors import (
    ConvergenceError,
    FeasibilityError,
    NumericalError,
    ParameterError,
)
from nestquad.gauss import QuadratureRule, _gauss_nodes, gauss_rule, \
    verify_rule
from nestquad.nested_optimizer import (
    OptimizerConfig,
    OptimizerState,
    generate_nested,
    penalty_coefficient,
    prune_negligible,
)
from nestquad.nested_optimizer import _DAMPING, _NORMAL_MIN_COLS, \
    _PLATEAU_RUN, _STALL_RATIO, \
    _MomentProblem, \
    _damped_step, _node_polynomial_seed, _normal_solve, _pair_problem, \
    _solve_degree, _step_from_svd
from nestquad.orthopoly import (
    _values,
    chebyshev1,
    eval_orthonormal,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
)

from oracles import eval_orthonormal_oracle, stieltjes_recurrence, family_moments
from oracles import reference_extension, reference_pair, \
    textbook_recurrence
from refdata import gauss_kronrod_15


def derivatives(table, x, values):
    """p'_0..p'_degree at x for the rows p_0..p_degree ``values``: the
    derivative half of a recurrence pass with derivatives."""
    return _values(table, values.shape[0] - 1, x,
                   derivatives=True)[:, x.size:]


def table_for(family, capacity):
    return recurrence_coefficients(family, capacity + 1)


def residual(problem, d):
    return problem.residual(d, problem.evaluate(d))


def penalties(problem, d):
    v = problem.violations(d)
    return v * v


def active(problem, d):
    """Rows of [R; c_k P] in the step system: every moment row and each
    violated penalty row."""
    n_moments = sum(alpha + 1 for alpha in problem.degrees)
    return np.concatenate([np.ones(n_moments, dtype=bool),
                           problem.violations(d) != 0.0])


def decrement(step, J, r):
    """eta = |step . (J^T r)|^(1/2), the Newton decrement of a step."""
    return math.sqrt(abs(float(np.dot(step, J.T @ r))))


def interlaced_start(problem):
    """A test point of the problem's layout: its Gauss nodes, shrunk on an
    unbounded domain to the span of the Gauss rule of (alpha + 1)//2
    points, alpha the last block's degree, with uniform weights per block;
    with frozen nodes, the movable ones take every second Gauss node and
    the frozen ones stay out of d."""
    table = problem.table
    x = _gauss_nodes(table, problem.n)
    m = (problem.degrees[-1] + 1) // 2
    if not table.family.domain.bounded and m < problem.n:
        x = x * (np.max(np.abs(_gauss_nodes(table, m))) / np.max(np.abs(x)))
    if problem.frozen.size:
        x = x[0::2]
    mass = float(table.b[0])
    return np.concatenate(
        [x] + [np.full(idx.size, mass / idx.size) for idx in problem.idx])


class TestOptimizerConfig:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.epsilon == 1e-12
        assert config.max_iterations == 5000
        assert not config.allow_negative_weights
        assert config.alpha2_initial is None

    def test_family_defaults_relax_floor_on_unbounded(self):
        # the weight floor follows the domain, whatever the config
        for family, floor in ((legendre(), 1e-6),
                              (generalized_hermite(0.0), 1e-13),
                              (generalized_laguerre(0.0), 1e-13)):
            problem = _pair_problem(1, table_for(family, 5), 5,
                                    OptimizerConfig())
            assert problem.weight_floor == floor

    def test_invalid(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(epsilon=0.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(max_iterations=0)


class TestAssembleResidual:
    def test_uniform_weights_zero_mass_rows(self):
        table = table_for(legendre(), 12)
        problem = _pair_problem(2, table, 8, OptimizerConfig())
        r = residual(problem, interlaced_start(problem))
        assert r.shape == (3 + 8 + 2,)
        # both mass rows vanish for uniform weights
        assert abs(r[0]) < 1e-15
        assert abs(r[3 + 1]) < 1e-15
        assert np.max(np.abs(r)) > 1e-3

    def test_matches_high_precision_evaluation(self):
        fam = legendre()
        table = table_for(fam, 12)
        problem = _pair_problem(2, table, 8, OptimizerConfig())
        d = interlaced_start(problem)
        r = residual(problem, d)
        # d = (x_2, w_1, w_2); the coarse rule sits on fine nodes 1 and 3
        alpha1, alpha2 = 3, 8
        x2, w1, w2 = d[:5], d[5:7], d[7:]
        x1 = x2[[1, 3]]
        moments = family_moments(fam.kind, fam.params, 2 * alpha2 + 4)
        _, _, polys, norms2 = stieltjes_recurrence(moments, alpha2 + 1)
        cols1 = [eval_orthonormal_oracle(polys, norms2, alpha1, x)
                 for x in x1]
        cols2 = [eval_orthonormal_oracle(polys, norms2, alpha2, x)
                 for x in x2]
        expected = []
        for j in range(alpha1 + 1):
            acc = sum(float(c[j]) * w for c, w in zip(cols1, w1))
            expected.append(acc - (1.0 if j == 0 else 0.0))
        for j in range(alpha2 + 1):
            acc = sum(float(c[j]) * w for c, w in zip(cols2, w2))
            expected.append(acc - (1.0 if j == 0 else 0.0))
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_published_kronrod_pair_is_a_root(self):
        nodes, weights, coarse_w, subset = gauss_kronrod_15()
        table = table_for(legendre(), 29)
        problem = _pair_problem(7, table, 23, OptimizerConfig())
        np.testing.assert_array_equal(problem.idx[0], subset)
        d = np.concatenate([nodes, coarse_w, weights])
        assert np.linalg.norm(residual(problem, d)) <= 1e-12

    def test_wrong_subset_spikes_coarse_rows(self):
        nodes, weights, coarse_w, _ = gauss_kronrod_15()
        table = table_for(legendre(), 23)
        problem = _MomentProblem(15, [(range(7), 13), (range(15), 23)],
                                 OptimizerConfig(), table)
        d = np.concatenate([nodes, coarse_w, weights])
        assert np.linalg.norm(residual(problem, d)[:14]) > 1e-2


class TestPenaltyTerms:
    """Penalties of the pair layout with n_1 = 1: d = (x_2, w_1, w_2),
    rows ordered [nodes; w_2; w_1]."""

    @staticmethod
    def _penalties(d, family=legendre(), config=None):
        problem = _pair_problem(1, table_for(family, 5), 5,
                                config or OptimizerConfig())
        return penalties(problem, np.array(d))

    def test_node_violation_squared(self):
        p = self._penalties([-0.5, 0.0, 1.1, 0.5, 0.2, 0.2, 0.2])
        assert p.shape == (2 * 3 + 1,)
        assert p[0] == 0.0 and p[1] == 0.0
        assert p[2] == (1.1 - 1.0) ** 2

    def test_weight_floor_violation_squared(self):
        p = self._penalties([-0.5, 0.0, 0.5, 0.5, 0.2, -0.02, 0.2])
        # w2 block follows the n2 node entries
        assert p[3 + 1] == (0.02 + 1e-6) ** 2
        assert p[3 + 0] == 0.0 and p[3 + 2] == 0.0

    def test_coarse_weight_block_is_last(self):
        p = self._penalties([-0.5, 0.0, 0.5, -1.0, 0.2, 0.2, 0.2])
        assert p[6] == (1.0 + 1e-6) ** 2
        assert np.all(p[:6] == 0.0)

    def test_feasible_point_is_all_zero(self):
        p = self._penalties([-0.5, 0.0, 0.5, 0.5, 0.2, 0.2, 0.2])
        assert np.all(p == 0.0)

    def test_unbounded_domain_has_no_node_penalty(self):
        p = self._penalties([-50.0, 0.0, 50.0, 0.5, 0.2, 0.2, 0.2],
                            generalized_hermite(0.0))
        assert np.all(p[:3] == 0.0)

    def test_half_line_penalizes_below_only(self):
        p = self._penalties([-0.5, 1.0, 1e9, 0.5, 0.2, 0.2, 0.2],
                            generalized_laguerre(0.0))
        assert p[0] == 0.25 and p[1] == 0.0 and p[2] == 0.0

    def test_allow_negative_disables_weight_floor(self):
        config = OptimizerConfig(allow_negative_weights=True)
        p = self._penalties([-0.5, 0.0, 0.5, -1.0, 0.2, -0.5, 0.2],
                            config=config)
        assert np.all(p == 0.0)


class TestPenaltyCoefficient:
    def test_large_residual_uses_floor(self):
        assert penalty_coefficient(10.0) == 1e3

    def test_small_residual_grows(self):
        assert penalty_coefficient(1e-9) == pytest.approx(
            1e9, rel=1e-15)

    def test_zero_residual_caps(self):
        assert penalty_coefficient(0.0) == 1e16
        assert penalty_coefficient(1e-20) == 1e16

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            penalty_coefficient(-1.0)
        with pytest.raises(ParameterError):
            penalty_coefficient(math.nan)


def _fd_jacobian(problem, d, c_k, h=1e-7):
    """Central differences of all of [R; c_k P], penalty rows included."""
    def augmented(v):
        return np.concatenate([residual(problem, v),
                               c_k * penalties(problem, v)])

    cols = []
    for j in range(d.size):
        e = np.zeros_like(d)
        e[j] = h
        cols.append((augmented(d + e) - augmented(d - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def jacobian(problem, d, c_k):
    return problem.jacobian(d, problem.evaluate(d), c_k,
                            problem.violations(d))


class TestAssembleJacobian:
    def test_shape(self):
        problem = _pair_problem(1, table_for(legendre(), 8), 3,
                                OptimizerConfig())
        d = np.array([-0.5, 0.1, 0.5, 1.0, 0.4, 0.3, 0.3])
        J = jacobian(problem, d, 1e3)
        # (1 + 3 + 2 moments, n_1 + 2 n_2 unknowns): no penalty is violated
        assert J.shape == (6, 7)
        # one row more per violated penalty: a node and a fine weight
        d[0], d[4] = -1.1, -0.2
        assert jacobian(problem, d, 1e3).shape == (6 + 2, 7)

    @pytest.mark.parametrize("family", [
        legendre(),
        chebyshev1(),
        jacobi(0.0, 0.3),
        generalized_hermite(0.0),
        generalized_laguerre(0.5),
    ], ids=lambda f: f.kind)
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(42)
        problem = _pair_problem(2, table_for(family, 12), 7,
                                OptimizerConfig())
        dom = family.domain
        lo = dom.lo if dom.bounded_below else -3.0
        hi = dom.hi if dom.bounded_above else 3.0
        for _ in range(20):
            # keep every coordinate at least 1e-3 away from a penalty kink
            x2 = np.sort(rng.uniform(lo + 1e-3, hi - 1e-3, size=5))
            w1 = rng.uniform(1e-3, 0.8, size=2)
            w2 = rng.uniform(1e-3, 0.8, size=5)
            d = np.concatenate([x2, w1, w2])
            c_k = 10.0 ** rng.uniform(0, 4)
            J = jacobian(problem, d, c_k)
            J_fd = _fd_jacobian(problem, d, c_k)
            assert not np.any(J_fd[~active(problem, d)])
            err = (np.max(np.abs(J - J_fd[active(problem, d)]))
                   / max(1.0, np.max(np.abs(J))))
            assert err <= 1e-6

    def test_finite_differences_with_active_penalties(self):
        problem = _pair_problem(2, table_for(legendre(), 12), 7,
                                OptimizerConfig())
        rng = np.random.default_rng(7)
        for _ in range(10):
            x2 = np.sort(rng.uniform(-0.9, 0.9, size=5))
            x2[-1] = 1.0 + rng.uniform(0.01, 0.2)  # outside the domain
            w1 = rng.uniform(0.1, 0.8, size=2)
            w2 = rng.uniform(0.1, 0.8, size=5)
            w2[0] = -rng.uniform(0.01, 0.2)  # below the floor
            d = np.concatenate([x2, w1, w2])
            c_k = 1e3
            J = jacobian(problem, d, c_k)
            assert J.shape[0] == 4 + 8 + 2
            J_fd = _fd_jacobian(problem, d, c_k)
            err = (np.max(np.abs(J - J_fd[active(problem, d)]))
                   / max(1.0, np.max(np.abs(J))))
            assert err <= 1e-6

    def test_coarse_rows_accumulate_through_subset(self):
        # moving a non-shared fine node must not touch coarse rows
        problem = _pair_problem(1, table_for(legendre(), 8), 3,
                                OptimizerConfig())
        d = np.array([-0.5, 0.1, 0.5, 1.0, 0.4, 0.3, 0.3])
        J = jacobian(problem, d, 1e3)
        coarse_rows = J[:1 + 1]  # alpha1 = 1
        assert np.all(coarse_rows[:, 0] == 0.0)  # x2[0] not in subset
        assert np.any(coarse_rows[:, 1] != 0.0)  # x2[1] shared
        # fine weight columns (after x_2 and w_1) never feed coarse rows
        assert np.all(coarse_rows[:, 3 + 1:] == 0.0)


KERNEL_FAMILIES = [legendre(), jacobi(0.0, 0.3), generalized_hermite(1.0),
                   generalized_laguerre(0.5)]


def _kernel_points(d0, n, n_movable, domain, rng):
    """A feasible point near d0 and one with active node and weight
    penalties in every block that can have them."""
    feasible = d0.copy()
    spread = np.min(np.diff(np.sort(d0[:n])))
    feasible[:n_movable] += rng.uniform(-0.1, 0.1, n_movable) * spread
    feasible[n:] *= rng.uniform(0.5, 1.5, d0.size - n)
    active = feasible.copy()
    if domain.bounded_below:
        active[0] = domain.lo - 0.05
    if domain.bounded_above:
        active[n_movable - 1] = domain.hi + 0.05
    active[n] = -0.01
    active[-1] = -0.02
    return feasible, active


class TestMomentKernel:
    """The shared kernel reproduces the former per-layout assemblies bit
    for bit at the rows of the step system, including the memory order
    that later products depend on."""

    @staticmethod
    def _same(got, want):
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous

    @pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=lambda f: f.kind)
    def test_pair_layout_matches_reference(self, family):
        rng = np.random.default_rng(5)
        table = table_for(family, 30)
        config = OptimizerConfig()
        problem = _pair_problem(3, table, 11, config)
        dims = types.SimpleNamespace(n1=3, n2=7, alpha1=5, alpha2=11,
                                     subset_map=(1, 3, 5))
        d0 = interlaced_start(problem)
        feasible, active = _kernel_points(d0, 7, 7, family.domain, rng)
        for d in (d0, feasible, active):
            c_k = 10.0 ** rng.uniform(0, 8)
            r, p, J = reference_pair(eval_orthonormal, derivatives, d,
                                     table, dims, c_k, config)
            assert np.any(p != 0.0) == (d is active)
            # one evaluation with derivatives feeds residual and Jacobian
            ev = problem.evaluate(d)
            v = problem.violations(d)
            self._same(problem.residual(d, ev), r)
            self._same(v * v, p)
            rows = np.concatenate([np.ones(r.size, dtype=bool), p != 0.0])
            self._same(problem.jacobian(d, ev, c_k, v), J[rows])

    @pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=lambda f: f.kind)
    def test_extension_layout_matches_reference(self, family):
        rng = np.random.default_rng(6)
        table = table_for(family, 30)
        config = OptimizerConfig()
        base = gauss_rule(table, 3)
        problem = _MomentProblem(7, [(range(7), 11)], config, table,
                                 frozen=base.nodes)
        d0 = interlaced_start(problem)
        # d holds the 4 movable nodes and the 7 weights
        assert d0.size == 4 + 7
        np.testing.assert_array_equal(problem.nodes(d0)[4:], base.nodes)
        feasible, active = _kernel_points(d0, 4, 4, family.domain, rng)
        for d in (d0, feasible, active):
            c_k = 10.0 ** rng.uniform(0, 8)
            # the reference reads the frozen nodes from its own d
            full = np.concatenate([problem.nodes(d), d[4:]])
            r, p, J = reference_extension(eval_orthonormal, derivatives,
                                          full, table, 11, base.n, c_k,
                                          config)
            assert np.any(p != 0.0) == (d is active)
            ev = problem.evaluate(d)
            v = problem.violations(d)
            self._same(problem.residual(d, ev), r)
            self._same(v * v, p)
            rows = np.concatenate([np.ones(r.size, dtype=bool), p != 0.0])
            self._same(problem.jacobian(d, ev, c_k, v), J[rows])

    @pytest.mark.parametrize("layout", ["pair", "extension"])
    @pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=lambda f: f.kind)
    def test_fused_evaluation_matches_separate_passes(self, family, layout):
        # the Jacobian from one pass with derivatives equals, byte for
        # byte, the Jacobian from a values pass and a derivative pass over
        # its values, and the one a values-only start gets
        rng = np.random.default_rng(7)
        table = table_for(family, 30)
        if layout == "pair":
            problem = _pair_problem(3, table, 11, OptimizerConfig())
            n_movable = 7
        else:
            problem = _MomentProblem(7, [(range(7), 11)], OptimizerConfig(),
                                     table, frozen=gauss_rule(table, 3).nodes)
            n_movable = 4
        d0 = interlaced_start(problem)
        points = _kernel_points(d0, n_movable, n_movable, family.domain, rng)
        for d in (d0, *points):
            c_k = 10.0 ** rng.uniform(0, 8)
            v = problem.violations(d)
            p, q = textbook_recurrence(table, 11, problem.nodes(d))
            fused = problem.evaluate(d)
            J = problem.jacobian(d, fused, c_k, v)
            for ev in (np.hstack([p, q]), eval_orthonormal(table, 11,
                                                           problem.nodes(d))):
                assert (problem.residual(d, ev).tobytes()
                        == problem.residual(d, fused).tobytes())
                assert problem.jacobian(d, ev, c_k, v).tobytes() == \
                    J.tobytes()

    def test_certify_snaps_only_movable_nodes(self):
        table = table_for(legendre(), 30)
        # a frozen node just past the bound, within the snap tolerance
        frozen = np.array([-0.5, 0.0, 1.0 + 5e-10])
        problem = _MomentProblem(7, [(range(7), 5)], OptimizerConfig(), table,
                                 frozen=frozen)
        d = interlaced_start(problem)
        d[0] = -1.0 - 4e-10
        ((rule, subset),) = problem.certify(d)
        assert rule.nodes[0] == -1.0
        assert rule.nodes[-1] == 1.0 + 5e-10
        positions = np.searchsorted(rule.nodes, frozen)
        np.testing.assert_array_equal(rule.nodes[positions], frozen)
        assert subset == tuple(range(7))

    def test_certify_rejects_large_violation(self):
        table = table_for(legendre(), 30)
        problem = _pair_problem(1, table, 5, OptimizerConfig())
        d = np.array([-0.5, 0.0, 0.5, 1.0, 0.3, -1e-3, 0.7])
        with pytest.raises(FeasibilityError, match="below the floor"):
            problem.certify(d)
        d = np.array([-0.5, 0.0, 1.0 + 1e-6, 1.0, 0.3, 0.4, 0.3])
        with pytest.raises(FeasibilityError, match="violate the domain"):
            problem.certify(d)
        d = np.array([-0.5, 0.0, 0.0, 1.0, 0.3, 0.4, 0.3])
        with pytest.raises(FeasibilityError, match="collided"):
            problem.certify(d)

    def test_certify_rejects_small_nonpositive_weight(self):
        # on an unbounded domain the floor is 1e-13, so a weight of -5e-10
        # passes the 1e-9 shortfall test and must still be refused
        table = table_for(generalized_hermite(0.0), 12)
        pair, _ = generate_nested(2, table)
        problem = _pair_problem(2, table, pair.fine.exactness_degree,
                                OptimizerConfig())
        assert pair.subset_map == tuple(problem.idx[0])
        d = np.concatenate([pair.fine.nodes, pair.coarse.weights,
                            pair.fine.weights])
        fine = problem.weights[1]
        d[fine.start + 1] += d[fine.start] + 5e-10
        d[fine.start] = -5e-10
        assert np.max(problem.violations(d)[problem.n:]) < 1e-9
        with pytest.raises(FeasibilityError, match="not all positive"):
            problem.certify(d)
        # allowed negative weights still certify it
        relaxed = _pair_problem(2, table, pair.fine.exactness_degree,
                                OptimizerConfig(allow_negative_weights=True))
        relaxed.certify(d)


FD_FAMILIES = [legendre(), chebyshev1(), jacobi(0.0, 0.3),
               generalized_hermite(0.0), generalized_laguerre(0.5)]


class TestActiveRows:
    """The step system keeps every moment row and leaves out only penalty
    rows that are zero in both J and the residual."""

    def test_moment_row_with_exactly_zero_residual_stays(self):
        # the coarse block's one node sits at 0, where p_1(0) = 0 exactly
        problem = _pair_problem(1, table_for(legendre(), 8), 4,
                                OptimizerConfig())
        d = np.array([-0.5, 0.0, 0.5, 1.0, 0.6, 0.8, 0.6])
        r = residual(problem, d)
        assert r[1] == 0.0
        J = jacobian(problem, d, 1e3)
        assert J.shape[0] == 2 + 5
        assert np.any(J[1] != 0.0)

    def test_keeps_exactly_the_violated_penalty_rows(self):
        problem = _pair_problem(2, table_for(legendre(), 12), 7,
                                OptimizerConfig())
        # d = (x, coarse w, fine w): nodes 0 and 4 outside [-1, 1], fine
        # weight 1 and coarse weight 0 below the floor; penalty rows are
        # the nodes, then the fine and the coarse weights
        d = np.array([-1.2, -0.5, 0.0, 0.5, 1.1,
                      -0.3, 0.7,
                      0.3, -0.1, 0.2, 0.4, 0.5])
        n_moments = 4 + 8
        violated = np.flatnonzero(problem.violations(d))
        np.testing.assert_array_equal(violated, [0, 4, 6, 10])
        J = jacobian(problem, d, 1e3)
        assert J.shape == (n_moments + 4, 12)
        # each kept penalty row touches its own unknown only: nodes 0 and
        # 4, fine weight 1 (column 5 + 2 + 1) and coarse weight 0 (column 5)
        cols = [np.flatnonzero(row).tolist() for row in J[n_moments:]]
        assert cols == [[0], [4], [8], [5]]

    def test_dropped_rows_are_zero(self):
        rng = np.random.default_rng(8)
        config = OptimizerConfig()
        dims = types.SimpleNamespace(n1=2, n2=5, alpha1=3, alpha2=7,
                                     subset_map=(1, 3))
        for family in FD_FAMILIES:
            table = table_for(family, 12)
            problem = _pair_problem(2, table, 7, config)
            for d in _kernel_points(interlaced_start(problem), 5, 5,
                                    family.domain, rng):
                # the full system of [R; c_k P], every penalty row included
                r, p, J = reference_pair(eval_orthonormal, derivatives,
                                         d, table, dims, 1e3, config)
                rt = np.concatenate([r, 1e3 * p])
                dropped = ~active(problem, d)
                assert np.all(J[dropped] == 0.0)
                assert np.all(rt[dropped] == 0.0)

    @pytest.mark.parametrize("family", FD_FAMILIES, ids=lambda f: f.kind)
    # lambda fixed at 1e-3 sigma_max, or the driver's _DAMPING |[R; c_k P]|
    @pytest.mark.parametrize("driver_lambda", [False, True])
    # at degree 6 a feasible point keeps 11 rows for 12 unknowns, so the
    # trimmed SVD has one singular value fewer than the full one
    @pytest.mark.parametrize("alpha2", [6, 7])
    def test_trimmed_step_matches_full_step(self, family, driver_lambda,
                                            alpha2):
        rng = np.random.default_rng(9)
        config = OptimizerConfig()
        table = table_for(family, 12)
        problem = _pair_problem(2, table, alpha2, config)
        dims = types.SimpleNamespace(n1=2, n2=5, alpha1=3, alpha2=alpha2,
                                     subset_map=(1, 3))
        for _ in range(5):
            points = _kernel_points(interlaced_start(problem), 5, 5,
                                    family.domain, rng)
            for d, penalized in zip(points, (False, True)):
                c_k = 10.0 ** rng.uniform(0, 4)
                # the full system from the reference assembly
                r, p, J = reference_pair(eval_orthonormal, derivatives,
                                         d, table, dims, c_k, config)
                rt = np.concatenate([r, c_k * p])
                rows = active(problem, d)
                J_step = jacobian(problem, d, c_k)
                assert (J_step.shape[0] > 4 + alpha2 + 1) == penalized
                u, s, vt = np.linalg.svd(J, full_matrices=False)
                lam = (_DAMPING * np.linalg.norm(rt) if driver_lambda
                       else 1e-3 * s[0])
                full = _step_from_svd(u, s, vt, rt, lam)
                trimmed, eta = _damped_step(J_step, rt[rows], lam)
                assert (np.linalg.norm(trimmed - full)
                        <= 1e-10 * np.linalg.norm(full))
                assert eta == pytest.approx(decrement(full, J, rt),
                                            rel=1e-12)


class TestSolveDegree:
    """One Gauss-Newton run at a fixed degree and its six outcomes."""

    @staticmethod
    def _problem(n1, alpha2, config):
        table = table_for(legendre(), 2 * alpha2)
        problem = _pair_problem(n1, table, alpha2, config)
        return problem, interlaced_start(problem)

    def test_certified_at_published_kronrod_root(self):
        problem, _ = self._problem(7, 23, OptimizerConfig())
        nodes, weights, coarse_weights, subset = gauss_kronrod_15()
        assert tuple(subset) == tuple(problem.idx[0])
        d = np.concatenate([nodes, coarse_weights, weights])
        state = OptimizerState()
        root, outcome, ev = _solve_degree(problem, d, OptimizerConfig(),
                                          state)
        assert outcome == "certified"
        assert state.best_residual <= 1e-12
        assert state.iteration == 0
        # the run returns the root untouched with its evaluation, which a
        # probe would grow; the certificate is left to the search
        assert root is d
        assert ev.tobytes() == problem.evaluate(d).tobytes()
        (coarse, subset), (fine, _) = problem.certify(root)
        assert (coarse.exactness_degree, fine.exactness_degree) == (13, 23)
        assert subset == tuple(problem.idx[0])
        np.testing.assert_array_equal(fine.nodes, nodes)

    def test_diverged_from_non_finite_iterate(self):
        problem, d0 = self._problem(1, 5, OptimizerConfig())
        d0[0] = np.nan
        state = OptimizerState()
        _, outcome, _ = _solve_degree(problem, d0, OptimizerConfig(), state)
        assert outcome == "diverged"
        assert state.iteration == 0

    def test_stall_at_unreachable_degree(self):
        # no 3-node rule integrates degree 6 exactly
        config = OptimizerConfig(max_iterations=300)
        problem, d0 = self._problem(1, 6, config)
        state = OptimizerState()
        _, outcome, _ = _solve_degree(problem, d0, config, state)
        assert outcome == "stall"
        assert 0 < state.iteration <= 300
        assert state.best_residual > config.epsilon

    def test_decrement_stall_ends_the_degree(self):
        # no 3-node rule reaches degree 6.  The degree ends at its first
        # weak step, one whose decrement falls below _STALL_RATIO times the
        # |R| it was computed at, while every decrement is still above
        # epsilon and long before the plateau test or the per-degree
        # budget could end it
        config = OptimizerConfig(max_iterations=1000)
        problem, d0 = self._problem(1, 6, config)
        state = OptimizerState()
        log = []
        _, outcome, _ = _solve_degree(problem, d0, config, state, log)
        assert outcome == "stall"
        assert 0 < state.iteration < _PLATEAU_RUN
        # each logged row is one step: the |R| it was computed at and its
        # decrement
        rnorm, eta = np.array([[float(v) for v in row.split(",")[1:3]]
                               for row in log]).T
        weak = eta < _STALL_RATIO * rnorm
        assert weak[-1] and not np.any(weak[:-1])
        assert np.all(eta > config.epsilon)
        assert state.best_residual > 100.0 * config.epsilon

    def test_plateau_ends_the_degree_without_the_decrement_test(
            self, monkeypatch):
        # with no step weak enough to stall, the degree-6 run ends
        # _PLATEAU_RUN steps after its last new best residual
        monkeypatch.setattr(nested_optimizer, "_STALL_RATIO", 0.0)
        config = OptimizerConfig(max_iterations=1000)
        problem, d0 = self._problem(1, 6, config)
        state = OptimizerState()
        log = []
        _, outcome, _ = _solve_degree(problem, d0, config, state, log)
        assert outcome == "plateau"
        rnorm = [float(row.split(",")[1]) for row in log]
        last_best = int(np.argmin(rnorm))
        assert state.iteration - last_best == _PLATEAU_RUN
        assert state.best_residual > 100.0 * config.epsilon

    @pytest.mark.parametrize("max_steps", [0, 1, 3])
    def test_budget_ends_the_degree(self, max_steps):
        # the per-degree step budget ends the degree-6 run before the
        # decrement test does; with 0 the call only checks the start
        config = OptimizerConfig(max_iterations=1000)
        problem, d0 = self._problem(1, 6, config)
        state = OptimizerState()
        d, outcome, ev = _solve_degree(problem, d0, config, state,
                                       max_steps=max_steps)
        assert (outcome, ev) == ("budget", None)
        assert state.iteration == max_steps
        if max_steps == 0:
            assert d is d0

    def test_infeasible_root_is_not_certified(self):
        # the Legendre extension of the Gauss-1 rule (node 0 frozen) at
        # degree 1, from both movable nodes at 0 and all weights 1/3: the
        # residual is zero at once, but the nodes have collided
        table = table_for(legendre(), 3)
        problem = _MomentProblem(3, [(range(3), 1)], OptimizerConfig(),
                                 table, frozen=[0.0])
        # d = (two movable nodes, three weights)
        d = np.array([0.0, 0.0, 1 / 3, 1 / 3, 1 / 3])
        assert np.all(residual(problem, d) == 0.0)
        state = OptimizerState()
        _, outcome, certificate = _solve_degree(problem, d, OptimizerConfig(),
                                                state)
        assert (outcome, certificate) == ("infeasible", None)
        assert state.iteration == 0
        with pytest.raises(FeasibilityError, match="collided"):
            problem.certify(d)

    def test_spent_budget_raises(self):
        config = OptimizerConfig(max_iterations=1)
        problem, d0 = self._problem(1, 5, config)
        state = OptimizerState(iteration=40)
        with pytest.raises(ConvergenceError, match="budget exhausted"):
            _solve_degree(problem, d0, config, state)


def svd_step(J, r, lam):
    u, s, vt = np.linalg.svd(J, full_matrices=False)
    return _step_from_svd(u, s, vt, r, lam)


class TestTikhonovStep:
    def test_diagonal_filter_values(self):
        J = np.diag([1.0, 1e-8])
        r = np.array([1.0, 1.0])
        step = svd_step(J, r, 1e-4)
        # sigma/(sigma^2 + lambda^2) against each component
        expected = np.array([1.0 / (1.0 + 1e-8), 1e-8 / (1e-16 + 1e-8)])
        np.testing.assert_allclose(step, expected, rtol=1e-15)

    def test_zero_lambda_recovers_least_squares(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        step = svd_step(J, J @ z, 0.0)
        np.testing.assert_allclose(step, z, rtol=1e-10)

    def test_exact_zero_directions_are_dropped(self):
        J = np.diag([1.0, 0.0])
        step = svd_step(J, np.array([1.0, 1.0]), 0.0)
        np.testing.assert_allclose(step, [1.0, 0.0], atol=1e-15)


class TestDampedStep:
    """The normal-equations route against the SVD filter it stands in for."""

    @staticmethod
    def _system(rng, n, rows_extra=20):
        J = rng.normal(size=(n + rows_extra, n))
        r = rng.normal(size=n + rows_extra)
        return J, r, _DAMPING * float(np.linalg.norm(r))

    @staticmethod
    def _no_svd(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("SVD called")
        monkeypatch.setattr(np.linalg, "svd", fail)

    @pytest.mark.parametrize("n", [130, 200, 300])
    def test_well_conditioned_matches_svd_step(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        J, r, lam = self._system(rng, n)
        expected = svd_step(J, r, lam)
        self._no_svd(monkeypatch)
        step, eta = _damped_step(J, r, lam)
        assert (np.linalg.norm(step - expected)
                <= 1e-8 * np.linalg.norm(expected))
        assert eta == pytest.approx(decrement(step, J, r), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 60, _NORMAL_MIN_COLS - 1])
    def test_small_system_is_the_svd_step_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        J, r, lam = self._system(rng, n)
        expected = svd_step(J, r, lam)
        step, eta = _damped_step(J, r, lam)
        np.testing.assert_array_equal(step, expected)
        assert eta == decrement(expected, J, r)

    def test_ill_conditioned_large_system_falls_back_to_svd(self):
        # a zero column and no damping make J^T J + lam^2 I singular
        rng = np.random.default_rng(5)
        J, r, _ = self._system(rng, _NORMAL_MIN_COLS + 2)
        J[:, 7] = 0.0
        expected = svd_step(J, r, 0.0)
        step, eta = _damped_step(J, r, 0.0)
        np.testing.assert_array_equal(step, expected)
        assert eta == decrement(expected, J, r)

    def test_non_finite_large_system_is_a_numerical_error(self):
        rng = np.random.default_rng(6)
        J, r, lam = self._system(rng, _NORMAL_MIN_COLS)
        J[3, 4] = np.nan
        with pytest.raises(NumericalError, match="SVD failed"):
            _damped_step(J, r, lam)


class TestNormalSolve:
    def test_well_conditioned_is_the_plain_solve(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(40, 30))
        A, g = J.T @ J, rng.normal(size=30)
        np.testing.assert_array_equal(_normal_solve(A, g),
                                      np.linalg.solve(A, g))

    def test_singular_or_ill_conditioned_is_refused(self):
        A = np.diag([1.0, 1.0, 0.0])
        assert _normal_solve(A, np.ones(3)) is None
        A[2, 2] = 1e-11
        assert _normal_solve(A, np.ones(3)) is None


class TestNodePolynomialSeed:
    """The seed's fine weights: normal equations at and past the size
    gate, ``lstsq`` below it."""

    @staticmethod
    def _spy_lstsq(monkeypatch):
        shapes = []
        lstsq = np.linalg.lstsq

        def spy(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        return shapes

    def test_large_seed_takes_the_normal_equations(self, monkeypatch):
        # Legendre n1 = 100: 502 unknowns, a 302 x 201 seed Vandermonde
        table = recurrence_coefficients(legendre(), 4 * 100 + 10)
        problem = _pair_problem(100, table, 301, OptimizerConfig())
        assert problem.n_unknowns >= _NORMAL_MIN_COLS
        shapes = self._spy_lstsq(monkeypatch)
        d, ev = _node_polynomial_seed(problem, 301)
        # only the 101 x 101 Gram system of the node polynomial
        assert shapes == [(101, 101)]
        fine = d[problem.weights[-1]]
        target = np.zeros(302)
        target[0] = 1.0
        assert np.linalg.norm(ev @ fine - target) <= 1e-11
        monkeypatch.undo()
        reference = np.linalg.lstsq(ev, target, rcond=None)[0]
        np.testing.assert_allclose(fine, reference, rtol=0, atol=1e-12)

    def test_small_seed_keeps_lstsq(self, monkeypatch):
        # the generalized-Hermite (rho = 1) pair n1 = 8 has 42 unknowns;
        # every seed its search can try solves by lstsq, bit for bit
        table = recurrence_coefficients(generalized_hermite(1.0), 42)
        problem = _pair_problem(8, table, 22, OptimizerConfig())
        assert problem.n_unknowns < _NORMAL_MIN_COLS
        shapes = self._spy_lstsq(monkeypatch)
        seeded = 0
        for alpha in range(22, 15, -1):
            problem.set_degree(alpha)
            shapes.clear()
            seed = _node_polynomial_seed(problem, alpha)
            if seed is None:
                continue
            seeded += 1
            d, ev = seed
            assert shapes[-1] == (alpha + 1, 17)
            target = np.zeros(alpha + 1)
            target[0] = 1.0
            np.testing.assert_array_equal(
                d[problem.weights[-1]],
                np.linalg.lstsq(ev, target, rcond=None)[0])
        assert seeded >= 5


class TestNewtonDecrement:
    """The decrement that ``_damped_step`` returns with its step."""

    def test_zero_step(self):
        step, eta = _damped_step(np.eye(3), np.zeros(3), 0.0)
        np.testing.assert_array_equal(step, np.zeros(3))
        assert eta == 0.0

    def test_exact_step_on_consistent_system(self):
        rng = np.random.default_rng(11)
        J = rng.normal(size=(8, 4))
        z = rng.normal(size=4)
        r = J @ z
        step, eta = _damped_step(J, r, 0.0)
        np.testing.assert_allclose(step, z, rtol=1e-10)
        assert eta == pytest.approx(float(np.linalg.norm(r)), rel=1e-10)
        assert eta == pytest.approx(float(np.linalg.norm(J @ step)), rel=1e-10)


class TestInitialize:
    """The pair layout: the coarse block takes every second node."""

    def test_single_coarse_node_is_center(self):
        problem = _pair_problem(1, table_for(legendre(), 8), 5,
                                OptimizerConfig())
        np.testing.assert_array_equal(problem.idx[0], [1])

    def test_rejects_bad_n1(self):
        table = table_for(legendre(), 8)
        with pytest.raises(ParameterError):
            _pair_problem(0, table, 5, OptimizerConfig())


class TestPruneNegligible:
    def _rule_with_spurious_node(self):
        table = table_for(legendre(), 9)
        base = gauss_rule(table, 5)
        nodes = np.sort(np.append(base.nodes, 0.1234567))
        k = int(np.searchsorted(base.nodes, 0.1234567))
        weights = np.insert(base.weights, k, 1e-15)
        rule = QuadratureRule(legendre(), nodes, weights, 9, 1e-14,
                              weight_floor_relaxed=True)
        return rule, table

    def test_drops_negligible_node(self):
        rule, table = self._rule_with_spurious_node()
        pruned = prune_negligible(rule, table)
        assert pruned.n == 5
        assert 0.1234567 not in pruned.nodes
        check = verify_rule(pruned, table, 9)
        assert check.norm <= 1e-11

    def test_untouched_rule_returned_as_is(self):
        table = table_for(legendre(), 9)
        rule = gauss_rule(table, 5)
        assert prune_negligible(rule, table) is rule

    def test_refuses_when_verification_fails(self):
        table = table_for(legendre(), 9)
        base = gauss_rule(table, 5)
        # a load-bearing weight scaled to threshold size: pruning it breaks
        # the moment conditions, so the original must come back
        weights = base.weights.copy()
        weights[2] = 1e-14
        weights /= weights.sum()
        bad = QuadratureRule(legendre(), base.nodes, weights, 4, 1.0,
                             weight_floor_relaxed=True)
        assert prune_negligible(bad, table) is bad
