"""Gauss rule construction, moment verification, circle-theorem diagnostic."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nestquad.errors import (
    CapacityError,
    ParameterError,
    UnsupportedFamilyError,
)
import nestquad
from nestquad import orthopoly as op
from nestquad.gauss import (
    QuadratureRule,
    certified_rule,
    circle_theorem_deviation,
    gauss_rule,
    recheck,
    verify_rule,
)

from oracles import family_moments, oracle_gauss

FAMILIES = [
    ("legendre", (), op.legendre()),
    ("chebyshev1", (), op.chebyshev1()),
    ("jacobi", (0.0, 0.3), op.jacobi(0.0, 0.3)),
    ("generalized_hermite", (0.0,), op.generalized_hermite(0.0)),
    ("generalized_hermite", (1.0,), op.generalized_hermite(1.0)),
    ("generalized_laguerre", (0.0,), op.generalized_laguerre(0.0)),
]


def table_for(family, n):
    return op.recurrence_coefficients(family, max(2 * n - 1, n))


class TestGaussRule:
    def test_one_point_legendre(self):
        rule = gauss_rule(table_for(op.legendre(), 1), 1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 1.0
        assert rule.exactness_degree == 1

    def test_three_point_legendre(self):
        rule = gauss_rule(table_for(op.legendre(), 3), 3)
        assert np.allclose(rule.nodes, [-np.sqrt(0.6), 0.0, np.sqrt(0.6)],
                           rtol=0.0, atol=5e-15)
        assert np.allclose(rule.weights, [5 / 18, 4 / 9, 5 / 18],
                           rtol=0.0, atol=5e-15)

    def test_two_point_hermite(self):
        rule = gauss_rule(table_for(op.generalized_hermite(0.0), 2), 2)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(rule.nodes, [-r, r], atol=5e-15)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=5e-15)

    @pytest.mark.parametrize("kind,params,family", FAMILIES,
                             ids=lambda v: str(v))
    def test_matches_high_precision_eigensolve(self, kind, params, family):
        n = 12
        nodes_ref, weights_ref = oracle_gauss(kind, params, n)
        rule = gauss_rule(table_for(family, n), n)
        scale = max(abs(v) for v in nodes_ref)
        assert np.allclose(rule.nodes, nodes_ref, rtol=0.0, atol=1e-13 * scale)
        assert np.allclose(rule.weights, weights_ref, rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("kind,params,family", FAMILIES,
                             ids=lambda v: str(v))
    def test_monomial_exactness(self, kind, params, family):
        # Gauss-n must reproduce raw moments m_0..m_{2n-1} exactly.  The
        # unbounded families lose a little to cancellation at high degree.
        tol = 1e-13 if family.domain.bounded else 1e-12
        for n in (1, 2, 3, 5, 8, 13):
            rule = gauss_rule(table_for(family, n), n)
            m_ref = np.array(
                [float(m) for m in family_moments(kind, params, 2 * n - 1)])
            powers = rule.nodes[None, :] ** np.arange(2 * n)[:, None]
            m_got = powers @ rule.weights
            # Cancellation floor: odd moments of symmetric weights vanish
            # only relative to the absolute-value moment's magnitude.
            scale = np.maximum.reduce(
                [np.abs(m_ref), np.abs(powers) @ rule.weights, np.ones(2 * n)])
            assert np.max(np.abs(m_got - m_ref) / scale) < tol

    def test_weight_positivity_and_mass(self):
        for _, _, family in FAMILIES:
            for n in (10, 50, 120, 200):
                if family.kind == "generalized_laguerre" and n > 150:
                    # Tail weights underflow binary64 beyond ~150 points.
                    continue
                rule = gauss_rule(op.recurrence_coefficients(family, n), n)
                assert np.all(rule.weights > 0.0)
                assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_interlacing(self):
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 51)
            prev = gauss_rule(table, 1).nodes
            for n in range(2, 41):
                cur = gauss_rule(table, n).nodes
                assert np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
                prev = cur

    def test_nodes_inside_domain(self):
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 199)
            rule = gauss_rule(table, 100)
            assert family.domain.contains(rule.nodes)

    def test_capacity_error(self):
        table = op.recurrence_coefficients(op.legendre(), 3)
        with pytest.raises(CapacityError):
            gauss_rule(table, 5)

    def test_determinism(self):
        table = op.recurrence_coefficients(op.jacobi(0.0, 0.3), 41)
        r1 = gauss_rule(table, 21)
        r2 = gauss_rule(table, 21)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert np.array_equal(r1.weights, r2.weights)


class TestQuadratureRuleValidation:
    def test_rejects_descending_nodes(self):
        with pytest.raises(ParameterError):
            QuadratureRule(op.legendre(), np.array([0.5, -0.5]),
                           np.array([0.5, 0.5]), 1, 0.0)

    def test_rejects_negative_weights_unless_relaxed(self):
        with pytest.raises(ParameterError):
            QuadratureRule(op.legendre(), np.array([-0.5, 0.5]),
                           np.array([1.2, -0.2]), 1, 0.0)
        rule = QuadratureRule(op.legendre(), np.array([-0.5, 0.5]),
                              np.array([1.2, -0.2]), 1, 0.0,
                              weight_floor_relaxed=True)
        assert rule.weights[1] == -0.2

    def test_rejects_bad_mass(self):
        with pytest.raises(ParameterError):
            QuadratureRule(op.legendre(), np.array([-0.5, 0.5]),
                           np.array([0.6, 0.5]), 1, 0.0)

    def test_rejects_nodes_outside_domain(self):
        with pytest.raises(ParameterError):
            QuadratureRule(op.legendre(), np.array([-0.5, 1.5]),
                           np.array([0.5, 0.5]), 1, 0.0)

    def test_arrays_read_only(self):
        rule = gauss_rule(table_for(op.legendre(), 3), 3)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestVerifyRule:
    def test_gauss_certificate_is_tiny(self):
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 30)
            rule = gauss_rule(table, 15)
            report = verify_rule(rule, table, 29)
            assert report.norm < 1e-12
            assert report.degree == 29

    def test_single_midpoint_rule_degree_one(self):
        rule = QuadratureRule(op.legendre(), np.array([0.0]), np.array([1.0]),
                              1, 0.0)
        table = op.recurrence_coefficients(op.legendre(), 2)
        report = verify_rule(rule, table, 1)
        assert report.norm < 1e-15

    def test_gauss5_fails_degree_ten(self):
        table = op.recurrence_coefficients(op.legendre(), 10)
        rule = gauss_rule(table, 5)
        report = verify_rule(rule, table, 10)
        # Degrees 0..9 hold; the degree-10 moment must be visibly wrong.
        assert np.max(np.abs(report.residuals[:10])) < 1e-14
        assert abs(report.residuals[10]) > 1e-3

    def test_residual_layout(self):
        table = op.recurrence_coefficients(op.legendre(), 6)
        rule = gauss_rule(table, 3)
        report = verify_rule(rule, table)
        assert report.residuals.shape == (rule.exactness_degree + 1,)


class TestCertificate:
    def test_gauss_rule_is_certified_rule_of_its_arrays(self):
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 20)
            rule = gauss_rule(table, 6)
            again = certified_rule(table, rule.nodes.copy(),
                                   rule.weights.copy(), 11)
            assert again.family == family
            assert again.nodes.tobytes() == rule.nodes.tobytes()
            assert again.weights.tobytes() == rule.weights.tobytes()
            assert again.exactness_degree == rule.exactness_degree
            assert again.residual_norm == rule.residual_norm
            assert again.residual_norm == verify_rule(rule, table).norm

    def test_relaxed_admits_a_negative_weight(self):
        table = op.recurrence_coefficients(op.legendre(), 4)
        nodes = np.array([-0.5, 0.0, 0.5])
        weights = np.array([0.6, -0.2, 0.6])
        with pytest.raises(ParameterError, match="positive"):
            certified_rule(table, nodes, weights, 1)
        rule = certified_rule(table, nodes, weights, 1, relaxed=True)
        assert rule.weight_floor_relaxed
        assert rule.residual_norm < 1e-15

    def test_recheck_allows_ten_times_the_claim_plus_a_floor(self):
        table = op.recurrence_coefficients(op.legendre(), 6)
        rule = gauss_rule(table, 3)
        for stored in (0.0, 1e-15, 2.5e-3):
            residuals, norm, allowed = recheck(
                table, rule.nodes, rule.weights, 5, stored)
            report = verify_rule(rule, table)
            assert residuals.tobytes() == report.residuals.tobytes()
            assert norm == report.norm
            assert allowed == 10.0 * (stored + 1e-16)


class TestCircleTheorem:
    def test_legendre_deviation_shrinks(self):
        table = op.recurrence_coefficients(op.legendre(), 399)
        dev200 = circle_theorem_deviation(gauss_rule(table, 200))
        dev20 = circle_theorem_deviation(gauss_rule(table, 20))
        assert dev200 < 0.02
        assert dev200 < dev20

    def test_chebyshev_is_exact(self):
        # Gauss-Chebyshev weights are all 1/n: the semicircle law is exact.
        table = op.recurrence_coefficients(op.chebyshev1(), 399)
        assert circle_theorem_deviation(gauss_rule(table, 200)) < 1e-12

    def test_unbounded_family_rejected(self):
        table = op.recurrence_coefficients(op.generalized_hermite(0.0), 19)
        rule = gauss_rule(table, 10)
        with pytest.raises(UnsupportedFamilyError):
            circle_theorem_deviation(rule)


def test_import_does_not_load_scipy():
    # the Jacobi-matrix eigenvalues come from numpy; scipy is no dependency
    src = os.path.dirname(os.path.dirname(nestquad.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, nestquad; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
