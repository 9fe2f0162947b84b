"""Recurrence tables and orthonormal evaluation against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestquad.errors import CapacityError, ParameterError, UnsupportedFamilyError
from nestquad import orthopoly as op

from oracles import (
    eval_orthonormal_oracle,
    family_moments,
    oracle_recurrence,
    stieltjes_recurrence,
    textbook_recurrence,
)

FAMILIES = [
    ("legendre", (), op.legendre()),
    ("chebyshev1", (), op.chebyshev1()),
    ("jacobi", (0.0, 0.3), op.jacobi(0.0, 0.3)),
    ("jacobi", (-0.5, 0.5), op.jacobi(-0.5, 0.5)),
    ("generalized_hermite", (0.0,), op.generalized_hermite(0.0)),
    ("generalized_hermite", (1.0,), op.generalized_hermite(1.0)),
    ("generalized_laguerre", (0.0,), op.generalized_laguerre(0.0)),
    ("generalized_laguerre", (0.5,), op.generalized_laguerre(0.5)),
]


class TestRecurrenceCoefficients:
    def test_legendre_first_values(self):
        table = op.recurrence_coefficients(op.legendre(), 3)
        assert np.allclose(table.a, 0.0, atol=0.0)
        assert np.allclose(table.b, [1.0, 1.0 / 3.0, 4.0 / 15.0, 9.0 / 35.0],
                           rtol=1e-15, atol=0.0)

    def test_chebyshev_first_values(self):
        table = op.recurrence_coefficients(op.chebyshev1(), 2)
        assert np.allclose(table.b, [1.0, 0.5, 0.25], rtol=0.0, atol=0.0)

    def test_hermite_rho0_first_values(self):
        table = op.recurrence_coefficients(op.generalized_hermite(0.0), 1)
        assert table.b[0] == 1.0 and table.b[1] == 0.5
        assert table.a[0] == 0.0

    @pytest.mark.parametrize("kind,params,family", FAMILIES,
                             ids=lambda v: str(v))
    def test_matches_stieltjes_oracle(self, kind, params, family):
        # High-precision Gram-Schmidt from exact moments is the reference.
        n = 20
        a_ref, b_ref = oracle_recurrence(kind, params, n)
        table = op.recurrence_coefficients(family, n)
        assert np.allclose(table.a, a_ref, rtol=1e-13, atol=1e-13)
        assert np.allclose(table.b, b_ref, rtol=1e-13, atol=1e-13)

    def test_invalid_jacobi_exponent(self):
        with pytest.raises(ParameterError):
            op.jacobi(-1.0, 0.0)

    def test_invalid_hermite_exponent(self):
        with pytest.raises(ParameterError):
            op.generalized_hermite(-1.5)

    @pytest.mark.parametrize("kind, params", [
        ("legendre", (2.0,)), ("chebyshev1", (0.0,)), ("jacobi", (0.5,)),
        ("jacobi", (0.0, 0.0, 0.0)), ("generalized_hermite", ()),
        ("generalized_laguerre", (1.0, 2.0)), ("custom", (1.0,)),
    ])
    def test_parameter_count_per_kind(self, kind, params):
        with pytest.raises(ParameterError, match="parameters"):
            op.WeightFamily(kind, params)

    @pytest.mark.parametrize("make, params", [
        (op.jacobi, (math.nan, 0.0)), (op.jacobi, (0.0, math.inf)),
        (op.generalized_hermite, (math.inf,)),
        (op.generalized_hermite, (math.nan,)),
        (op.generalized_laguerre, (-math.inf,)),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_non_finite_exponents_rejected(self, make, params):
        with pytest.raises(ParameterError, match="finite"):
            make(*params)

    def test_custom_pass_through_and_capacity(self):
        fam = op.custom_family([0.0, 0.0], [1.0, 0.5], (-1.0, 1.0))
        table = op.recurrence_coefficients(fam, 1)
        assert tuple(table.a) == (0.0, 0.0)
        assert tuple(table.b) == (1.0, 0.5)
        with pytest.raises(CapacityError):
            op.recurrence_coefficients(fam, 5)

    def test_custom_rejects_nonpositive_b(self):
        with pytest.raises(ParameterError):
            op.custom_family([0.0, 0.0], [1.0, -0.5], (-1.0, 1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            op.WeightFamily("gegenbauer")

    def test_symmetric_families_have_zero_a(self):
        for kind, params, family in FAMILIES:
            table = op.recurrence_coefficients(family, 25)
            if family.symmetric:
                assert np.all(table.a == 0.0)


class TestEvalOrthonormal:
    def test_legendre_values_at_point(self):
        # Independent evaluation: Horner on high-precision monic coefficients.
        moments = family_moments("legendre", (), 14)
        _, _, polys, norms2 = stieltjes_recurrence(moments, 6)
        ref = [float(v) for v in eval_orthonormal_oracle(polys, norms2, 5, 0.3)]
        table = op.recurrence_coefficients(op.legendre(), 6)
        got = op.eval_orthonormal(table, 5, [0.3])[:, 0]
        assert np.allclose(got, ref, rtol=0.0, atol=1e-13)

    def test_p0_is_constant_one(self):
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 2)
            vals = op.eval_orthonormal(table, 0, [0.1, 0.7])
            assert np.all(vals == 1.0)

    @pytest.mark.parametrize("kind,params,family", FAMILIES[:6],
                             ids=lambda v: str(v))
    def test_values_match_oracle_high_degree(self, kind, params, family):
        degree = 12
        moments = family_moments(kind, params, 2 * degree + 2)
        _, _, polys, norms2 = stieltjes_recurrence(moments, degree)
        table = op.recurrence_coefficients(family, degree)
        pts = [-0.9, -0.6, 0.0, 0.4, 0.8] if family.domain.bounded else \
              [-2.0, -0.5, 0.0, 1.0, 2.5]
        if not family.domain.bounded_below:
            pass
        elif family.domain.lo == 0.0:
            pts = [0.1, 0.5, 1.0, 3.0, 6.0]
        vals = op.eval_orthonormal(table, degree, pts)
        for col, x in enumerate(pts):
            ref = [float(v) for v in
                   eval_orthonormal_oracle(polys, norms2, degree, x)]
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.all(np.abs(vals[:, col] - ref) / scale < 1e-12)

    def test_orthonormality_under_gauss_rule(self):
        # <p_j, p_k> computed with a high-order Gauss rule equals delta_jk.
        from nestquad.gauss import gauss_rule
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 60)
            rule = gauss_rule(table, 45)
            V = op.eval_orthonormal(table, 20, rule.nodes)
            G = (V * rule.weights) @ V.T
            assert np.max(np.abs(G - np.eye(21))) < 1e-12

    def test_derivative_matches_central_differences(self):
        h = 1e-6
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 16)
            lo, hi = family.domain.lo, family.domain.hi
            pts = np.linspace(max(lo, -1.0) + 0.05, min(hi, 4.0) - 0.05, 10)
            dp = op._values(table, 15, pts, derivatives=True)[:, pts.size:]
            fd = (op.eval_orthonormal(table, 15, pts + h)
                  - op.eval_orthonormal(table, 15, pts - h)) / (2 * h)
            scale = np.maximum(np.abs(dp), 1.0)
            assert np.max(np.abs(dp - fd) / scale) < 1e-6

    def test_derivative_recurrence_low_degrees(self):
        # p_0' = 0 everywhere; Legendre p_1 = sqrt(3) x so p_1' = sqrt(3).
        table = op.recurrence_coefficients(op.legendre(), 3)
        x = np.array([-0.3, 0.2, 0.9])
        dp = op._values(table, 1, x, derivatives=True)[:, x.size:]
        assert np.all(dp[0] == 0.0)
        assert np.allclose(dp[1], np.sqrt(3.0), rtol=1e-15)

    def test_symmetry_parity(self):
        # Even-degree polynomials are even, odd-degree odd, for symmetric w.
        pts = np.array([0.17, 0.44, 0.93])
        for _, _, family in FAMILIES:
            if not family.symmetric:
                continue
            table = op.recurrence_coefficients(family, 13)
            vp = op.eval_orthonormal(table, 12, pts)
            vm = op.eval_orthonormal(table, 12, -pts)
            signs = (-1.0) ** np.arange(13)
            assert np.max(np.abs(vp - signs[:, None] * vm)) < 1e-13 * np.max(
                np.abs(vp))

    def test_capacity_error(self):
        table = op.recurrence_coefficients(op.legendre(), 4)
        with pytest.raises(CapacityError):
            op.eval_orthonormal(table, 5, [0.0])

    def test_values_shape_and_finite_at_endpoints(self):
        table = op.recurrence_coefficients(op.chebyshev1(), 8)
        V = op.eval_orthonormal(table, 8, [-1.0, 0.0, 1.0])
        assert V.shape == (9, 3)
        assert np.all(np.isfinite(V))


def _custom(a_values):
    """A custom family whose a_m repeat in runs and include -0.0, so the
    kernel both reuses and refreshes its x - a_m row."""
    n = len(a_values)
    b = [1.0] + [0.25 + 0.01 * k for k in range(1, n)]
    return op.custom_family(a_values, b, (-math.inf, math.inf))


KERNEL_FAMILIES = [family for _, _, family in FAMILIES] + [
    op.jacobi(1.0, -0.5), op.jacobi(2.0, 2.0), op.generalized_laguerre(1.5)]


class TestKernelMatchesTextbook:
    """The in-place kernel equals the textbook loop bit for bit: a values
    pass and both halves of a pass with derivatives, also where rows
    overflow to inf or nan."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(family=st.sampled_from(KERNEL_FAMILIES),
           degree=st.integers(0, 300),
           x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
    def test_built_in_families(self, family, degree, x):
        self._check(op.recurrence_coefficients(family, 300), degree,
                    np.array(x))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a=st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.75]),
                      min_size=1, max_size=60),
           data=st.data())
    def test_custom_coefficients(self, a, data):
        table = op.recurrence_coefficients(_custom(a), len(a) - 1)
        degree = data.draw(st.integers(0, table.capacity))
        x = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1,
                               max_size=20))
        self._check(table, degree, np.array(x))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(family=st.sampled_from(KERNEL_FAMILIES),
           degree=st.integers(0, 300),
           x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40),
           data=st.data())
    def test_continuation_built_in_families(self, family, degree, x, data):
        self._check_continuation(op.recurrence_coefficients(family, 300),
                                 degree, np.array(x), data)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a=st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.75]),
                      min_size=1, max_size=60),
           data=st.data())
    def test_continuation_custom_coefficients(self, a, data):
        table = op.recurrence_coefficients(_custom(a), len(a) - 1)
        degree = data.draw(st.integers(0, table.capacity))
        x = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1,
                               max_size=20))
        self._check_continuation(table, degree, np.array(x), data)

    @staticmethod
    def _check_continuation(table, degree, x, data):
        """The rows p_0..p_{degree-1} continued by one row, and the first
        j rows continued through ``degree``, equal a fresh pass."""
        j = data.draw(st.integers(1, degree + 1))
        with np.errstate(all="ignore"):
            fresh = op.eval_orthonormal(table, degree, x)
            one_row = op._values(table, degree, x,
                                 head=fresh[:max(degree, 1)])
            from_j = op._values(table, degree, x, head=fresh[:j])
        assert one_row.tobytes() == fresh.tobytes()
        assert from_j.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("family", KERNEL_FAMILIES,
                             ids=lambda f: f.label())
    def test_overflow(self, family):
        # far outside the support the rows overflow to inf, and inf - inf
        # turns later rows to nan, in both halves alike
        table = op.recurrence_coefficients(family, 300)
        x = np.array([1e150, -1e300, 3e5, -7.0, 0.5])
        for degree in (0, 1, 2, 3, 40, 300):
            p, q = self._check(table, degree, x)
        assert np.isinf(p).any() and np.isnan(p).any()
        assert np.isinf(q).any() and np.isnan(q).any()

    @staticmethod
    def _check(table, degree, x):
        """The values pass and the pass with derivatives against the
        textbook loop; returns its rows."""
        with np.errstate(all="ignore"):
            p, q = textbook_recurrence(table, degree, x)
            values = op.eval_orthonormal(table, degree, x)
            fused = op._values(table, degree, x, derivatives=True)
        assert values.tobytes() == p.tobytes()
        assert fused.shape == (degree + 1, 2 * x.size)
        assert fused[:, :x.size].tobytes() == p.tobytes()
        assert fused[:, x.size:].tobytes() == q.tobytes()
        return p, q


class TestWeightDensity:
    def test_densities_integrate_to_one(self):
        from nestquad.gauss import gauss_rule
        for _, _, family in FAMILIES:
            table = op.recurrence_coefficients(family, 40)
            rule = gauss_rule(table, 32)
            pdf = op.weight_density(family)
            vals = pdf(rule.nodes)
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)

    def test_uniform_density_value(self):
        pdf = op.weight_density(op.legendre())
        assert np.allclose(pdf(np.array([-0.5, 0.5])), 0.5)

    def test_custom_rejected(self):
        fam = op.custom_family([0.0], [1.0], (-1.0, 1.0))
        with pytest.raises(UnsupportedFamilyError):
            op.weight_density(fam)
