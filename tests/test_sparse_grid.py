"""Sparse grid assembly: tensor products, Smolyak combination, error bound."""

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestquad import sparse_grid
from nestquad.errors import (
    CapacityError,
    EvaluationError,
    ParameterError,
    SchemaError,
)
from nestquad.gauss import QuadratureRule, gauss_rule, moment_residuals
from nestquad.nested_optimizer import extend_patterson, generate_nested
from nestquad.orthopoly import (
    chebyshev1,
    eval_orthonormal,
    jacobi,
    legendre,
    recurrence_coefficients,
)
from nestquad.sparse_grid import (
    _canonical_levels,
    SparseGrid,
    UnivariateLevelFamily,
    gauss_levels,
    integrate,
    nested_levels,
    read_grid_json,
    smolyak_grid,
    tensor_error_bound,
    tensor_rule,
    write_grid_csv,
    write_grid_json,
)
from oracles import exact_smolyak, reference_smolyak


@pytest.fixture(scope="module")
def leg_table():
    return recurrence_coefficients(legendre(), 40)


@pytest.fixture(scope="module")
def gauss_family(leg_table):
    return gauss_levels(leg_table, 6)


@pytest.fixture(scope="module")
def leg_chain(leg_table):
    """Legendre chain with 1, 3, 7 and 15 nodes."""
    pair, _ = generate_nested(1, leg_table)
    chain = [pair.coarse, pair.fine]
    r7, _ = extend_patterson(pair.fine, leg_table)
    chain.append(r7)
    r15, _ = extend_patterson(r7, leg_table)
    chain.append(r15)
    return chain


@pytest.fixture(scope="module")
def jacobi_chain():
    """jacobi(0, 0.3) chain with 1, 3 and 7 nodes."""
    table = recurrence_coefficients(jacobi(0.0, 0.3), 36)
    chain = [gauss_rule(table, 1)]
    for _ in range(2):
        chain.append(extend_patterson(chain[-1], table)[0])
    return chain


@pytest.fixture(scope="module")
def nested_family(leg_chain):
    return nested_levels(leg_chain, 6)


def legendre_moment(j):
    # int x^j dx / 2 over [-1, 1]
    return 1.0 / (j + 1) if j % 2 == 0 else 0.0


def tensor_moment(powers):
    out = 1.0
    for j in powers:
        out *= legendre_moment(j)
    return out


def monomials_up_to(d, total_degree):
    for powers in itertools.product(range(total_degree + 1), repeat=d):
        if sum(powers) <= total_degree:
            yield powers


class TestUnivariateLevelFamily:
    def test_properties(self, nested_family):
        assert nested_family.depth == 6
        assert nested_family.sizes == (1, 3, 3, 7, 7, 7)
        assert nested_family.nested
        assert nested_family.family == legendre()
        assert nested_family.rule(4).n == 7

    def test_gauss_schedule(self, gauss_family):
        assert gauss_family.sizes == (1, 2, 3, 4, 5, 6)
        assert not gauss_family.nested
        for i in range(1, 7):
            assert gauss_family.rule(i).exactness_degree == 2 * i - 1

    def test_level_out_of_range(self, nested_family):
        with pytest.raises(ParameterError):
            nested_family.rule(0)
        with pytest.raises(ParameterError):
            nested_family.rule(7)

    def test_rejects_broken_nesting(self, leg_table):
        g2 = gauss_rule(leg_table, 2)
        g3 = gauss_rule(leg_table, 3)
        assert not UnivariateLevelFamily((g2, g3)).nested
        with pytest.raises(ParameterError,
                           match="level 1 nodes are not embedded in level 2"):
            nested_levels((g2, g3), 2)

    def test_rejects_family_mismatch(self, leg_table):
        cheb_table = recurrence_coefficients(chebyshev1(), 10)
        with pytest.raises(ParameterError):
            UnivariateLevelFamily(
                (gauss_rule(leg_table, 1), gauss_rule(cheb_table, 1)))

    def test_warns_on_degree_shortfall(self, leg_table):
        g1 = gauss_rule(leg_table, 1)
        with pytest.warns(UserWarning, match="below the 2i-1 convention"):
            UnivariateLevelFamily((g1, g1))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            UnivariateLevelFamily(())

    def test_nested_levels_needs_deep_chain(self, leg_table):
        pair, _ = generate_nested(1, leg_table)
        with pytest.raises(CapacityError):
            nested_levels([pair.coarse, pair.fine], 4)

    def test_gauss_levels_rejects_bad_depth(self, leg_table):
        with pytest.raises(ParameterError):
            gauss_levels(leg_table, 0)


class TestTensorRule:
    def test_two_point_rules(self, leg_table):
        g1 = gauss_rule(leg_table, 1)
        nodes, weights = tensor_rule([g1, g1])
        assert nodes.shape == (1, 2)
        assert nodes[0, 0] == 0.0 and nodes[0, 1] == 0.0
        assert weights[0] == pytest.approx(1.0, abs=1e-15)

    def test_product_mass(self, leg_table):
        nodes, weights = tensor_rule(
            [gauss_rule(leg_table, 2), gauss_rule(leg_table, 3)])
        assert nodes.shape == (6, 2)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_lexicographic_order(self, leg_table):
        nodes, _ = tensor_rule(
            [gauss_rule(leg_table, 3), gauss_rule(leg_table, 2)])
        as_tuples = [tuple(p) for p in nodes]
        assert as_tuples == sorted(as_tuples)

    def test_mixed_moment(self, leg_table):
        g3 = gauss_rule(leg_table, 3)
        nodes, weights = tensor_rule([g3, g3])
        value = float(np.sum(weights * nodes[:, 0] ** 2 * nodes[:, 1] ** 4))
        assert value == pytest.approx((1 / 3) * (1 / 5), abs=1e-13)

    def test_capacity_guard(self, leg_table):
        g10 = gauss_rule(leg_table, 10)
        with pytest.raises(CapacityError):
            tensor_rule([g10] * 9)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            tensor_rule([])


class TestSmolyakCounts:
    def test_nested_d4(self, nested_family):
        counts = [smolyak_grid(nested_family, 4, k).node_count
                  for k in range(1, 7)]
        assert counts == [1, 9, 33, 81, 193, 385]

    def test_gauss_d4(self, gauss_family):
        counts = [smolyak_grid(gauss_family, 4, k).node_count
                  for k in range(1, 7)]
        assert counts == [1, 9, 41, 137, 385, 953]

    def test_d10(self, nested_family, gauss_family):
        nested = [smolyak_grid(nested_family, 10, k).node_count
                  for k in range(1, 5)]
        gauss = [smolyak_grid(gauss_family, 10, k).node_count
                 for k in range(1, 5)]
        assert nested == [1, 21, 201, 1201]
        assert gauss == [1, 21, 221, 1581]

    def test_count_superiority(self, nested_family, gauss_family):
        for d in (4, 10):
            for k in range(1, 5):
                n_nested = smolyak_grid(nested_family, d, k).node_count
                n_gauss = smolyak_grid(gauss_family, d, k).node_count
                assert n_nested <= n_gauss

    def test_d1_collapse_nested(self, nested_family):
        for k in range(1, 7):
            grid = smolyak_grid(nested_family, 1, k)
            rule = nested_family.rule(k)
            assert np.array_equal(grid.nodes[:, 0], rule.nodes)
            assert np.array_equal(grid.weights, rule.weights)

    def test_d1_collapse_gauss(self, gauss_family):
        for k in range(1, 7):
            grid = smolyak_grid(gauss_family, 1, k)
            rule = gauss_family.rule(k)
            np.testing.assert_allclose(grid.nodes[:, 0], rule.nodes,
                                       atol=1e-14, rtol=0.0)
            assert np.array_equal(grid.weights, rule.weights)

    def test_rejects_bad_arguments(self, nested_family):
        with pytest.raises(ParameterError):
            smolyak_grid(nested_family, 0, 1)
        with pytest.raises(ParameterError):
            smolyak_grid(nested_family, 2, 0)
        with pytest.raises(ParameterError):
            smolyak_grid(nested_family, 2, 7)

    def test_block_capacity_guard(self, leg_table):
        big_table = recurrence_coefficients(legendre(), 500)
        big = gauss_rule(big_table, 500)
        family = UnivariateLevelFamily((big,))
        with pytest.raises(CapacityError):
            smolyak_grid(family, 3, 1)


class TestSmolyakWeights:
    def test_unit_mass(self, nested_family, gauss_family):
        for family in (nested_family, gauss_family):
            for d in (2, 3, 4):
                for k in range(1, 5):
                    grid = smolyak_grid(family, d, k)
                    assert abs(grid.weights.sum() - 1.0) <= 1e-10

    def test_large_d_sum_is_held_to_its_rounding(self, leg_chain):
        # sum |w| is 1.27e4 here, so the mass check lets the sum of w stray
        # from 1 by up to 1.27e-6, far past 1e-10: rounding grows with sum |w|
        grid = smolyak_grid(nested_levels(leg_chain, 7), 40, 4)
        assert grid.node_count == 82401
        bound = 1e-10 * max(1.0, float(np.abs(grid.weights).sum()))
        assert abs(grid.weights.sum() - 1.0) <= bound
        shifted = SparseGrid(grid.k, grid.nodes, grid.weights * (1.0 + 1e-7),
                             grid.source)
        assert abs(shifted.weights.sum() - 1.0) > 1e-10
        value = integrate(grid, lambda x: np.ones(x.shape[0]))
        assert abs(value - 1.0) <= bound

    def test_wrong_weight_sum_is_refused(self, nested_family):
        grid = smolyak_grid(nested_family, 3, 4)
        assert np.any(grid.weights < 0.0)
        with pytest.raises(ParameterError, match="grid weights sum to"):
            SparseGrid(grid.k, grid.nodes, grid.weights * (1.0 + 1e-6),
                       nested_family)

    def test_negative_weights_retained(self, nested_family):
        grid = smolyak_grid(nested_family, 4, 3)
        assert np.any(grid.weights < 0.0)

    def test_nodes_unique(self, nested_family, gauss_family):
        for family in (nested_family, gauss_family):
            grid = smolyak_grid(family, 3, 4)
            seen = {tuple(p) for p in grid.nodes.tolist()}
            assert len(seen) == grid.node_count

    def test_no_near_duplicates(self, gauss_family):
        grid = smolyak_grid(gauss_family, 2, 4)
        pts = grid.nodes
        for i in range(grid.node_count):
            gaps = np.max(np.abs(pts[i + 1:] - pts[i]), axis=1)
            assert np.all(gaps > 1e-14)

    def test_grid_shape_validation(self, nested_family):
        with pytest.raises(ParameterError):
            SparseGrid(1, np.zeros((2, 3)), np.array([1.0]), nested_family)
        with pytest.raises(ParameterError):
            SparseGrid(1, np.zeros((1, 2)), np.array([0.5]), nested_family)
        with pytest.raises(ParameterError):
            SparseGrid(1, np.zeros((1, 0)), np.array([1.0]), nested_family)
        assert SparseGrid(1, np.zeros((1, 3)), np.array([1.0]),
                          nested_family).d == 3

    @pytest.mark.parametrize("where, value", [
        ("node", math.nan), ("node", math.inf), ("node", -math.inf),
        ("weight", math.nan), ("weight", math.inf)])
    def test_non_finite_node_or_weight_is_refused(self, nested_family,
                                                  where, value):
        # a NaN or infinite weight makes the unit-mass check compare NaN,
        # which is never greater than its bound; the grid is refused before
        # it, as a QuadratureRule is
        grid = smolyak_grid(nested_family, 2, 3)
        nodes, weights = grid.nodes.copy(), grid.weights.copy()
        if where == "node":
            nodes[3, 1] = value
        else:
            weights[3] = value
        with pytest.raises(ParameterError, match="finite"):
            SparseGrid(grid.k, nodes, weights, nested_family)

    def test_determinism(self, nested_family):
        a = smolyak_grid(nested_family, 3, 4)
        b = smolyak_grid(nested_family, 3, 4)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


class TestExactness:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_total_degree_nested(self, nested_family, d, k):
        self._check(nested_family, d, k)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_total_degree_gauss(self, gauss_family, d, k):
        self._check(gauss_family, d, k)

    @staticmethod
    def _check(family, d, k):
        grid = smolyak_grid(family, d, k)
        for powers in monomials_up_to(d, 2 * k - 1):
            values = np.prod(grid.nodes ** np.array(powers), axis=1)
            got = float(np.dot(grid.weights, values))
            assert got == pytest.approx(tensor_moment(powers), abs=1e-9), \
                f"monomial {powers}"


class TestIntegrate:
    def test_constant(self, nested_family):
        grid = smolyak_grid(nested_family, 3, 3)
        assert integrate(grid, lambda x: 1.0) == pytest.approx(1.0,
                                                               abs=1e-10)

    def test_odd_monomial_vanishes(self, nested_family):
        grid = smolyak_grid(nested_family, 2, 3)
        value = integrate(grid, lambda x: x[0] ** 4 * x[1])
        assert value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_polynomial(self, nested_family, k):
        grid = smolyak_grid(nested_family, 3, k)
        rng = np.random.default_rng(2026)
        terms = list(monomials_up_to(3, 2 * k - 1))
        coeffs = rng.uniform(-1.0, 1.0, size=len(terms))

        def poly(x):
            return sum(c * x[0] ** p[0] * x[1] ** p[1] * x[2] ** p[2]
                       for c, p in zip(coeffs, terms))

        exact = sum(c * tensor_moment(p) for c, p in zip(coeffs, terms))
        assert integrate(grid, poly) == pytest.approx(exact, abs=1e-9)

    def test_evaluation_order(self, nested_family):
        # a scalar integrand is handed the whole node array once, then,
        # since one float is not one value per node, each node in order
        grid = smolyak_grid(nested_family, 2, 2)
        seen = []

        def probe(x):
            seen.append(np.array(x))
            return 1.0

        integrate(grid, probe)
        assert np.array_equal(seen[0], grid.nodes)
        assert np.array_equal(np.array(seen[1:]), grid.nodes)

    def test_vectorized_integrand_called_once(self, nested_family):
        grid = smolyak_grid(nested_family, 3, 3)
        calls = []

        def f(x):
            calls.append(x)
            return np.cos(x.sum(axis=-1))

        value = integrate(grid, f)
        assert len(calls) == 1 and calls[0] is grid.nodes
        values = np.cos(grid.nodes.sum(axis=1))
        assert value == math.fsum((grid.weights * values).tolist())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), k=st.integers(1, 4), nested=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_matches_per_row(self, nested_family, gauss_family, d, k,
                                     nested, seed):
        grid = smolyak_grid(nested_family if nested else gauss_family, d, k)
        c = np.random.default_rng(seed).uniform(-0.5, 0.5, size=d)
        batched = integrate(grid, lambda x: np.exp(x @ c))
        # math.exp refuses an array, so this one is evaluated per row
        per_row = integrate(grid, lambda x: math.exp(x @ c))
        assert per_row == math.fsum(
            w * math.exp(x @ c) for x, w in zip(grid.nodes, grid.weights))
        assert batched == pytest.approx(per_row, rel=1e-14, abs=0.0)

    def test_nonfinite_in_batch_names_first_node(self, nested_family):
        grid = smolyak_grid(nested_family, 3, 3)
        assert grid.node_count > 9

        def f(x):
            values = np.ones(len(x))
            values[[9, 2, 5]] = [-math.inf, math.nan, math.inf]
            return values

        with pytest.raises(EvaluationError) as err:
            integrate(grid, f)
        assert np.array_equal(err.value.node, grid.nodes[2])
        assert f"returned nan at {grid.nodes[2].tolist()}" in str(err.value)

    def test_square_node_array_is_evaluated_per_row(self):
        # on a 3 x 3 array x[0] * x[1] also gives 3 values, from the
        # wrong rows; a square array must never use the batch result
        nodes = np.arange(9.0).reshape(3, 3)
        weights = np.array([0.5, 0.25, 0.25])
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return x[0] * x[1]

        value = sparse_grid._weighted_sum(
            weights, sparse_grid._node_values(nodes, f))
        assert shapes == [(3,)] * 3
        assert value == math.fsum(w * x[0] * x[1]
                                  for x, w in zip(nodes, weights))

    def test_raising_on_array_falls_back(self, nested_family):
        grid = smolyak_grid(nested_family, 3, 2)
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            if np.ndim(x) != 1:
                raise ValueError("one point at a time")
            return math.cos(x.sum())

        value = integrate(grid, f)
        assert shapes == [grid.nodes.shape] + [(3,)] * grid.node_count
        assert value == math.fsum(w * math.cos(x.sum())
                                  for x, w in zip(grid.nodes, grid.weights))

    def test_probe_leaks_no_warning(self, nested_family):
        grid = smolyak_grid(nested_family, 2, 3)

        def f(x):
            if np.ndim(x) == 2:
                np.log(-x)  # invalid and divide-by-zero
                warnings.warn("expected one point", UserWarning)
                return np.zeros((len(x), 1))  # not one value per node
            return 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = integrate(grid, f)
        assert caught == []
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_carries_node(self, nested_family):
        grid = smolyak_grid(nested_family, 2, 2)
        bad = grid.nodes[3]

        def f(x):
            return math.inf if np.array_equal(x, bad) else 1.0

        with pytest.raises(EvaluationError) as err:
            integrate(grid, f)
        assert np.array_equal(err.value.node, bad)

    @pytest.mark.parametrize("f", [
        lambda x: np.exp(1j * x.sum(-1)),  # complex array, then scalars
        lambda x: complex(1.0, 0.0),
        lambda x: "1.0",
        lambda x: None,
        lambda x: np.ones(1),
    ], ids=["complex-array", "complex", "str", "none", "length-1-array"])
    def test_value_that_is_not_one_real_number_is_refused(self, f):
        # the real part of a complex value was once summed silently
        grid = smolyak_grid(gauss_levels(
            recurrence_coefficients(legendre(), 20), 3), 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as err:
                integrate(grid, f)
        assert np.array_equal(err.value.node, grid.nodes[0])
        assert "not one real number" in str(err.value)

    @pytest.mark.parametrize("value", [
        True, np.True_, 2, 2**70, np.int64(2), np.float32(0.5),
        np.array(0.5), Fraction(1, 3), Decimal("0.25"), mpmath.mpf(0.5)])
    def test_real_scalars_are_accepted(self, value):
        grid = smolyak_grid(gauss_levels(
            recurrence_coefficients(legendre(), 20), 3), 2, 3)
        assert integrate(grid, lambda x: value) == pytest.approx(float(value))

    @pytest.mark.parametrize("value", [
        10**400, Fraction(10**400, 3), Decimal("NaN"), mpmath.inf])
    def test_real_beyond_the_double_range_is_refused(self, value):
        grid = smolyak_grid(gauss_levels(
            recurrence_coefficients(legendre(), 20), 3), 2, 3)
        with pytest.raises(EvaluationError) as err:
            integrate(grid, lambda x: value)
        assert np.array_equal(err.value.node, grid.nodes[0])


@st.composite
def _summands(draw):
    """Finite floats up to 1e300 in magnitude, from subnormal exponents up,
    of mixed signs; some draws add near-cancelling partners, repeat the
    values, or append their negations so that the exact total is zero."""
    scattered = st.builds(math.ldexp, st.floats(-1.0, 1.0),
                          st.integers(-1074, 996))
    values = draw(st.lists(scattered | st.floats(-1e300, 1e300),
                           min_size=1, max_size=40))
    if draw(st.booleans()):  # near-cancelling pairs
        values += [-math.nextafter(v, draw(st.sampled_from([0.0, math.inf])))
                   for v in values[:draw(st.integers(1, len(values)))]]
    values *= draw(st.integers(1, 3))  # repeated values
    if draw(st.booleans()):  # an exact total of zero
        values = draw(st.permutations(values + [-v for v in values]))
    return values


class TestWeightedSum:
    """``_weighted_sum`` returns the double ``math.fsum`` returns."""

    @staticmethod
    def _sum(values):
        return sparse_grid._weighted_sum(np.array(values, dtype=float),
                                         np.ones(len(values)))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=_summands())
    def test_equals_fsum_bit_for_bit(self, values):
        got, want = self._sum(values), math.fsum(values)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("values", [[0.0], [-0.0], [-0.0, -0.0],
                                        [0.0, -0.0], [1.5, -1.5], []])
    def test_zero_total_keeps_the_sign_of_fsum(self, values):
        got, want = self._sum(values), math.fsum(values)
        assert (got, math.copysign(1.0, got)) == (want,
                                                 math.copysign(1.0, want))

    def test_many_products_over_several_blocks(self):
        # half the products are the largest mantissa at one exponent,
        # whose top piece sums past 2^31; the rest span the smaller
        # exponents, with near-cancellation at the end
        rng = np.random.default_rng(3)
        count = 3 * sparse_grid._SUM_BLOCK + 17
        values = rng.standard_normal(count) * np.ldexp(
            1.0, rng.integers(-1074, 1, size=count))
        values[-100:] = -values[-200:-100] * (1.0 + 2.0 ** -52)
        weights = rng.uniform(0.5, 2.0, size=count)
        values[: count // 2] = 1.0 - 2.0 ** -53
        weights[: count // 2] = 1.0
        assert sparse_grid._weighted_sum(weights, values) == math.fsum(
            (weights * values).tolist())

    def test_overflowing_product_is_inf(self):
        weights, values = np.array([1e200, 1.0]), np.array([1e200, -1.0])
        with np.errstate(over="ignore"):
            assert sparse_grid._weighted_sum(weights, values) == math.inf

    def test_inf_minus_inf_raises_value_error(self):
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            self._sum([math.inf, 1.0, -math.inf])

    def test_nan_is_nan(self):
        assert math.isnan(self._sum([1.0, math.nan]))

    def test_intermediate_overflow_gives_the_exact_sum(self):
        # math.fsum overflows on 1e308 + 1e308 before -1e308 comes in
        values = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(values)
        assert self._sum(values) == 1e308

    def test_sum_beyond_the_float_range_overflows(self):
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])
        with pytest.raises(OverflowError):
            self._sum([1e308, 1e308])


class TestMergeCorrectness:
    @pytest.mark.parametrize("func", [
        lambda x: math.cos(x.sum()),
        lambda x: math.exp(0.3 * x[0] - 0.2 * x[1]),
    ])
    def test_merged_equals_raw_combination(self, nested_family, gauss_family,
                                           func):
        d, k = 3, 3
        for family in (nested_family, gauss_family):
            raw = 0.0
            for r in range(max(0, k - d), k):
                coeff = (-1.0) ** (k - 1 - r) * math.comb(d - 1, k - 1 - r)
                for ivec in _compositions_ref(d + r, d):
                    nodes, weights = tensor_rule(
                        [family.rule(i) for i in ivec])
                    raw += coeff * sum(
                        w * func(p) for p, w in zip(nodes, weights))
            grid = smolyak_grid(family, d, k)
            assert integrate(grid, func) == pytest.approx(raw, abs=1e-12)

    def test_cancelled_node_dropped(self, leg_table):
        # level 2 places weight exactly 1/2 at the shared center, so the
        # combination annihilates the (0, 0) node; degree-3 exactness must
        # survive the drop
        grid = smolyak_grid(_cancelling_family(leg_table), 2, 2)
        assert grid.node_count == 4
        assert not any(p == (0.0, 0.0) for p in map(tuple, grid.nodes))
        for powers in monomials_up_to(2, 3):
            values = np.prod(grid.nodes ** np.array(powers), axis=1)
            got = float(np.dot(grid.weights, values))
            assert got == pytest.approx(tensor_moment(powers), abs=1e-9)


def _cancelling_family(leg_table):
    """Nested levels whose d=2, k=2 grid cancels the center node exactly."""
    a = math.sqrt(2.0 / 3.0)
    nodes = np.array([-a, 0.0, a])
    weights = np.array([0.25, 0.5, 0.25])
    lvl2 = QuadratureRule(
        family=legendre(), nodes=nodes, weights=weights, exactness_degree=3,
        residual_norm=float(np.linalg.norm(moment_residuals(
            nodes, weights, leg_table, 3))))
    return UnivariateLevelFamily((gauss_rule(leg_table, 1), lvl2))


def _near_double_family(leg_table, depth):
    """Gauss levels 1..depth, with level 2's left node split into two nodes
    one ulp apart and half its weight on each: non-nested, and the two
    nodes merge into one within _MERGE_TOL."""
    g2 = gauss_rule(leg_table, 2)
    left, right = g2.nodes
    nodes = np.array([left, np.nextafter(left, 2.0), right])
    weights = np.array([g2.weights[0] / 2, g2.weights[0] / 2, g2.weights[1]])
    lvl2 = QuadratureRule(
        family=legendre(), nodes=nodes, weights=weights, exactness_degree=3,
        residual_norm=float(np.linalg.norm(moment_residuals(
            nodes, weights, leg_table, 3))))
    return UnivariateLevelFamily(
        (gauss_rule(leg_table, 1), lvl2,
         *(gauss_rule(leg_table, i) for i in range(3, depth + 1))))


def _rounding_bound(d, k):
    # the multiset weights round each term at most k + 1 times per
    # coordinate, each time by eps relative to the magnitudes involved
    return d * (k + 1) * np.finfo(float).eps


def _reference(family, d, k):
    levels = _canonical_levels(family, k)
    level_weights = [family.rule(i).weights for i in range(1, k + 1)]
    return levels, level_weights, reference_smolyak(levels, level_weights,
                                                    d, k)


def _assert_matches_reference(family, d, k):
    """Nodes bit for bit those of the dict merge; each weight, and the dict
    merge's, within d (k + 1) eps A(u) of the exact sum W(u)."""
    levels, level_weights, (ref_nodes, ref_weights, _) = _reference(
        family, d, k)
    grid = smolyak_grid(family, d, k)
    assert np.array_equal(grid.nodes, ref_nodes)
    exact = exact_smolyak(levels, level_weights, d, k)
    bound = Fraction(_rounding_bound(d, k))
    for point, w, w_ref in zip(map(tuple, grid.nodes.tolist()),
                               grid.weights.tolist(), ref_weights.tolist()):
        total, scale = exact[point]
        assert abs(Fraction(w) - total) <= bound * scale, point
        assert abs(Fraction(w_ref) - total) <= bound * scale, point
    return grid


def _assert_close_to_reference(family, d, k):
    """For grids too large for the exact sums: nodes bit for bit those of
    the dict merge, weights within twice the bound of its weights."""
    _, _, (ref_nodes, ref_weights, scales) = _reference(family, d, k)
    grid = smolyak_grid(family, d, k)
    assert np.array_equal(grid.nodes, ref_nodes)
    gap = np.abs(grid.weights - ref_weights)
    assert np.all(gap <= 2 * _rounding_bound(d, k) * scales)
    return grid


class TestBitwiseMerge:
    """The slot walk reproduces the dict merge's nodes bit for bit, and the
    weights are as close to the exact sums as the dict merge's."""

    def test_nested_d8_k7(self, leg_chain):
        grid = _assert_close_to_reference(nested_levels(leg_chain, 7), 8, 7)
        assert grid.node_count == 17921

    def test_gauss_d8_k5(self, gauss_family):
        grid = _assert_matches_reference(gauss_family, 8, 5)
        assert grid.node_count == 3905

    def test_cancelled_node(self, leg_table):
        grid = _assert_matches_reference(_cancelling_family(leg_table), 2, 2)
        assert grid.node_count == 4

    def test_two_key_words_d23_k4(self, leg_chain):
        # 7 distinct nodes per axis, 7^23 > 2^63 tuples, 15,319 slots
        family = nested_levels(leg_chain, 4)
        grid = _assert_close_to_reference(family, 23, 4)
        assert grid.node_count == 15319

    @pytest.mark.parametrize("d, k", [(5, 4), (3, 6)])
    def test_asymmetric_nested_chain(self, jacobi_chain, d, k):
        # jacobi(0, 0.3) nodes are not symmetric, so a slot map that
        # mirrored the union would misplace them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            family = nested_levels(jacobi_chain, k)
        assert family.nested
        _assert_matches_reference(family, d, k)

    @pytest.mark.parametrize("weight, d, k", [
        (legendre(), 2, 6), (jacobi(0.0, 0.3), 3, 5)],
        ids=["legendre-2-6", "jacobi-3-5"])
    def test_gauss_levels_beyond_d(self, weight, d, k):
        # with k > d the lowest shells are left out, so some slots of
        # non-nested levels are reached by no block; they must go even
        # when no small weight is dropped
        family = gauss_levels(recurrence_coefficients(weight, 2 * k + 2), k)
        with mock.patch.object(sparse_grid, "_DROP_TOL", 0.0):
            grid = _assert_matches_reference(family, d, k)
        slots = sparse_grid._slot_count(
            sparse_grid._level_union(_canonical_levels(family, k))[2],
            d, k - 1)
        assert grid.node_count < slots

    @pytest.mark.parametrize("d, k", [(2, 2), (3, 2), (2, 3)])
    def test_near_double_nodes_of_one_level_merge(self, leg_table, d, k):
        # the split node's two weights add into one slot, as in the dict
        # merge, so the grid is the Gauss-levels grid up to rounding
        family = _near_double_family(leg_table, k)
        assert not family.nested
        grid = _assert_matches_reference(family, d, k)
        gauss = smolyak_grid(gauss_levels(leg_table, k), d, k)
        assert np.array_equal(grid.nodes, gauss.nodes)
        np.testing.assert_allclose(grid.weights, gauss.weights, rtol=0.0,
                                   atol=1e-15)

    def test_slot_count_capacity(self, nested_family):
        # d=4, k=5 spans 193 slots, though no block holds more than 81
        # points; the count is refused before the walk enumerates a slot
        with mock.patch.object(sparse_grid, "_TENSOR_CAP", 100), \
                mock.patch.object(sparse_grid, "_slot_walk",
                                  side_effect=AssertionError):
            with pytest.raises(CapacityError, match="193 slots"):
                smolyak_grid(nested_family, 4, 5)
        assert smolyak_grid(nested_family, 4, 5).node_count == 193

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), k=st.integers(1, 4), nested=st.booleans())
    def test_random_grids(self, nested_family, gauss_family, d, k, nested):
        _assert_matches_reference(nested_family if nested else gauss_family,
                                  d, k)

    def test_tensor_rule_matches_meshgrid(self, leg_table):
        rules = [gauss_rule(leg_table, n) for n in (3, 1, 4, 2)]
        nodes, weights = tensor_rule(rules)
        mesh = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
        want = rules[0].weights
        for rule in rules[1:]:
            want = np.multiply.outer(want, rule.weights)
        assert np.array_equal(nodes, np.stack([m.ravel() for m in mesh], 1))
        assert np.array_equal(weights, want.ravel())


def _assert_permutation_invariant(grid):
    """Every node's weight is bitwise the weight of the node with its
    coordinates sorted; returns how many nodes are not sorted."""
    row = {point: i for i, point in enumerate(map(tuple, grid.nodes.tolist()))}
    ordered = np.array([row[point] for point in
                        map(tuple, np.sort(grid.nodes, axis=1).tolist())])
    bits = grid.weights.view(np.int64)
    assert np.array_equal(bits, bits[ordered])
    return int(np.count_nonzero(ordered != np.arange(grid.node_count)))


class TestPermutationInvariance:
    """A weight depends only on the multiset of a node's coordinates, and
    it is computed once per multiset, so permuted nodes share its bits."""

    @pytest.mark.parametrize("d, k, permuted", [(4, 5, 166),
                                                (10, 7, 60139)])
    def test_nested(self, leg_chain, d, k, permuted):
        grid = smolyak_grid(nested_levels(leg_chain, 7), d, k)
        assert _assert_permutation_invariant(grid) == permuted

    def test_gauss_levels_beyond_d(self):
        family = gauss_levels(recurrence_coefficients(legendre(), 14), 6)
        assert _assert_permutation_invariant(smolyak_grid(family, 3, 6)) > 0

    def test_asymmetric_nested_chain(self, jacobi_chain):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            family = nested_levels(jacobi_chain, 5)
        assert _assert_permutation_invariant(smolyak_grid(family, 3, 5)) > 0


def test_first_grid_imports_no_metadata_or_masked_arrays():
    # importlib.metadata (a run-time version lookup would import it) and
    # numpy.ma (imported by the first np.unique call) each add 10 to 25 ms
    # to a process's first grid; importing the CLI adds neither, nor
    # concurrent.futures (about 19 ms with multiprocessing, logging and
    # socket), which nothing in the package uses, nor hashlib (OpenSSL),
    # which only a custom family's catalog key needs
    src = os.path.dirname(os.path.dirname(sparse_grid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import sys, nestquad as nq, nestquad.cli\n"
        "table = nq.recurrence_coefficients(nq.legendre(), 8)\n"
        "nq.smolyak_grid(nq.gauss_levels(table, 3), 2, 3)\n"
        "slow = {'importlib.metadata', 'numpy.ma', 'concurrent.futures',\n"
        "        'multiprocessing', 'hashlib'}\n"
        "print(sorted(slow & set(sys.modules)))\n"
        "print(type(nq.__version__).__name__)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "str"]


def test_build_peak_is_a_small_multiple_of_the_grid(leg_chain):
    # the walk carries one multiset id per node, and the nodes are read
    # back in row blocks: at d = 10, k = 7 (60,225 nodes, 5.3 MB of nodes
    # and weights) the build's traced peak is 1.70 times the grid's own
    # bytes: the nodes, the weights and the walk's tree
    family = nested_levels(leg_chain, 7)
    tracemalloc.start()
    try:
        grid = smolyak_grid(family, 10, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.node_count == 60225
    assert peak <= 2.75 * (grid.nodes.nbytes + grid.weights.nbytes)


def _compositions_ref(total, d):
    """Independent multi-index enumeration for the merge cross-check."""
    if d == 1:
        return [(total,)]
    out = []
    for last in range(1, total - d + 2):
        for head in _compositions_ref(total - last, d - 1):
            out.append(head + (last,))
    return out


class TestDkLemma:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_product_perturbation_bound(self, eps):
        rng = np.random.default_rng(7)
        for k in range(1, 13):
            bound = k * eps * (1.0 + eps) ** (k - 1)
            for _ in range(200):
                s = rng.uniform(-1.0, 1.0, size=k)
                r = s + rng.uniform(-eps, eps, size=k)
                assert abs(np.prod(s) - np.prod(r)) <= bound


class TestTensorErrorBound:
    def test_zero_epsilon(self):
        assert tensor_error_bound(0.0, (3, 3), 1.0) == 0.0

    def test_formula_example(self):
        value = tensor_error_bound(1e-12, (5, 5, 5, 5), 1.0)
        assert value == pytest.approx(
            1e-12 * 4.0 * (1.0 + 1e-12) ** 3 * 36.0, rel=1e-14)
        assert value == pytest.approx(1.44e-10, rel=1e-6)

    def test_dataclass_value(self):
        value = tensor_error_bound(1e-6, [1, 3], 2.0)
        assert value == pytest.approx(
            1e-6 * 2.0 * 2.0 * (1.0 + 1e-6) * math.sqrt(2.0) * 2.0,
            rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            tensor_error_bound(-1e-6, (3,), 1.0)
        with pytest.raises(ParameterError):
            tensor_error_bound(1e-6, (), 1.0)
        with pytest.raises(ParameterError):
            tensor_error_bound(1e-6, (3, -1), 1.0)
        with pytest.raises(ParameterError):
            tensor_error_bound(1e-6, (3,), -1.0)

    def test_empirical_tensor_bound(self, leg_table):
        # perturb a Gauss-3 rule's weights (mass preserved) so its moment
        # residual through degree 5 is exactly eps, tensorize in d=3, and
        # compare every orthonormal-basis product against the bound
        eps = 1e-6
        g3 = gauss_rule(leg_table, 3)
        alpha = g3.exactness_degree
        basis = eval_orthonormal(leg_table, alpha, g3.nodes)
        direction = np.array([1.0, 0.0, -1.0])
        delta = eps / float(np.linalg.norm(basis @ direction))
        weights = g3.weights + delta * direction
        measured = float(np.linalg.norm(
            moment_residuals(g3.nodes, weights, leg_table, alpha)))
        assert measured == pytest.approx(eps, rel=1e-9)

        perturbed = QuadratureRule(
            family=legendre(), nodes=g3.nodes, weights=weights,
            exactness_degree=alpha, residual_norm=measured,
            weight_floor_relaxed=True)
        _, tw = tensor_rule([perturbed] * 3)
        bound = tensor_error_bound(measured, (alpha,) * 3, 1.0)
        for js in itertools.product(range(alpha + 1), repeat=3):
            vals = np.multiply.outer(
                np.multiply.outer(basis[js[0]], basis[js[1]]),
                basis[js[2]]).ravel()
            applied = float(tw @ vals)
            exact = 1.0 if js == (0, 0, 0) else 0.0
            assert abs(applied - exact) <= bound, f"basis {js}"


_WRITERS = {
    "csv": write_grid_csv,
    "json": lambda grid, path: write_grid_json(grid, path, "legendre"),
}
# -0.0 beside 0.0, subnormals, +-1e300 and neighbours one ulp apart, with
# draws from the whole range a weight sum cannot overflow
_GRID_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300,
                     1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                     0.1, math.nextafter(0.1, 1.0)]),
    st.floats(-1e300, 1e300))


class TestExport:
    def test_csv_round_trip(self, nested_family, tmp_path):
        grid = smolyak_grid(nested_family, 2, 3)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,weight"
        assert len(lines) == grid.node_count + 1
        row = lines[1].split(",")
        assert float(row[0]) == grid.nodes[0, 0]
        assert float(row[1]) == grid.nodes[0, 1]
        assert float(row[2]) == grid.weights[0]

    def test_json_schema(self, nested_family, tmp_path):
        grid = smolyak_grid(nested_family, 2, 2)
        path = tmp_path / "grid.json"
        write_grid_json(grid, path, "legendre")
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert set(doc) == {"d", "k", "family_ref", "nodes", "weights"}
        assert doc["d"] == 2 and doc["k"] == 2
        nodes, weights, family_ref = read_grid_json(path)
        assert family_ref == "legendre"
        assert np.array_equal(nodes, grid.nodes)
        assert np.array_equal(weights, grid.weights)

    def test_json_reader_refuses_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SchemaError, match="not valid JSON"):
            read_grid_json(path)

    @pytest.mark.parametrize("family_ref", [None, 7, ["legendre"]])
    def test_json_reader_refuses_a_family_ref_that_is_not_a_string(
            self, nested_family, tmp_path, family_ref):
        path = tmp_path / "grid.json"
        write_grid_json(smolyak_grid(nested_family, 2, 2), path, "legendre")
        doc = json.loads(path.read_text())
        doc["family_ref"] = family_ref
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="family_ref must be a string"):
            read_grid_json(path)

    def test_json_writer_refuses_a_family_ref_that_is_not_a_string(
            self, nested_family, tmp_path):
        path = tmp_path / "grid.json"
        with pytest.raises(ParameterError, match="family_ref"):
            write_grid_json(smolyak_grid(nested_family, 2, 2), path, None)
        assert not path.exists()

    @pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
    @pytest.mark.parametrize("where, value", [("node", math.nan),
                                              ("weight", math.inf)])
    def test_non_finite_value_is_refused_before_writing(
            self, nested_family, tmp_path, write, where, value):
        grid = smolyak_grid(nested_family, 2, 2)
        nodes, weights = grid.nodes.copy(), grid.weights.copy()
        if where == "node":
            nodes[1, 0] = value
        else:
            weights[1] = value
        path = tmp_path / "grid.out"
        with pytest.raises(ParameterError, match="finite"):
            write(SparseGrid(grid.k, nodes, weights, nested_family), path)
        assert not path.exists()

    @pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
    def test_failed_write_leaves_the_old_file(self, nested_family, tmp_path,
                                              write):
        path = tmp_path / "grid.out"
        write(smolyak_grid(nested_family, 2, 2), path)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        with mock.patch("os.replace", interrupted), \
                pytest.raises(OSError, match="grid.out"):
            write(smolyak_grid(nested_family, 3, 3), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["grid.out"]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 12),
           family_ref=st.one_of(
               st.sampled_from(["legendre", "jacobi(0.0,0.3)",
                                "légendre ∞ \U0001d53c"]),
               st.text()))
    def test_files_match_the_encoders(self, nested_family, data, d, n,
                                      family_ref):
        nodes = np.array(data.draw(st.lists(
            _GRID_VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
        weights = data.draw(st.lists(_GRID_VALUES, min_size=n - 1,
                                     max_size=n - 1))
        weights.append(nested_family.family.mass ** d - math.fsum(weights))
        grid = SparseGrid(1, nodes, np.array(weights), nested_family)
        doc = {"d": d, "k": 1, "family_ref": family_ref,
               "nodes": grid.nodes.tolist(), "weights": grid.weights.tolist()}
        rows = [",".join(f"x{q + 1}" for q in range(d)) + ",weight"]
        for point, weight in zip(grid.nodes.tolist(), grid.weights.tolist()):
            rows.append(",".join(map(repr, [*point, weight])))
        with tempfile.TemporaryDirectory() as tmp:
            json_path = os.path.join(tmp, "grid.json")
            csv_path = os.path.join(tmp, "grid.csv")
            write_grid_json(grid, json_path, family_ref)
            write_grid_csv(grid, csv_path)
            with open(json_path, "rb") as fh:
                assert fh.read() == (json.dumps(doc, indent=2)
                                     + "\n").encode()
            with open(csv_path, "rb") as fh:
                assert fh.read() == ("\n".join(rows) + "\n").encode()
            back_nodes, back_weights, back_ref = read_grid_json(json_path)
        assert back_ref == family_ref
        assert np.array_equal(back_nodes.view(np.int64),
                              grid.nodes.view(np.int64))
        assert np.array_equal(back_weights.view(np.int64),
                              grid.weights.view(np.int64))
