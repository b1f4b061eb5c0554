import importlib
import json
import math
import time
import warnings
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from loctimes.bessel import scaled_edge_kernel
from loctimes.chain import Generator, _reach, srw_generator, validate_generator
from loctimes.density import (
    _ORDER_SCHEDULE,
    _OperatorSeries,
    _check_local_times,
    _cofactor_subset_weights,
    _gamma_arguments,
    _range_rates,
    _rate_block,
    _series_support,
    _subset_layout,
    _undirected_support,
    density,
    density_batch,
    density_certified,
    density_quadrature,
    density_rows,
    density_tree,
    density_tridiagonal,
    range_rates,
    _replaced_matrix,
)
from loctimes.errors import (
    DomainError,
    ExplosionGuardError,
    NegativeRateError,
    NonConvergedTruncationError,
    NotIntervalError,
    NotTreeError,
    NotTridiagonalError,
    ResidualImaginaryError,
)
from loctimes.rates import density_upper_bound, eta, rate_general
from loctimes.rayknight import rk_fixed_time_check

# the package exports a function named density, so fetch the module itself
density_module = importlib.import_module("loctimes.density")
flows_module = importlib.import_module("loctimes.flows")

TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


def random_conservative(rng, n, symmetric=False, tridiagonal=False):
    B = rng.uniform(0.3, 1.3, (n, n))
    if tridiagonal:
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
        B = np.where(mask, B, 0.0)
    else:
        np.fill_diagonal(B, 0.0)
    if symmetric:
        B = 0.5 * (B + B.T)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A, tuple(range(n)))


def random_point(rng, n, T):
    w = rng.dirichlet(np.ones(n))
    w = np.maximum(w, 0.02)
    w /= w.sum()
    return w * T


# ---------------------------------------------------------------------------
# cofactor
# ---------------------------------------------------------------------------

def cofactor(M, a, b):
    """The (b,a) cofactor of M: det of the (b,a)-replaced matrix."""
    return float(np.linalg.det(_replaced_matrix(np.asarray(M, dtype=float), a, b)))


def test_cofactor_identity_matrix():
    for n in (1, 2, 4):
        M = np.eye(n)
        assert cofactor(M, 0, 0) == pytest.approx(1.0)


def test_cofactor_two_by_two_off_diagonal():
    M = np.array([[2.0, 3.0], [5.0, 7.0]])
    # replacing row 1 and column 0 leaves -M[0,1] up to the unit pair
    assert cofactor(M, 0, 1) == pytest.approx(-M[0, 1])
    assert cofactor(M, 1, 0) == pytest.approx(-M[1, 0])
    assert cofactor(M, 0, 0) == pytest.approx(M[1, 1])


def test_replaced_matrix_layout():
    M = np.arange(9, dtype=float).reshape(3, 3)
    N = _replaced_matrix(M, 0, 2)
    assert np.all(N[2, :] == [1.0, 0.0, 0.0])
    assert np.all(N[:2, 0] == 0.0)
    assert np.all(N[:2, 1:] == M[:2, 1:])


def test_tridiagonal_cofactor_factorization():
    # det_ab(M) over an interval splits at a and b for tridiagonal M: the
    # outer blocks contribute their own cofactors and every middle step
    # contributes the negated superdiagonal entry
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(2, 7)
        M = np.zeros((n, n))
        for i in range(n):
            M[i, i] = rng.normal()
            if i + 1 < n:
                M[i, i + 1] = rng.normal()
                M[i + 1, i] = rng.normal()
        a, b = sorted(rng.integers(0, n, 2))
        left = cofactor(M[: a + 1, : a + 1], a, a)
        middle = np.prod([-M[i, i + 1] for i in range(a, b)])
        right = cofactor(M[b:, b:], 0, 0)
        assert cofactor(M, a, b) == pytest.approx(left * middle * right, rel=1e-10, abs=1e-12)


def _subset_weights_reference(B, a, b):
    """One determinant per subset Q: the cofactor of -B on the complement of Q."""
    r = B.shape[0]
    others = [x for x in range(r) if x != a and x != b]
    weights = {}
    for size in range(len(others) + 1):
        for Q in combinations(others, size):
            keep = [x for x in range(r) if x not in Q]
            w = cofactor(-B[np.ix_(keep, keep)], keep.index(a), keep.index(b))
            if w != 0.0:
                weights[Q] = w
    return weights


@pytest.mark.parametrize("r", range(2, 7))
def test_cofactor_subset_weights_match_per_subset_determinants(r):
    rng = np.random.default_rng(1000 + r)
    for _ in range(3):
        # signed, asymmetric off-diagonal part
        B = rng.normal(size=(r, r))
        np.fill_diagonal(B, 0.0)
        for a in range(r):
            for b in range(r):
                got = _cofactor_subset_weights(B, a, b)
                expected = _subset_weights_reference(B, a, b)
                assert list(got) == list(expected)
                for Q, w in expected.items():
                    assert got[Q] == pytest.approx(w, rel=1e-12)


def _stacked_weights_reference(B, a, b):
    """The subset weights as one stack built per call, each subset's rows and
    columns zeroed and its diagonal set to 1 in place (the layout before it
    was cached per (|R|, a, b))."""
    r = B.shape[0]
    others = [x for x in range(r) if x != a and x != b]
    subsets = [Q for size in range(len(others) + 1) for Q in combinations(others, size)]
    in_Q = np.zeros((len(subsets), r), dtype=bool)
    for k, Q in enumerate(subsets):
        in_Q[k, list(Q)] = True
    stack = np.where(in_Q[:, :, None] | in_Q[:, None, :], 0.0, _replaced_matrix(-B, a, b))
    layer, x = np.nonzero(in_Q)
    stack[layer, x, x] = 1.0
    dets = np.linalg.det(stack)
    return {Q: float(w) for Q, w in zip(subsets, dets) if w != 0.0}


def test_subset_layout_is_shared_by_chains_of_one_shape():
    rng = np.random.default_rng(1010)
    r, a, b = 5, 1, 3
    weights, hits = [], []
    for _ in range(2):
        B = rng.uniform(0.5, 1.5, (r, r)) * (rng.random((r, r)) < 0.7)
        np.fill_diagonal(B, 0.0)
        before = _subset_layout.cache_info()
        got = _cofactor_subset_weights(B, a, b)
        after = _subset_layout.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
        hits.append(after.hits - before.hits)
        weights.append(got)
        # bit for bit the weights of a stack built per call
        expected = _stacked_weights_reference(B, a, b)
        assert list(got) == list(expected)
        assert [w.hex() for w in got.values()] == [w.hex() for w in expected.values()]
    # the second chain reads the layout the first one left
    assert hits[1] == 1
    subsets, (replaced,), unit = _subset_layout(r, a, b)
    assert len(subsets) == 2 ** (r - 2) and replaced.shape == (8, r, r)
    assert not replaced.flags.writeable and not unit.flags.writeable
    assert weights[0] != weights[1]


def test_cofactor_subset_weights_drop_exact_zeros():
    # on a path a = 0 .. b = 4, removing any middle state disconnects a from
    # b, so only the empty subset carries a weight
    B = srw_generator(0, 4).off_diagonal()
    got = _cofactor_subset_weights(B, 0, 4)
    assert list(got) == list(_subset_weights_reference(B, 0, 4)) == [()]
    # an interior endpoint keeps some subsets and drops others
    got = _cofactor_subset_weights(B, 1, 3)
    expected = _subset_weights_reference(B, 1, 3)
    assert list(got) == list(expected) and len(got) < 2 ** 3
    assert all(got[Q] == pytest.approx(w, rel=1e-12) for Q, w in expected.items())


# ---------------------------------------------------------------------------
# torus series
# ---------------------------------------------------------------------------

def operator_series(Bt, weights):
    """The operator ``weights`` applied to the flow series of ``Bt``, whose
    range rates are ``Bt`` itself (zero diagonal)."""
    Bt = np.ascontiguousarray(Bt, dtype=float)
    return _OperatorSeries(_range_rates(Bt.tobytes(), len(Bt)), Bt, weights)


def series_at(Bt, weights, l, order):
    """The operator ``weights`` ({Q: weight}) applied to the flow series of
    ``Bt`` truncated at ``order``, at one point: (value, certified bound)."""
    series = operator_series(Bt, weights)
    L = np.asarray(l, dtype=float)[None, :]
    products = series.subset_products(L)
    tail = series.certificate(L, products, [order])[0, 0]
    return series.values(L, products, order)[0], tail


def test_series_no_derivatives_is_bessel():
    Bt = np.array([[0.0, 1.0], [1.0, 0.0]])
    # value is I0(2 sqrt(l1 l2)) by the collapsed pair series
    value, _ = series_at(Bt, {(): 1.0}, [0.5, 0.5], 40)
    assert value == pytest.approx(sp.iv(0, 1.0), rel=1e-13)
    value, _ = series_at(Bt, {(): 1.0}, [0.25, 0.25], 40)
    assert value == pytest.approx(sp.iv(0, 0.5), rel=1e-13)


def test_series_zero_weights():
    value, bound = series_at(np.zeros((3, 3)), {(): 1.0}, [0.2, 0.3, 0.5], 10)
    assert value == 1.0 and bound == 0.0


def test_series_single_derivative_is_i1():
    Bt = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, _ = series_at(Bt, {(1,): 1.0}, [1.0, 1.0], 60)
    assert value == pytest.approx(sp.iv(1, 2.0), rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        l = rng.uniform(0.1, 2.0, 2)
        value, _ = series_at(Bt, {(1,): 1.0}, l, 60)
        expected = math.sqrt(l[0] / l[1]) * sp.iv(1, 2.0 * math.sqrt(l[0] * l[1]))
        assert value == pytest.approx(expected, rel=1e-12)


def test_series_tail_bound_is_certified_and_monotone():
    rng = np.random.default_rng(4)
    Bt = np.abs(rng.uniform(0.5, 2.0, (3, 3)))
    np.fill_diagonal(Bt, 0.0)
    l = rng.uniform(0.3, 1.0, 3)
    reference, _ = series_at(Bt, {(1,): 1.0}, l, 70)
    tails = []
    for order in (4, 8, 12, 16, 24):
        value, bound = series_at(Bt, {(1,): 1.0}, l, order)
        assert abs(value - reference) <= bound * (1 + 1e-12) + 1e-15
        tails.append(bound)
    assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))


def test_series_derivative_outside_support_is_zero():
    Bt = np.zeros((3, 3))
    Bt[0, 1] = Bt[1, 0] = 1.0
    value, bound = series_at(Bt, {(2,): 1.0}, [0.5, 0.5, 0.5], 20)
    assert value == 0.0 and bound == 0.0


def test_series_rejects_bad_local_times():
    # density_certified and density_batch are the ways into the series
    with pytest.raises(DomainError):
        density_certified(TWO_STATE, (1, 2), 1, 2, [0.5, 0.0])
    with pytest.raises(DomainError):
        density_batch(TWO_STATE, (1, 2), 1, 2, [[0.5, 0.0]])


# ---------------------------------------------------------------------------
# cofactor operator
# ---------------------------------------------------------------------------

def test_operator_two_state_off_diagonal():
    B = np.array([[0.0, 0.7], [0.4, 0.0]])
    l = np.array([0.6, 0.9])
    weights = _cofactor_subset_weights(B, 0, 1)
    assert weights == {(): pytest.approx(0.7)}
    value, _ = series_at(B, weights, l, 50)
    z = 2.0 * math.sqrt(0.7 * 0.4 * l[0] * l[1])
    assert value == pytest.approx(0.7 * sp.iv(0, z), rel=1e-12)


def test_operator_two_state_diagonal_is_derivative():
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    l = np.array([0.8, 0.5])
    weights = _cofactor_subset_weights(B, 0, 0)
    # the pure-derivative subset carries the trivial replacement determinant
    assert weights[(1,)] == pytest.approx(1.0)
    value, _ = series_at(B, weights, l, 60)
    expected = math.sqrt(l[0] / l[1]) * sp.iv(1, 2.0 * math.sqrt(l[0] * l[1]))
    assert value == pytest.approx(expected, rel=1e-12)


def test_operator_vanishes_for_zero_rates_off_diagonal():
    B = np.zeros((3, 3))
    weights = _cofactor_subset_weights(B, 0, 1)
    value, _ = series_at(B, weights, [0.3, 0.3, 0.4], 10)
    assert value == 0.0


# ---------------------------------------------------------------------------
# the density: examples and cross-checks
# ---------------------------------------------------------------------------

def test_two_state_switched_value():
    value = density(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5], tol=1e-12)
    assert value == pytest.approx(math.exp(-1) * sp.iv(0, 1.0), rel=1e-12)
    assert value == pytest.approx(0.4657596075936405, rel=1e-10)


def test_two_state_returned_value():
    rng = np.random.default_rng(5)
    for _ in range(10):
        l1, l2 = rng.uniform(0.1, 1.5, 2)
        value = density(TWO_STATE, (1, 2), 1, 1, [l1, l2], tol=1e-12)
        expected = math.exp(-(l1 + l2)) * math.sqrt(l1 / l2) * sp.iv(
            1, 2.0 * math.sqrt(l1 * l2))
        assert value == pytest.approx(expected, rel=1e-11)


def test_singleton_range_is_no_jump_probability():
    g = srw_generator(0, 3)
    T = 0.75
    value = density(g, (1,), 1, 1, [T], tol=1e-12)
    assert value == pytest.approx(math.exp(g.rates[g.index(1), g.index(1)] * T), rel=1e-12)


def test_density_depends_only_on_rates_inside_R():
    # redistribute escape mass among outside states and rewire outside rows;
    # the R x R block is unchanged and so is the density
    A1 = np.array([
        [0.0, 1.0, 0.0, 0.5],
        [1.0, 0.0, 1.0, 0.0],
        [0.7, 0.3, 0.0, 2.0],
        [0.1, 0.0, 0.9, 0.0],
    ])
    A2 = A1.copy()
    A2[0, 3] = 0.0
    A2 = np.column_stack([A2, np.zeros(4)])
    A2 = np.vstack([A2, np.zeros(5)])
    A2[0, 4] = 0.5          # same escape total from state 0, different target
    A2[3] = [0.6, 0.2, 0.1, 0.0, 0.4]   # outside row rewired entirely
    A2[4, 0] = 1.3
    g1 = validate_generator(A1, (0, 1, 2, 3))
    g2 = validate_generator(A2, (0, 1, 2, 3, 4))
    R = (0, 1, 2)
    l = [0.4, 0.3, 0.3]
    assert g1.submatrix(R).tolist() == g2.submatrix(R).tolist()
    v1 = density(g1, R, 0, 2, l, tol=1e-12)
    v2 = density(g2, R, 0, 2, l, tol=1e-12)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_density_rejects_boundary_point():
    with pytest.raises(DomainError):
        density(TWO_STATE, (1, 2), 1, 2, [1.0, 1e-13])


def test_density_raises_when_tail_cannot_converge():
    g = validate_generator([[0.0, 60.0], [60.0, 0.0]], (1, 2))
    with pytest.raises(NonConvergedTruncationError):
        density_certified(g, (1, 2), 1, 2, [1.0, 1.0], tol=1e-10)


@pytest.mark.parametrize("route", [density_certified])
def test_large_local_times_raise_a_typed_error(route):
    # at l = (200, 800) the series overflows a double and the diagonal factor
    # exp(-1000) underflows to 0: no RuntimeWarning and no nan may escape
    g = validate_generator([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergedTruncationError) as info:
            route(g, (0, 1), 0, 1, [200.0, 800.0])
    assert "nan" not in str(info.value)


@pytest.mark.parametrize("rates, l, exponent, z", [
    # the unit two-state chain: e^{-200} I0(800) = 1.95226e-89
    ([[0.0, 1.0], [1.0, 0.0]], [200.0, 800.0], -200.0, 800.0),
    # 0 <-> 1 at rate 1, both killed at rate 9: e^{-684} I0(76) = 4.016e-299
    ([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [1.0, 0.0, 0.0]], [38.0, 38.0], -684.0, 76.0),
], ids=["two-state", "killed"])
def test_tridiagonal_at_large_local_times(rates, l, exponent, z):
    # each kernel is scaled by e^{-z} and the exponent is applied once, so
    # neither I0(800) nor the diagonal factor exp(-760) leaves the doubles
    g = validate_generator(rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = density_tridiagonal(g, (0, 1), 0, 1, l)
    assert value == pytest.approx(math.exp(exponent) * sp.ive(0, z), rel=1e-12, abs=0)


def test_certificate_holds_where_the_diagonal_factor_underflows():
    # 0 <-> 1 at rate 1, both killed at rate 9 on R = (0, 1): the diagonal
    # factor exp(-760) underflows to 0, and the bound must still cover the
    # exact density e^{-760} I0(76) = 4.016e-299
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = A[2, 0] = 1.0
    A[0, 2] = A[1, 2] = 9.0
    g = validate_generator(A)
    exact = math.exp(76.0 - 760.0) * sp.ive(0, 76.0)
    assert exact > 1e-299
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev = density_certified(g, (0, 1), 0, 1, (38.0, 38.0))
    assert abs(ev.value - exact) <= ev.error_bound <= 1e-10
    # in a batch, a point whose diagonal factor is normal is not touched
    values, bounds, _ = density_batch(g, (0, 1), 0, 1, [[38.0, 38.0], [3.0, 2.0]])
    single = density_certified(g, (0, 1), 0, 1, (3.0, 2.0))
    assert (values[1], bounds[1]) == (single.value, single.error_bound)
    assert bounds[0] == ev.error_bound


# density-sweep input seed 8, stream 1, op 678, point 2: an interval chain on
# 0..5 (zero diagonal, recomputed by validate_generator) with l_1 = 0.0107,
# where the signed derivative subsets of the series cancel
_CANCELLING_RATES = [(0, 1, "0x1.a4e7ffa0cd9b7p-1"), (1, 0, "0x1.0326ccf88062ep+0"),
                     (1, 2, "0x1.11206fcfa8b5ep-1"), (2, 1, "0x1.23e2f9db66986p-1"),
                     (2, 3, "0x1.79762991e5c30p+0"), (3, 2, "0x1.eedeb9188615fp-1"),
                     (3, 4, "0x1.3d44550e95f95p-1"), (4, 3, "0x1.b21e0d7a9ef5fp-1"),
                     (4, 5, "0x1.aebaeebe9a1cdp-1"), (5, 4, "0x1.ae0e199ef62e7p-1")]
_CANCELLING_POINT = ["0x1.81fc031afde23p-2", "0x1.5dc84bc5862d6p-7", "0x1.1c7df55bb0137p-3",
                     "0x1.333657c6c3e96p-5", "0x1.f479ca915a00bp-4", "0x1.9f0e8688c2cd3p-2"]


@pytest.mark.xfail(strict=True, reason="the certified bound covers truncation only; the "
                   "rounding of cancelling subset terms (5.2e-16 here) is not in it")
def test_certified_bound_covers_rounding_where_subsets_cancel():
    A = np.zeros((6, 6))
    for x, y, rate in _CANCELLING_RATES:
        A[x, y] = float.fromhex(rate)
    g = validate_generator(A)
    l = [float.fromhex(v) for v in _CANCELLING_POINT]
    ev = density_certified(g, g.states, 4, 5, l, tol=1e-10)
    exact = density_tridiagonal(g, g.states, 4, 5, l)
    assert abs(ev.value - exact) <= ev.error_bound


def test_tail_sums_closed_form_matches_direct_sum():
    # one subset of size q at unit local times: the certificate is the tail
    # sum_{N > n0} N^q S^N / N! itself, at orders below and above the shifts
    orders = [0, 3, 8, 26]
    for q in range(4):
        for target in (0.3, 2.0, 9.0):
            Bt = np.full((4, 4), target / 12)
            np.fill_diagonal(Bt, 0.0)
            series = operator_series(Bt, {tuple(range(q)): 1.0})
            L = np.ones((1, 4))
            S = float((np.sqrt(L[:, series._xs] * L[:, series._ys]) @ series.w)[0])
            got = series.certificate(L, series.subset_products(L), orders)[:, 0]
            for n0, g in zip(orders, got):
                direct = math.fsum(
                    math.exp(q * math.log(N) + N * math.log(S) - math.lgamma(N + 1.0))
                    for N in range(n0 + 1, n0 + 200))
                assert g == pytest.approx(direct, rel=1e-12, abs=0)
    # no support: S = 0, and no term is dropped
    series = operator_series(np.zeros((3, 3)), {(): 1.0})
    L = np.ones((2, 3))
    assert np.all(series.certificate(L, series.subset_products(L)) == 0.0)


def test_cached_poisson_tail_arguments_are_read_only_and_shared():
    arguments, above = _gamma_arguments(_ORDER_SCHEDULE, 4)
    assert _gamma_arguments(tuple(np.array(_ORDER_SCHEDULE).tolist()), 4)[0] is arguments
    for arr in (arguments, above):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    n0 = np.array(_ORDER_SCHEDULE)[None, :, None]
    k = np.arange(4)[:, None, None]
    assert np.array_equal(arguments, np.maximum(n0 - k + 1, 1))
    assert np.array_equal(above, n0 >= k)
    # a series holds the schedule's arguments for its widest subset
    rng = np.random.default_rng(1211)
    Bt = rng.uniform(0.5, 2.0, (4, 4))
    np.fill_diagonal(Bt, 0.0)
    series = operator_series(Bt, _cofactor_subset_weights(Bt, 0, 1))
    assert series._schedule_gamma[0] is _gamma_arguments(_ORDER_SCHEDULE, 3)[0]
    stirling = series._stirling
    assert not stirling.flags.writeable
    assert stirling.tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 1]]


def test_tails_at_orders_off_the_schedule():
    rng = np.random.default_rng(1210)
    Bt = rng.uniform(0.5, 2.0, (3, 3))
    np.fill_diagonal(Bt, 0.0)
    series = operator_series(Bt, _cofactor_subset_weights(Bt, 0, 1))
    L = rng.uniform(0.3, 1.0, (2, 3))
    products = series.subset_products(L)
    off = series.certificate(L, products, [0, 3, 26, 200])
    on = series.certificate(L, products)
    # a row depends on its own order only
    assert np.array_equal(off[2], on[_ORDER_SCHEDULE.index(26)])
    assert np.array_equal(series.certificate(L, products, [3]), off[1:2])
    S = np.sqrt(L[:, series._xs] * L[:, series._ys]) @ series.w
    for p in range(len(L)):
        for n0, got in zip((0, 3, 200), off[[0, 1, 3], p]):
            direct = math.fsum(
                abs(w) / np.prod(L[p, list(Q)])
                * math.exp(len(Q) * math.log(N) + N * math.log(S[p]) - math.lgamma(N + 1.0))
                for Q, w in series.weights.items() for N in range(n0 + 1, n0 + 300))
            assert got == pytest.approx(direct, rel=1e-12, abs=0)


# a chain and points with dyadic rates and local times (l_x = (k_x / 8)^2):
# sum A[x,x] l_x and S = sum B[x,y] sqrt(l_x l_y) are exact, so the two dot
# products of the certificate do not depend on the BLAS kernel that numpy
# picks for the batch size; the points need orders 18, 26, 12, 36, 18, 26, 48
_DYADIC_RATES = [[0, 1.25, 0, 0.5], [0.75, 0, 1.0, 0], [0, 0.5, 0, 1.5], [1.0, 0, 0.25, 0]]
_DYADIC_POINTS = (np.array([[2, 3, 4, 3], [5, 6, 4, 7], [1, 2, 2, 3], [8, 9, 10, 7],
                            [3, 3, 3, 3], [6, 5, 7, 6], [12, 10, 9, 11]]) / 8.0) ** 2


def test_batch_of_one_is_the_single_point_request():
    g = validate_generator(_DYADIC_RATES)
    R = g.states
    orders = set()
    for l in _DYADIC_POINTS:
        single = density_certified(g, R, 0, 2, l)
        values, bounds, batch_orders = density_batch(g, R, 0, 2, l[None, :])
        assert (single.value, single.error_bound, single.order) == (
            values[0], bounds[0], batch_orders[0])
        orders.add(single.order)
    assert len(orders) == 5


def test_mixed_order_batch_matches_its_order_groups():
    # each row of a batch whose points need different orders equals, bit for
    # bit, the batch of just its order group (one order: no group masks), and
    # the single-point request where the group has one point
    g = validate_generator(_DYADIC_RATES)
    R = g.states
    values, bounds, orders = density_batch(g, R, 0, 2, _DYADIC_POINTS)
    assert orders.tolist() == [18, 26, 12, 36, 18, 26, 48]
    for order in set(orders.tolist()):
        group = orders == order
        if group.sum() == 1:
            single = density_certified(g, R, 0, 2, _DYADIC_POINTS[group][0])
            got = ([single.value], [single.error_bound], [single.order])
        else:
            got = density_batch(g, R, 0, 2, _DYADIC_POINTS[group])
        for part, expected in zip(got, (values, bounds, orders)):
            assert np.array_equal(np.asarray(part), expected[group])


@pytest.mark.parametrize("seed, case", enumerate(
    ["srw3", "srw4", "srw5", "support4", "conjugated"]))
def test_batch_matches_scalar_certified(seed, case):
    rng = np.random.default_rng(900 + seed)
    conjugation = None
    if case.startswith("srw"):
        n = int(case[-1])
        g = srw_generator(0, n - 1)
        T = 2.0
    else:
        # one random support of 9 edges (a 4-cycle plus chords)
        n = 4
        chain_rng = np.random.default_rng(904)
        A = chain_rng.uniform(0.5, 1.5, (n, n)) * (chain_rng.random((n, n)) < 0.5)
        for k in range(n):
            A[k, (k + 1) % n] = chain_rng.uniform(0.5, 1.5)
        np.fill_diagonal(A, 0.0)
        g = validate_generator(A)
        T = 1.2
        if case == "conjugated":
            conjugation = rng.uniform(0.7, 1.4, n)
    R = tuple(range(n))
    a, b = (int(x) for x in rng.integers(0, n, 2))
    L = T * np.maximum(rng.dirichlet(np.ones(n), 40), 0.01)
    values, bounds, orders = density_batch(g, R, a, b, L, tol=1e-10,
                                           conjugation=conjugation)
    assert np.all(bounds <= 1e-10)
    for l, v, e, o in zip(L, values, bounds, orders):
        single = density_certified(g, R, a, b, l, tol=1e-10, conjugation=conjugation)
        assert single.order == o
        assert abs(v - single.value) <= e + 1e-13 * abs(single.value)
        sharp = density_certified(g, R, a, b, l, tol=1e-12)
        assert abs(v - sharp.value) <= e + sharp.error_bound + 1e-13 * abs(sharp.value)


def test_batch_with_one_uncertifiable_point_raises():
    g = validate_generator([[0.0, 60.0], [60.0, 0.0]], (1, 2))
    good = [0.01, 0.01]
    assert density_batch(g, (1, 2), 1, 2, [good], tol=1e-10)[1][0] <= 1e-10
    with pytest.raises(NonConvergedTruncationError, match="1 of 3 points"):
        density_batch(g, (1, 2), 1, 2, [good, [1.0, 1.0], good], tol=1e-10)
    with pytest.raises(NonConvergedTruncationError,
                       match=r"at order 140 \(2 of 4 points\)"):
        density_batch(g, (1, 2), 1, 2, [[1.0, 1.0], good, good, [1.2, 1.2]], tol=1e-10)
    with pytest.raises(DomainError):
        density_batch(g, (1, 2), 1, 2, [good, [0.5, 0.0]])
    with pytest.raises(ValueError):
        density_batch(g, (1, 2), 1, 2, [[0.5, 0.5, 0.5]])


def test_order_selection_matches_loop_over_schedule():
    # the lowest schedule order whose diag-scaled tail certifies, found by a
    # loop over orders and points, with bounds equal bit for bit
    rng = np.random.default_rng(1200)
    n = 4
    A = np.zeros((n, n))
    for k in range(n):
        A[k, (k + 1) % n] = rng.uniform(0.5, 1.5)
    A[0, 2], A[3, 1] = rng.uniform(0.5, 1.5, 2)
    g = validate_generator(A)
    R = tuple(range(n))
    L = rng.uniform(0.2, 5.0, (60, 1)) * np.maximum(rng.dirichlet(np.ones(n), 60), 0.01)
    tol = 1e-10
    values, bounds, orders = density_batch(g, R, 0, 2, L, tol=tol)

    B = g.submatrix(R)
    np.fill_diagonal(B, 0.0)
    series = _OperatorSeries(range_rates(g, R), B, _cofactor_subset_weights(B, 0, 2))
    diag_factor = np.exp(L @ np.diag(g.submatrix(R)))
    products = series.subset_products(L)
    for p in range(len(L)):
        for order in _ORDER_SCHEDULE:
            tail = diag_factor[p] * series.certificate(L, products, [order])[0, p]
            if tail <= tol:
                break
        assert orders[p] == order
        assert bounds[p] == tail
    assert len(set(orders.tolist())) >= 3


def test_single_order_error_bound_is_the_tail_majorant():
    # the series certifies one given order: the bound is
    # sum_Q |w_Q| / prod_{x in Q} l_x * sum_{N > order} N^|Q| S^N / N!
    rng = np.random.default_rng(1201)
    Bt = rng.uniform(0.5, 2.0, (3, 3))
    np.fill_diagonal(Bt, 0.0)
    l = rng.uniform(0.3, 1.0, 3)
    S = float(np.sum(Bt * np.sqrt(np.outer(l, l))))

    def tail(q, order):
        return math.fsum(
            math.exp(q * math.log(N) + N * math.log(S) - math.lgamma(N + 1.0))
            for N in range(order + 1, order + 200))

    for Q, order in (((), 12), ((1,), 16), ((0, 2), 20)):
        _, bound = series_at(Bt, {Q: 1.0}, l, order)
        assert bound == pytest.approx(tail(len(Q), order) / np.prod(l[list(Q)]), rel=1e-12)
    weights = _cofactor_subset_weights(Bt, 0, 1)
    _, bound = series_at(Bt, weights, l, 18)
    expected = sum(abs(w) / np.prod(l[list(Q)]) * tail(len(Q), 18)
                   for Q, w in weights.items())
    assert bound == pytest.approx(expected, rel=1e-12)


def test_certificate_reports_order_and_bound():
    res = density_certified(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5], tol=1e-10)
    assert res.error_bound <= 1e-10
    high = density_certified(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5], tol=1e-13).value
    assert abs(res.value - high) <= res.error_bound + 1e-15


def test_r_invariance_of_the_series():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        g = random_conservative(rng, n, tridiagonal=n == 4)
        l = random_point(rng, n, rng.uniform(0.5, 1.5))
        a, b = rng.integers(0, n, 2)
        R = tuple(range(n))
        base = density_certified(g, R, a, b, l, tol=1e-11).value
        # wide ratios inflate the conjugated majorant (the value is invariant
        # but the certificate is not), so keep r moderate
        r = rng.uniform(0.5, 2.0, n)
        conj = density_certified(g, R, a, b, l, tol=1e-11, conjugation=r).value
        assert abs(conj - base) <= 1e-9 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_quadrature_matches_series_two_state():
    v_series = density_certified(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5], tol=1e-12).value
    v_quad = density_quadrature(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5])
    assert v_quad == pytest.approx(v_series, abs=1e-10)


def test_quadrature_singleton():
    g = srw_generator(0, 3)
    assert density_quadrature(g, (2,), 2, 2, [1.3]) == pytest.approx(
        math.exp(-2 * 1.3), rel=1e-12)


def test_quadrature_size_guard():
    g = srw_generator(0, 5)
    with pytest.raises(ValueError):
        density_quadrature(g, (0, 1, 2, 3, 4), 0, 1, [0.2] * 5)


def _sparse_nonsymmetric(rng, n):
    """A random non-symmetric chain on a directed n-cycle plus one chord
    (for n >= 3), sparse enough for the certified series at n = 4."""
    A = np.zeros((n, n))
    for k in range(n):
        A[k, (k + 1) % n] = rng.uniform(0.5, 1.5)
    if n == 2:
        return validate_generator(A)
    A[0, 2] = rng.uniform(0.5, 1.5)
    A[2, 0] = rng.uniform(0.5, 1.5)
    return validate_generator(A)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_quadrature_matches_certified_on_nonsymmetric_chains(n):
    rng = np.random.default_rng(1300 + n)
    R = tuple(range(n))
    for _ in range(3):
        g = _sparse_nonsymmetric(rng, n)
        l = random_point(rng, n, rng.uniform(0.5, 1.5))
        # a < b, a > b and a == b
        for a, b in ((0, n - 1), (n - 1, 0), (1, 1)):
            cert = density_certified(g, R, a, b, l, tol=1e-14)
            quad = density_quadrature(g, R, a, b, l)
            assert quad == pytest.approx(cert.value, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="the fixed 32-point grid does not resolve the "
                   "integrand at large local times and nothing bounds its error; the "
                   "quadrature returns 2.2152 times the exact value here")
def test_quadrature_at_large_local_times():
    # the unit two-state chain: e^{-200} I0(800) = 1.95226e-89
    value = density_quadrature(TWO_STATE, (1, 2), 1, 2, [200.0, 800.0])
    assert value == pytest.approx(math.exp(-200.0) * sp.ive(0, 800.0), rel=1e-8, abs=0)


def test_quadrature_raises_on_imaginary_residue(monkeypatch):
    # a real generator puts both th and -th on the grid, so the residue is
    # rounding only; a complex node sum stands in for a broken integrand
    monkeypatch.setattr(density_module, "_quadrature_value",
                        lambda *args: complex(0.25, 1e-3))
    with pytest.raises(ResidualImaginaryError):
        density_quadrature(srw_generator(0, 2), (0, 1, 2), 0, 2, [0.5, 0.7, 0.8])


def _lapack_quadrature_value(A, B, l, a, b, grid_size):
    """The torus kernel as it was before the closed-form minor: one
    ``np.linalg.det`` call on the (nodes, k, k) stack of minors.
    Returns the node average and its rounding scale, the average of
    perm(|minor|) |exp(...)| over the nodes."""
    r = A.shape[0]
    if r == 1:
        return complex(math.exp(A[0, 0] * l[0])), 1.0
    sq = np.sqrt(l)
    D = B * (sq[None, :] / sq[:, None])
    rows = [x for x in range(r) if x != b]
    cols = [y for y in range(r) if y != a]
    minor = -B[np.ix_(rows, cols)].astype(complex)
    on_diag = [x for x in rows if x in cols]
    mi, mj = [rows.index(x) for x in on_diag], [cols.index(x) for x in on_diag]
    roots = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    count = grid_size ** (r - 1)
    e = np.ones((count, r), dtype=complex)
    e[:, :-1] = roots[np.stack(np.unravel_index(np.arange(count), (grid_size,) * (r - 1)),
                               axis=1)]
    V = e * (e.conj() @ D.T)
    M = np.repeat(minor[None], count, axis=0)
    M[:, mi, mj] += V[:, on_diag]
    ex = np.exp(float(np.dot(np.diag(A), l)) + V @ l)
    total = np.sum(np.linalg.det(M) * ex)
    k = r - 1
    perm = sum(np.prod(np.abs(M[:, np.arange(k), list(p)]), axis=1)
               for p in permutations(range(k)))
    scale = np.sum(perm * np.abs(ex))
    return (-1) ** (a + b) * total / count, scale / count


def _assert_matches_lapack(A, B, l, a, b, grid_size):
    """The kernel agrees with the LAPACK reference to 1e-13 relative, or to
    1e-15 of the rounding scale where the node sum cancels below 1% of it
    (a density that is 0 or nearly so)."""
    ref, scale = _lapack_quadrature_value(A, B, l, a, b, grid_size)
    got = density_module._quadrature_value(A, B, l, a, b, grid_size)
    assert abs(got - ref) <= 1e-13 * max(abs(ref), 1e-2 * scale), (got, ref, scale)


def test_quadrature_kernel_matches_the_lapack_reference():
    rng = np.random.default_rng(1700)
    seen = set()
    for _ in range(840):
        r = int(rng.integers(1, 5))
        B = rng.uniform(0.3, 1.3, (r, r))
        one_way = rng.uniform(size=(r, r)) < 0.25
        B[one_way.T & ~one_way] = 0.0
        np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        l = rng.dirichlet(np.ones(r)) * rng.uniform(0.3, 2.0) + 0.01
        a, b = (int(x) for x in rng.integers(0, r, 2))
        grid_size = int(rng.choice((8, 12, 16) if r == 4 else (8, 16, 32)))
        _assert_matches_lapack(A, B, l, a, b, grid_size)
        seen.add((r, np.sign(b - a), bool(np.any((B == 0) & (B.T > 0)))))
    assert {(r, s) for r, s, _ in seen} >= {(r, s) for r in (2, 3, 4) for s in (-1, 0, 1)}
    assert {r for r, _, one_way in seen if one_way} == {2, 3, 4}


def test_cached_node_phases_are_read_only():
    g = srw_generator(0, 3)
    density_module._cached_phases.cache_clear()
    density_quadrature(g, (0, 1, 2), 0, 2, [0.5, 0.7, 0.8])
    density_quadrature(g, (0, 1, 2, 3), 0, 3, [0.5, 0.7, 0.8, 0.4])
    assert density_module._cached_phases.cache_info().currsize == 2
    for grid, r in ((32, 3), (32, 4)):
        e, ec = density_module._cached_phases(grid, r)
        assert e.shape == (grid ** (r - 1), r)
        assert np.array_equal(ec, e.conj())
        for arr in (e, ec):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0


def test_oracle_triangle_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        tridiagonal = bool(rng.integers(0, 2))
        n = int(rng.integers(2, 5 if tridiagonal else 4))
        g = random_conservative(rng, n, symmetric=False, tridiagonal=tridiagonal)
        l = random_point(rng, n, rng.uniform(0.4, 1.2))
        a, b = rng.integers(0, n, 2)
        R = tuple(range(n))
        v1 = density_certified(g, R, a, b, l, tol=1e-12).value
        v2 = density_quadrature(g, R, a, b, l)
        scale = max(abs(v1), 1e-12)
        assert abs(v1 - v2) / scale < 1e-8
        if tridiagonal:
            v3 = density_tridiagonal(g, R, a, b, l)
            assert abs(v1 - v3) / scale < 1e-8


# ---------------------------------------------------------------------------
# tridiagonal route
# ---------------------------------------------------------------------------

def test_tridiagonal_requires_interval_and_band():
    g = srw_generator(0, 4)
    with pytest.raises(NotIntervalError):
        density_tridiagonal(g, (0, 2), 0, 2, [0.5, 0.5])
    dense = validate_generator(
        [[0, 1, 0.3], [1, 0, 1], [0.3, 1, 0]], (0, 1, 2))
    with pytest.raises(NotTridiagonalError):
        density_tridiagonal(dense, (0, 1, 2), 0, 2, [0.5, 0.4, 0.1])
    # a > b: the path edges take the leftward rate
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        g = random_conservative(rng, n, tridiagonal=True)
        b, a = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        l = random_point(rng, n, rng.uniform(0.5, 3.0))
        R = tuple(range(n))
        cert = density_certified(g, R, a, b, l, tol=1e-13)
        assert density_tridiagonal(g, R, a, b, l) == pytest.approx(cert.value, rel=1e-12)


def test_tridiagonal_matches_series_on_interior_interval():
    g = srw_generator(-3, 6)
    R = (0, 1, 2)
    l = [0.3, 0.4, 0.3]
    v1 = density_certified(g, R, 0, 2, l, tol=1e-12).value
    v2 = density_tridiagonal(g, R, 0, 2, l)
    # hand value: e^{-2T} I0(2 sqrt(l0 l1)) I0(2 sqrt(l1 l2))
    hand = math.exp(-2.0) * sp.iv(0, 2 * math.sqrt(0.12)) * sp.iv(0, 2 * math.sqrt(0.12))
    assert v1 == pytest.approx(hand, rel=1e-12)
    assert v2 == pytest.approx(hand, rel=1e-12)


def test_boundary_vanishing_at_interval_endpoint():
    g = srw_generator(0, 2)
    V = (0, 1, 2)
    values = []
    for lc in (1e-2, 1e-3, 1e-4):
        values.append(density_tridiagonal(g, V, 0, 0, [lc, 0.5, 0.5]))
    assert values[0] > values[1] > values[2] > 0.0
    # the decay is linear in l_c near the boundary
    assert values[2] < 0.05 * values[0]


# ---------------------------------------------------------------------------
# tree route and routing
# ---------------------------------------------------------------------------

# the undirected supports the tree route is checked on, as pairs of positions
TREES = {
    "path4": [(0, 1), (1, 2), (2, 3)],
    "path6": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    "star-K13": [(0, 1), (0, 2), (0, 3)],
    "star-K14": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "branching5": [(0, 1), (1, 2), (1, 3), (3, 4)],
    "branching6": [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)],
    "spider6": [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)],
}


def _tree_chain(rng, tree, one_way):
    """Random rates on ``tree`` with its nodes relabelled at random, and one
    state killed into a state outside the range 0..n-1.  With ``one_way``,
    one edge keeps a single direction, returned as (from, to); else None."""
    n = max(max(e) for e in tree) + 1
    perm = rng.permutation(n)
    A = np.zeros((n + 1, n + 1))
    for x, y in tree:
        A[perm[x], perm[y]], A[perm[y], perm[x]] = rng.uniform(0.3, 1.3, 2)
    kept = None
    if one_way:
        x, y = tree[rng.integers(len(tree))]
        A[perm[y], perm[x]] = 0.0
        kept = (int(perm[x]), int(perm[y]))
    A[rng.integers(n), n] = rng.uniform(0.3, 1.3)
    return validate_generator(A), tuple(range(n)), kept


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_route_matches_the_series(name):
    rng = np.random.default_rng(2900 + sorted(TREES).index(name))
    for one_way in (False, True):
        gen, R, kept = _tree_chain(rng, TREES[name], one_way)
        n = len(R)
        pairs = [(0, n - 1), (n - 1, 0), (1, 1), (2, 0)]
        if kept:
            # across the one-way edge: along its direction, and against it
            pairs += [kept, kept[::-1]]
        values = []
        for a, b in pairs:
            l = rng.uniform(0.1, 0.4, n) * rng.uniform(0.8, 1.5)
            value = density_tree(gen, R, a, b, l)
            series = density_certified(gen, R, a, b, l, tol=1e-13).value
            if value == 0.0:
                # a one-way edge off the path or against it: the exact
                # density is 0, and the series rounds to it
                assert one_way and abs(series) < 1e-15
            else:
                assert abs(value - series) <= 1e-10 * abs(series)
            values.append(value)
        if kept:
            assert values[-2] > 0.0 and values[-1] == 0.0


def test_tree_route_is_the_tridiagonal_product_on_intervals():
    rng = np.random.default_rng(2910)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        gen = _pinned_chain(rng, "interval", n) if n > 1 else srw_generator(0, 2)
        R = tuple(range(n))
        l = random_point(rng, n, rng.uniform(0.5, 3.0))
        for a, b in ((0, n - 1), (n - 1, 0), (n // 2, n // 2)):
            tri = density_tridiagonal(gen, R, a, b, l)
            assert density_tree(gen, R, a, b, l).hex() == tri.hex()
            assert density(gen, R, a, b, l).hex() == tri.hex()


def test_tridiagonal_keeps_an_interval_that_is_not_connected():
    # no rate across the middle edge: the support is two pieces, not a tree,
    # and no path covers R
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = A[2, 3] = A[3, 2] = 1.0
    gen, R, l = validate_generator(A), (0, 1, 2, 3), [0.3, 0.2, 0.4, 0.1]
    assert density_tridiagonal(gen, R, 0, 3, l) == 0.0
    assert density_tridiagonal(gen, R, 1, 1, l) == 0.0
    with pytest.raises(NotTreeError, match="not connected"):
        density_tree(gen, R, 0, 3, l)
    assert density(gen, R, 0, 3, l) == density_certified(gen, R, 0, 3, l).value


@pytest.mark.parametrize("route", [density_tree, density])
def test_tree_route_at_large_local_times(route):
    g = validate_generator([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = route(g, (0, 1), 0, 1, [200.0, 800.0])
    assert value == pytest.approx(math.exp(-200.0) * sp.ive(0, 800.0), rel=1e-12, abs=0)


def _union_find_components(n, pairs):
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[root(x)] = root(y)
    return len({root(x) for x in range(n)})


def test_support_structure_against_union_find():
    # random directed supports of 1 to 8 states, many of them disconnected
    rng = np.random.default_rng(2921)
    seen_disconnected = seen_tree = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        B = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.5))
        np.fill_diagonal(B, 0.0)
        edges, cyclomatic, tree = _undirected_support(B)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if B[x, y] or B[y, x]]
        components = _union_find_components(n, pairs)
        assert edges == tuple(pairs)
        assert cyclomatic == len(pairs) - n + components
        assert tree == (components == 1 and cyclomatic == 0)
        seen_disconnected += components > 1
        seen_tree += tree
    assert seen_disconnected > 50 and seen_tree > 20
    # one state is a tree with no edges
    assert _undirected_support(np.zeros((1, 1))) == ((), 0, True)
    assert _undirected_support(np.zeros((3, 3))) == ((), 0, False)


def test_series_support_is_the_row_order_of_the_off_diagonal():
    rng = np.random.default_rng(2922)
    for n in range(1, 7):
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.5)   # diagonal may be nonzero
        xs, ys = _series_support(M)
        loop = [(x, y) for x in range(n) for y in range(n) if x != y and M[x, y] != 0.0]
        assert list(zip(xs.tolist(), ys.tolist())) == loop


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0, 1e-13],
                         ids=["nan", "inf", "negative", "zero", "below-minimum"])
def test_single_point_check_matches_the_batch_check(bad):
    point = np.array([0.5, bad, 0.7, 1e-14])
    with pytest.raises(DomainError) as single:
        _check_local_times(point)
    with pytest.raises(DomainError) as batch:
        _check_local_times(point[None, :])
    assert type(single.value) is type(batch.value) is DomainError
    assert str(single.value) == str(batch.value)
    assert str(single.value).endswith(f"got {bad:.3e}")
    # the smallest allowed local time passes both
    ok = np.array([0.5, density_module.MIN_LOCAL_TIME])
    _check_local_times(ok)
    _check_local_times(ok[None, :])


def test_whole_state_block_key_is_the_gathered_block():
    rng = np.random.default_rng(2923)
    gen = random_conservative(rng, 4)
    block, r = _rate_block(gen, gen.states)
    assert (block, r) == (gen.submatrix(gen.states).tobytes(), 4)
    # a Fortran-ordered rate matrix gives the same C-ordered bytes
    fortran = Generator(states=gen.states, rates=np.asfortranarray(gen.rates))
    assert _rate_block(fortran, fortran.states) == (block, r)
    # a reordered or partial range is gathered
    assert _rate_block(gen, (3, 2, 1, 0))[0] == gen.submatrix((3, 2, 1, 0)).tobytes()
    assert _rate_block(gen, (0, 1))[0] == gen.submatrix((0, 1)).tobytes()
    # an in-place edit changes the key, so the caches miss
    before = range_rates(gen, gen.states)
    gen.rates[0, 1] += 0.25
    gen.rates[0, 0] -= 0.25
    after = range_rates(gen, gen.states)
    assert after is not before
    assert np.array_equal(after.A, gen.rates) and not np.array_equal(before.A, gen.rates)


def test_range_structure():
    def structure(rates, R=None):
        gen = validate_generator(rates)
        rr = range_rates(gen, R if R is not None else gen.states)
        return rr.edges, rr.cyclomatic, rr.tree

    K4 = np.ones((4, 4)) - np.eye(4)
    assert structure(K4) == (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 3, False)
    cycle = np.roll(np.eye(4), 1, axis=1)       # one-way 4-cycle
    assert structure(cycle) == (((0, 1), (0, 3), (1, 2), (2, 3)), 1, False)
    star = np.zeros((4, 4))
    star[1:, 0] = 1.0                          # one-way edges into 0
    assert structure(star) == (((0, 1), (0, 2), (0, 3)), 0, True)
    assert structure(star, (1, 2, 3)) == ((), 0, False)
    assert structure(star, (2,)) == ((), 0, True)
    # against scipy on random supports of 1 to 9 states: weak components for
    # the structure, strong ones for the forward and backward search from
    # state 0 (rate_general's test), and the breadth-first order from every
    # state for the states each search reaches
    rng = np.random.default_rng(2919)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        B = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.6))
        np.fill_diagonal(B, 0.0)
        edges, cyclomatic, tree = _undirected_support(B)
        weak = connected_components(B, directed=True, connection="weak")[0]
        assert cyclomatic == len(edges) - n + weak
        assert tree == (weak == 1 and cyclomatic == 0)
        strong = connected_components(B, directed=True, connection="strong")[0]
        assert (None not in _reach(B > 0, [0]) + _reach(B.T > 0, [0])) == (strong == 1)
        for s0 in range(n):
            order = breadth_first_order(csr_matrix(B), s0, directed=True,
                                        return_predecessors=False)
            reached = [x for x, pred in enumerate(_reach(B > 0, [s0])) if pred is not None]
            assert reached == sorted(order.tolist())


def test_density_routes_by_structure(monkeypatch):
    rng = np.random.default_rng(2920)
    chains = [_pinned_chain(rng, "support", 3), _pinned_chain(rng, "support", 5),
              random_conservative(rng, 4)]
    points = [random_point(rng, len(gen.states), 1.5) for gen in chains]
    certified = [[density_certified(gen, gen.states, 0, 1, l, tol=tol)
                  for tol in (1e-10, 1e-12)] for gen, l in zip(chains, points)]
    # neither route builds any part of the flow series from here on
    monkeypatch.setattr(density_module, "_prepared_range", _refuse)
    monkeypatch.setattr(density_module, "flow_table", _refuse)
    # not a tree: the visit series, with tol applied, within the summed
    # bounds of the flow series
    for gen, l, evs in zip(chains, points, certified):
        R = gen.states
        assert not range_rates(gen, R).tree
        for tol, ev in zip((1e-10, 1e-12), evs):
            values, bounds, orders, route = density_rows(gen, R, 0, 1, l[None, :], tol)
            assert route == "visits" and bounds[0] <= tol
            assert density(gen, R, 0, 1, l, tol=tol).hex() == values[0].hex()
            assert abs(values[0] - ev.value) <= bounds[0] + ev.error_bound
    # a tree: the product, whatever tol, even where the series cannot
    # converge
    gen = validate_generator([[0.0, 60.0], [60.0, 0.0]], (1, 2))
    value = density(gen, (1, 2), 1, 2, [1.0, 1.0], tol=1e-13)
    assert value.hex() == density_tree(gen, (1, 2), 1, 2, [1.0, 1.0]).hex()
    assert value == pytest.approx(math.exp(-120.0) * sp.iv(0, 120.0) * 60.0, rel=1e-12)


def _refuse(*args, **kwargs):
    raise AssertionError("the routed rows built a part of the flow series")


def test_large_range_structure_is_one_linear_search():
    # a 1,000-state path: its structure, eta and the strong-connectivity test
    # of rate_general are each one search over successor lists, not a
    # closure of a 1,000 x 1,000 boolean matrix (4.2 s for eta alone)
    g = srw_generator(0, 999)
    for check in (lambda: eta(g, g.states) == 2.0,
                  lambda: range_rates(g, g.states).tree,
                  lambda: rate_general(g, np.full(1000, 1e-3)).final_gradient_norm <= 1e-10):
        density_module._range_rates.cache_clear()
        start = time.perf_counter()
        assert check()
        assert time.perf_counter() - start < 2.0


def test_routed_rows_are_every_tree_route_bit_for_bit():
    # 4,900 random rows on the 5-state walk and on the walk with the edge
    # 3 -> 4 one-way: the routed rows are the rows of density(),
    # density_tree and density_tridiagonal, bit for bit, with edges off the
    # path (1, 3), a > b, a == b and the whole path (0, 4), where the one-way
    # edge is on the path; the series agrees within its bounds (on three of
    # the pairs, to keep the test short)
    rng = np.random.default_rng(3500)
    walk = srw_generator(0, 4)
    A = walk.rates.copy()
    A[4, 3] = A[4, 4] = 0.0
    one_way = validate_generator(A)
    L = rng.uniform(0.02, 1.5, (4900, 5))
    for gen, series_pairs in ((walk, {(1, 3), (2, 2)}), (one_way, {(0, 4)})):
        R = gen.states
        for a, b in ((1, 3), (3, 1), (2, 2), (0, 4)):
            values, bounds, orders, route = density_rows(gen, R, a, b, L)
            assert route == "tree" and not bounds.any() and not orders.any()
            for k, l in enumerate(L):
                want = values[k].hex()
                assert density(gen, R, a, b, l).hex() == want
                assert density_tree(gen, R, a, b, l).hex() == want
                assert density_tridiagonal(gen, R, a, b, l).hex() == want
                # the scalar loop over the edges, which sums the exponent in
                # another order: within a few ulp of an exponent below 8
                assert values[k] == pytest.approx(_tree_loop(gen, a, b, l), rel=1e-14, abs=0)
            if (a, b) in series_pairs:
                series, series_bounds, _ = density_batch(gen, R, a, b, L)
                # the series' bound covers its truncation, not its rounding,
                # which reaches 4.4e-11 of the value at a == b = 2 with
                # l_2 = 0.025, where its derivative subsets cancel (see
                # test_certified_bound_covers_rounding_where_subsets_cancel)
                assert np.all(np.abs(series - values) <= series_bounds + 1e-10 * values)
    # the one-way edge off the path has a zero rate product, so the density
    # is exactly 0 there
    assert not density_rows(one_way, one_way.states, 1, 3, L)[0].any()


def _tree_rows_reference(rates, a, b, L):
    """The tree product as laid out before its one-take layout: each end by
    its own take, the kernels from the public scaled_edge_kernel, and the
    exponent's terms concatenated, then added left to right."""
    f = density_module._tree_factors(rates, a, b)
    edges = f.c.shape[1]
    order = f.order if isinstance(f.order, np.ndarray) else np.zeros((1, edges))
    z, kernels = scaled_edge_kernel(order, f.c, L.take(f.ends[:edges], axis=1),
                                    L.take(f.ends[edges:], axis=1))
    exponent = np.add.accumulate(np.concatenate([L * f.diag, z], axis=1), axis=1)[:, -1]
    return np.multiply.reduce(kernels * f.rate, axis=1) * np.exp(exponent)


def test_tree_row_is_its_row_in_a_batch():
    # random trees of 2 to 7 states, some edges one-way: one row, alone,
    # equals its row in a 100-row batch and the previous layout bit for bit,
    # with edges off the a-b path, a == b and a > b
    rng = np.random.default_rng(3504)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(2, 8))
        A = np.zeros((n, n))
        for y in range(1, n):
            x = int(rng.integers(0, y))
            A[x, y], A[y, x] = rng.uniform(0.3, 2.0, 2)
            if rng.random() < 0.25:
                A[(x, y) if rng.random() < 0.5 else (y, x)] = 0.0
        gen = validate_generator(A)
        rates = range_rates(gen, gen.states)
        assert rates.tree
        L = rng.uniform(0.02, 3.0, (100, n))
        for a, b in ((0, n - 1), (n - 1, 0), (n // 2, n // 2),
                     tuple(int(x) for x in rng.integers(0, n, 2))):
            f = density_module._tree_factors(rates, a, b)
            seen.add(("off-path", isinstance(f.order, np.ndarray)))
            seen.add(("one-way", bool((f.c == 0.0).any())))
            seen.add(("a vs b", (a > b) - (a < b)))
            rows = density_module._tree_rows(rates, a, b, L)
            assert [v.hex() for v in rows] == [
                v.hex() for v in _tree_rows_reference(rates, a, b, L)]
            for k in range(len(L)):
                assert density_module._tree_rows(rates, a, b, L[k:k + 1])[0].hex() == rows[k].hex()
    assert seen == {("off-path", True), ("off-path", False), ("one-way", True),
                    ("one-way", False), ("a vs b", -1), ("a vs b", 0), ("a vs b", 1)}


def _tree_loop(gen, a, b, l):
    """The tree product on the path graph of gen.states, edge by edge on
    Python floats, the scaled kernels from bessel.scaled_edge_kernel."""
    A, n = gen.rates, len(l)
    lo, hi = min(a, b), max(a, b)
    factor, exponent = 1.0, sum(A[x, x] * l[x] for x in range(n))
    for x in range(n - 1):
        c = A[x, x + 1] * A[x + 1, x]
        if lo <= x < hi:
            z, scaled = scaled_edge_kernel(0, c, l[x], l[x + 1])
            scaled *= A[x, x + 1] if a < b else A[x + 1, x]
        else:
            far, near = (x, x + 1) if x < lo else (x + 1, x)
            z, scaled = scaled_edge_kernel(1, c, l[far], l[near])
        factor *= scaled
        exponent += z
    return factor * math.exp(exponent)


def test_routed_rows_take_the_series_off_trees():
    # off trees the routed rows are the visit-count series: each row within
    # the summed bounds of the flow series' batch, at its own visit order
    rng = np.random.default_rng(3501)
    gen = _pinned_chain(rng, "support", 4)
    R, L = gen.states, rng.uniform(0.05, 1.0, (50, 4))
    values, bounds, orders, route = density_rows(gen, R, 0, 2, L, 1e-11)
    assert route == "visits"
    want, want_bounds, _ = density_batch(gen, R, 0, 2, L, 1e-11)
    assert np.all(bounds <= 1e-11) and np.all(orders >= 4)
    assert np.all(np.abs(values - want) <= bounds + want_bounds)


def test_subset_layout_refuses_a_large_range_before_allocating():
    # a 30-state walk has 2^28 derivative subsets: the series refuses it at
    # once (it allocated until it ran out of memory), and density() answers
    # the same request through the tree product
    g = srw_generator(0, 29)
    l = np.full(30, 2 / 30)
    start = time.perf_counter()
    with pytest.raises(ExplosionGuardError, match="range of 30 states has 2\\^28 derivative "
                                                  "subsets, above the series' cap of 2\\^18"):
        density_certified(g, g.states, 0, 29, l)
    assert time.perf_counter() - start < 1.0
    assert density(g, g.states, 0, 29, l).hex() == density_tree(g, g.states, 0, 29, l).hex()


def test_subset_guard_counts_the_states_other_than_a_and_b(monkeypatch):
    monkeypatch.setattr(density_module, "_MAX_FREE_STATES", 3)
    _subset_layout.cache_clear()
    try:
        assert len(_subset_layout(5, 0, 4)[0]) == 8
        for r, a, b in ((6, 0, 5), (5, 2, 2)):
            with pytest.raises(ExplosionGuardError, match=f"range of {r} states has 2\\^4 "):
                _subset_layout(r, a, b)
    finally:
        _subset_layout.cache_clear()


def test_subset_stack_in_chunks_keeps_the_weights_bits(monkeypatch):
    # a stack of at most two 5 x 5 matrices at a time gives every weight of
    # the one-stack evaluation, bit for bit
    monkeypatch.setattr(density_module, "_STACK_ENTRIES", 50)
    rng = np.random.default_rng(3502)
    B = rng.uniform(0.5, 1.5, (5, 5))
    np.fill_diagonal(B, 0.0)
    _subset_layout.cache_clear()
    try:
        assert [len(stack) for stack in _subset_layout(5, 0, 4)[1]] == [2, 2, 2, 2]
        for a in range(5):
            for b in range(5):
                got = _cofactor_subset_weights(B, a, b)
                expected = _stacked_weights_reference(B, a, b)
                assert list(got) == list(expected)
                assert [w.hex() for w in got.values()] == [w.hex() for w in expected.values()]
    finally:
        _subset_layout.cache_clear()


def test_subset_layouts_above_16_states_are_not_kept():
    # a layout of 20 states holds 2^18 subsets in about 105 MB, so one of more
    # than 16 states is built per call; 16 and fewer are kept and shared
    rng = np.random.default_rng(3503)
    for r in (5, 16):
        B = rng.uniform(0.5, 1.5, (r, r)) * (rng.random((r, r)) < 0.3)
        np.fill_diagonal(B, 0.0)
        _cofactor_subset_weights(B, 0, r - 1)
        before = _subset_layout.cache_info()
        _cofactor_subset_weights(B, 0, r - 1)
        after = _subset_layout.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)
    B = srw_generator(0, 16).off_diagonal()
    B[5, 9] = B[9, 5] = 0.75
    before = _subset_layout.cache_info()
    first = _cofactor_subset_weights(B, 0, 16)
    again = _cofactor_subset_weights(B, 0, 16)
    after = _subset_layout.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize)
    assert len(first) > 1
    assert list(first) == list(again)
    assert [w.hex() for w in first.values()] == [w.hex() for w in again.values()]


def test_tree_route_rejects_a_support_with_a_cycle():
    gen = random_conservative(np.random.default_rng(2930), 3)
    with pytest.raises(NotTreeError, match="cyclomatic number 1"):
        density_tree(gen, gen.states, 0, 2, [0.3, 0.3, 0.4])


# ---------------------------------------------------------------------------
# measure conventions and global identities
# ---------------------------------------------------------------------------

def test_surface_measure_choice_of_eliminated_coordinate():
    # integrating the density over one region of the simplex must not depend
    # on which coordinate carries the unit Jacobian
    g = srw_generator(0, 2)
    T = 1.0
    lo0, hi0 = 0.20, 0.40   # bounds on l0
    lo1, hi1 = 0.25, 0.45   # bounds on l1

    def rho(l0, l1, l2):
        return density_batch(g, (0, 1, 2), 0, 2, [[l0, l1, l2]], tol=1e-11)[0][0]

    with_l2_eliminated, _ = integrate.dblquad(
        lambda y, x: rho(x, y, T - x - y),
        lo0, hi0, lambda x: lo1, lambda x: hi1, epsabs=1e-11, epsrel=1e-10)
    # same region in (l1, l2) coordinates: l0 = T - l1 - l2
    with_l0_eliminated, _ = integrate.dblquad(
        lambda z, y: rho(T - y - z, y, z),
        lo1, hi1, lambda y: T - hi0 - y, lambda y: T - lo0 - y,
        epsabs=1e-11, epsrel=1e-10)
    assert with_l2_eliminated == pytest.approx(with_l0_eliminated, rel=1e-8)


def test_two_state_partition_of_unity_quick():
    # e^{-T} + integral(rho_12) + integral(rho_11) = 1 at T = 1
    T = 1.0
    nodes, weights = np.polynomial.legendre.leggauss(80)
    u = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    l2 = T * np.sin(u) ** 2
    jac = 2.0 * T * np.sin(u) * np.cos(u)
    rho12 = np.array([
        density(TWO_STATE, (1, 2), 1, 2, [T - x, x], tol=1e-12) for x in l2])
    rho11 = np.array([
        density(TWO_STATE, (1, 2), 1, 1, [T - x, x], tol=1e-12) for x in l2])
    q12 = float((w * jac * rho12).sum())
    q11 = float((w * jac * rho11).sum())
    assert q12 == pytest.approx(math.exp(-T) * math.sinh(T), abs=1e-10)
    assert q11 == pytest.approx(math.exp(-T) * (math.cosh(T) - 1.0), abs=1e-10)
    assert math.exp(-T) + q12 + q11 == pytest.approx(1.0, abs=1e-10)


def test_nonnegativity_sweep():
    # positivity is not obvious from the cofactor formula; it is checked, not
    # assumed
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        g = random_conservative(rng, max(n, 2))
        R = tuple(range(n))
        l = random_point(rng, n, rng.uniform(0.3, 2.0))
        a, b = rng.integers(0, n, 2)
        res = density_certified(g, R, a, b, l, tol=1e-9)
        assert res.value >= -(res.error_bound + 1e-12)


POINT_ROUTES = (density, density_certified, density_quadrature, density_tree,
                density_tridiagonal, density_upper_bound)


def test_point_routes_read_dict_and_sequence_alike():
    g, R = srw_generator(-1, 3), (2, 0, 1)
    l = [0.7, 0.4, 0.6]
    for route in POINT_ROUTES:
        assert route(g, R, 0, 2, dict(zip(R, l))) == route(g, R, 0, 2, l)
        with pytest.raises(DomainError):
            route(g, R, 0, 2, [0.7, 0.0, 0.6])
        with pytest.raises(ValueError, match="does not match"):
            route(g, R, 0, 2, [0.7, 0.4])


def test_every_route_rejects_a_repeated_label():
    g, R, l = srw_generator(0, 3), (0, 1, 1), [0.5, 0.7, 0.8]
    for route in POINT_ROUTES:
        with pytest.raises(ValueError, match="repeats the label 1"):
            route(g, R, 0, 1, l)
    with pytest.raises(ValueError, match="repeats the label 1"):
        density_batch(g, R, 0, 1, [l])
    with pytest.raises(ValueError, match="repeats the label 1"):
        rk_fixed_time_check(R, 0, 1, l)


@pytest.mark.parametrize("R, a, b, l, message", [
    ((0, 1), 0, 5, [0.5, 0.7], "site 5 is not in the range"),
    ((1, 2), 0, 2, [0.5, 0.7], "site 0 is not in the range"),
    ((1, 2), 1, 3, {1: 0.5, 2: 0.7}, "site 3 is not in the range"),
    ((1, 2), 1, 2, {1: 0.5}, "miss the state 2 "),
], ids=["b-outside", "a-outside", "b-outside-dict-l", "dict-l-misses-a-state"])
def test_every_route_names_a_label_outside_the_request(R, a, b, l, message):
    g = srw_generator(0, 3)
    for route in POINT_ROUTES:
        with pytest.raises(ValueError, match=message):
            route(g, R, a, b, l)
    with pytest.raises(ValueError, match=message):
        rk_fixed_time_check(R, a, b, l, generator=g)
    if not isinstance(l, dict):
        with pytest.raises(ValueError, match=message):
            density_batch(g, R, a, b, [l])


def test_a_request_wrong_in_two_ways_names_the_same_first_error():
    # a outside R and l of the wrong length: every entry, and the batch,
    # checks R, a and b before it reads l, and density() does so on every
    # support
    complete = validate_generator(np.ones((3, 3)) - np.eye(3))
    for g in (srw_generator(0, 2), complete):
        assert range_rates(g, (0, 1, 2)).tree == (g is not complete)
        for route in POINT_ROUTES:
            with pytest.raises(ValueError) as error:
                route(g, (0, 1, 2), 5, 2, [0.5, 0.7])
            assert type(error.value) is ValueError
            assert str(error.value) == "site 5 is not in the range (0, 1, 2)"
        with pytest.raises(ValueError, match="site 5 is not in the range"):
            density_batch(g, (0, 1, 2), 5, 2, [[0.5, 0.7]])


def test_density_reads_the_rate_block_once(monkeypatch):
    calls = []
    rate_block = density_module._rate_block
    monkeypatch.setattr(density_module, "_rate_block",
                        lambda gen, R: calls.append(R) or rate_block(gen, R))
    complete = validate_generator(np.ones((3, 3)) - np.eye(3))
    for g in (srw_generator(0, 2), complete):
        calls.clear()
        density(g, (0, 1, 2), 0, 2, [0.5, 0.7, 0.8])
        assert calls == [(0, 1, 2)]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_routes_reject_non_finite_local_times(bad):
    g, R, l = srw_generator(0, 2), (0, 1, 2), [bad, 0.5, 0.5]
    for route in POINT_ROUTES:
        with pytest.raises(DomainError, match="finite"):
            route(g, R, 0, 2, l)
    with pytest.raises(DomainError, match="finite"):
        density_batch(g, R, 0, 2, [[0.5, 0.5, 0.5], l])


def test_certified_request_checks_its_local_times_once(monkeypatch):
    calls = []
    check = density_module._check_local_times
    monkeypatch.setattr(density_module, "_check_local_times",
                        lambda L: calls.append(L) or check(L))
    g, R, l = srw_generator(0, 2), (0, 1, 2), [0.5, 0.7, 0.8]
    density_certified(g, R, 0, 2, l)
    assert len(calls) == 1
    density_batch(g, R, 0, 2, [l, l])
    assert len(calls) == 2


def test_every_route_raises_on_a_negative_rate():
    # a hand-built Generator skips validate_generator, and an in-place edit of
    # gen.rates skips it too; the series would take the log of the rate
    R, l = (0, 1, 2), [0.5, 0.7, 0.8]
    hand = Generator(states=R, rates=[[-0.5, -0.5, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    edited = srw_generator(0, 2)
    density_certified(edited, R, 0, 2, l)
    edited.rates[1, 0] = -0.5
    for gen in (hand, edited):
        for route in POINT_ROUTES:
            with pytest.raises(NegativeRateError, match="negative rate -0.5"):
                route(gen, R, 0, 2, l)
        with pytest.raises(NegativeRateError):
            density_batch(gen, R, 0, 2, [l])
        with pytest.raises(NegativeRateError):
            eta(gen, R)


def test_every_route_raises_on_a_non_finite_rate():
    # the nan used to reach the diagonal's determinant ("invalid value
    # encountered in det") and end as NonConvergedTruncationError
    R, l = (0, 1, 2), [0.5, 0.7, 0.8]
    for bad in (math.nan, math.inf):
        gen = Generator(states=R, rates=[[-1.5, bad, 0.5], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        for route in POINT_ROUTES:
            with pytest.raises(ValueError, match="from position 0 to position 1 of the range"):
                route(gen, R, 0, 2, l)
        with pytest.raises(ValueError, match="not finite"):
            density_batch(gen, R, 0, 2, [l])
        with pytest.raises(ValueError, match="not finite"):
            eta(gen, R)


# ---------------------------------------------------------------------------
# prepared ranges
# ---------------------------------------------------------------------------

def _pinned_chain(rng, kind, n):
    """A random chain on n states: nearest-neighbor rates on an interval
    (one-way at the right end for odd n), or a one-way Hamiltonian cycle plus
    one chord."""
    A = np.zeros((n, n))
    if kind == "interval":
        for i in range(n - 1):
            A[i, i + 1], A[i + 1, i] = rng.uniform(0.5, 1.5, 2)
        if n % 2:
            A[n - 1, n - 2] = 0.0   # one-way last edge
    else:
        order = rng.permutation(n)
        for k in range(n):
            A[order[k], order[(k + 1) % n]] = rng.uniform(0.5, 1.5)
        free = np.argwhere((A == 0) & ~np.eye(n, dtype=bool))
        x, y = free[rng.integers(len(free))]
        A[x, y] = rng.uniform(0.5, 1.5)
    return validate_generator(A)


def _pinned_inputs():
    """The seeded chains with |R| = 3..6 of the pinned outputs, each with its
    kind, three rows of local times and, for one chain, a conjugation
    vector (else None), drawn from one stream in a fixed order."""
    rng = np.random.default_rng(2024)
    for n in (3, 4, 5, 6):
        for kind in ("interval", "support"):
            gen = _pinned_chain(rng, kind, n)
            T = 1.0 + rng.uniform(0.0, 1.0)
            L = T * np.maximum(rng.dirichlet(np.full(n, 2.0), 3), 0.02)
            r = rng.uniform(0.7, 1.4, n) if n == 4 and kind == "support" else None
            yield kind, gen, L, r


def _pinned_outputs():
    """Every route on the pinned inputs, a < b and a == b, as float.hex
    strings; one batch is conjugated."""
    out = []
    for kind, gen, L, r in _pinned_inputs():
        R, n = gen.states, len(gen.states)
        for a, b in ((0, n - 1), (1, 1)):
            for l in L:
                ev = density_certified(gen, R, a, b, l)
                out.append((ev.value.hex(), ev.error_bound.hex(), ev.order))
                if kind == "interval":
                    out.append(density_tridiagonal(gen, R, a, b, l).hex())
            values, bounds, orders = density_batch(gen, R, a, b, L)
            out.extend((v.hex(), e.hex(), int(o)) for v, e, o in zip(values, bounds, orders))
            if n <= 4:
                out.append(density_quadrature(gen, R, a, b, L[0]).hex())
            if kind == "support" or n % 2 == 0:    # irreducible on R
                out.append(density_upper_bound(gen, R, a, b, L[0]).hex())
        if r is not None:
            values, bounds, orders = density_batch(gen, R, 0, 2, L, conjugation=r)
            out.extend((v.hex(), e.hex(), int(o)) for v, e, o in zip(values, bounds, orders))
    return out


PINNED_ROUTES = Path(__file__).with_name("pinned_routes.json")


def _moved_report(moved) -> str:
    """The entries that moved, as (index, pinned, now), and the largest
    relative change of a float among them."""
    def floats(entry):
        return [float.fromhex(x) for x in ([entry] if isinstance(entry, str) else entry)
                if isinstance(x, str)]

    largest = max((abs(now - was) / abs(was) if was else math.inf
                   for _, pinned, got in moved
                   for was, now in zip(floats(pinned), floats(got)) if was != now),
                  default=0.0)
    lines = [f"{k}: pinned {pinned!r}, now {got!r}" for k, pinned, got in moved]
    return (f"{len(moved)} pinned route outputs moved, largest relative change "
            f"{largest:.3e}:\n" + "\n".join(lines))


def test_routes_match_pinned_digest():
    # the float.hex outputs of every route, entry by entry against the
    # committed file: a cache or a refactor must not move a single bit; a
    # change of arithmetic re-pins the file and lists the entries it moved in
    # CHANGES.md
    pinned = [tuple(e) if isinstance(e, list) else e
              for e in json.loads(PINNED_ROUTES.read_text())]
    out = _pinned_outputs()
    assert len(out) == len(pinned) == 143
    moved = [(k, want, got) for k, (want, got) in enumerate(zip(pinned, out)) if want != got]
    assert not moved, _moved_report(moved)


def test_density_rows_are_the_point_routes_row_by_row():
    # on the pinned inputs, each row alone is the row of density() bit for
    # bit, and of density_tree and density_tridiagonal where they apply; the
    # tree route's rows do not depend on the batch
    routes = set()
    for kind, gen, L, _ in _pinned_inputs():
        R, n = gen.states, len(gen.states)
        for a, b in ((0, n - 1), (1, 1), (n - 1, 0)):
            batch = density_rows(gen, R, a, b, L)
            routes.add(batch[3])
            assert batch[3] == ("tree" if range_rates(gen, R).tree else "visits")
            for k, l in enumerate(L):
                values, bounds, orders, route = density_rows(gen, R, a, b, l[None, :])
                assert route == batch[3] and values.shape == bounds.shape == orders.shape == (1,)
                assert values[0].hex() == density(gen, R, a, b, l).hex()
                assert values[0].hex() == batch[0][k].hex()
                assert (bounds[0], orders[0]) == (batch[1][k], batch[2][k])
                if route == "tree":
                    assert not bounds[0] and not orders[0]
                    assert values[0].hex() == density_tree(gen, R, a, b, l).hex()
                    assert values[0].hex() == density_tridiagonal(gen, R, a, b, l).hex()
                else:
                    ev = density_certified(gen, R, a, b, l)
                    assert abs(values[0] - ev.value) <= bounds[0] + ev.error_bound
    assert routes == {"tree", "visits"}


def test_density_rows_of_no_rows_check_the_request():
    g = srw_generator(0, 3)
    for R, a, b, route in (((0, 1, 2), 0, 2, "tree"), ((0, 1, 2, 3), 3, 3, "tree")):
        values, bounds, orders, got = density_rows(g, R, a, b, np.empty((0, len(R))))
        assert got == route and values.shape == bounds.shape == orders.shape == (0,)
    cycle = validate_generator([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert density_rows(cycle, (0, 1, 2), 0, 1, np.empty((0, 3)))[3] == "visits"
    for R, a, b, message in (((0, 1, 1), 0, 1, "repeats the label 1"),
                             ((0, 1), 0, 5, "site 5 is not in the range"),
                             ((1, 2), 0, 2, "site 0 is not in the range")):
        with pytest.raises(ValueError, match=message):
            density(g, R, a, b, [0.5] * len(R))
        with pytest.raises(ValueError, match=message):
            density_rows(g, R, a, b, np.empty((0, len(R))))
    with pytest.raises(ValueError, match="of shape \\(P, 3\\); got shape \\(3,\\)$"):
        density_rows(g, (0, 1, 2), 0, 2, [0.5, 0.5, 0.5])
    bad = validate_generator([[0.0, 1.0], [1.0, 0.0]])
    bad.rates[0, 1] = -1.0
    with pytest.raises(NegativeRateError):
        density_rows(bad, (0, 1), 0, 1, np.empty((0, 2)))


def test_moved_report_names_entries_and_largest_change():
    pinned = [(1.0.hex(), 2.0.hex(), 18), 4.0.hex()]
    now = [(1.0.hex(), 2.5.hex(), 18), (4.0 * (1 + 2 ** -52)).hex()]
    moved = [(k, p, q) for k, (p, q) in enumerate(zip(pinned, now)) if p != q]
    report = _moved_report(moved)
    assert report.startswith("2 pinned route outputs moved, largest relative change 2.500e-01")
    assert "0: pinned ('0x1.0000000000000p+0', '0x1.0000000000000p+1', 18)" in report
    assert "1: pinned '0x1.0000000000000p+2', now '0x1.0000000000001p+2'" in report


def test_repeated_request_is_identical_and_shares_the_range():
    rng = np.random.default_rng(1300)
    gen = _pinned_chain(rng, "support", 5)
    R, l = gen.states, random_point(rng, 5, 1.5)
    first = density_certified(gen, R, 0, 3, l)
    again = density_certified(gen, R, 0, 3, l)
    assert (again.value, again.error_bound, again.order) == (
        first.value, first.error_bound, first.order)
    series = density_module._prepared_range(range_rates(gen, R), 0, 3, None)
    assert series is density_module._prepared_range(range_rates(gen, R), 0, 3, None)
    assert series.rates is range_rates(gen, R)


def test_in_place_rate_edit_misses_the_cache():
    rng = np.random.default_rng(1301)
    gen = _pinned_chain(rng, "support", 4)
    R, l = gen.states, random_point(rng, 4, 1.5)

    def routes(g):
        ev = density_certified(g, R, 0, 2, l)
        return (ev.value, ev.error_bound, ev.order, density_quadrature(g, R, 0, 2, l),
                density_upper_bound(g, R, 0, 2, l), eta(g, R))

    before = routes(gen)
    gen.rates[0, 1] += 0.5
    gen.rates[0, 0] -= 0.5
    after = routes(gen)
    assert after != before
    assert after == routes(validate_generator(gen.rates.copy()))


def test_prepared_arrays_are_read_only():
    rng = np.random.default_rng(1302)
    gen = _pinned_chain(rng, "support", 4)
    R = gen.states
    density_certified(gen, R, 0, 2, random_point(rng, 4, 1.5))
    series = density_module._prepared_range(range_rates(gen, R), 0, 2, None)
    rates = series.rates
    arrays = [rates.A, rates.B, rates.diag, series.w]
    assert series._terms
    for terms in series._terms.values():
        arrays += [terms.log_coef, terms.degree, terms.factors]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_eta_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(1303)
    gen = _pinned_chain(rng, "interval", 4)
    R, l = gen.states, random_point(rng, 4, 1.5)
    rates = gen.rates.copy()
    value = density_certified(gen, R, 0, 3, l).value
    absB = np.abs(rates - np.diag(np.diag(rates)))
    assert eta(gen, R) == max(absB.sum(axis=1).max(), absB.sum(axis=0).max(), 1.0)
    assert np.array_equal(gen.rates, rates)
    assert np.array_equal(range_rates(gen, R).A, rates)
    assert density_certified(gen, R, 0, 3, l).value == value


# ---------------------------------------------------------------------------
# visit-count series
# ---------------------------------------------------------------------------

def _complete(n, rate=1.0):
    A = np.full((n, n), rate)
    np.fill_diagonal(A, 0.0)
    return validate_generator(A)


def _strongly_connected(rng, n, extra):
    """A random Hamiltonian cycle plus ``extra`` random chords, rates in
    [0.5, 1.5]; most chords are one-way edges."""
    A = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(n):
        A[order[k], order[(k + 1) % n]] = rng.uniform(0.5, 1.5)
    free = np.argwhere((A == 0) & ~np.eye(n, dtype=bool))
    for x, y in free[rng.choice(len(free), extra, replace=False)]:
        A[x, y] = rng.uniform(0.5, 1.5)
    return validate_generator(A)


def _reversible_not_symmetric():
    """Rates pi_x B_xy = pi_y B_yx with pi = (1, 2, 4, 3) on K4: reversible,
    and no rate pair is equal."""
    pi = np.array([1.0, 2.0, 4.0, 3.0])
    S = np.array([[0.0, 1.0, 0.6, 0.9], [1.0, 0.0, 1.4, 0.5],
                  [0.6, 1.4, 0.0, 1.1], [0.9, 0.5, 1.1, 0.0]])
    gen = validate_generator(S / pi[:, None])
    assert range_rates(gen, gen.states).reversible is not None
    assert not gen.is_symmetric()
    return gen


def _visit_inputs():
    """(id, generator, a, b, rows) of the visit-series families: fixed-seed
    random strongly connected supports with |R| = 3..5, complete graphs, a
    reversible chain that is not symmetric, a one-way cycle, a == b, and
    local times down to 1e-9."""
    rng = np.random.default_rng(4100)
    out = []
    for n in (3, 4, 5):
        gen = _strongly_connected(rng, n, n - 1)
        out.append((f"random-{n}", gen, 0, n - 1, rng.uniform(0.05, 1.2, (3, n))))
    for n in (3, 4):
        out.append((f"complete-{n}", _complete(n), 0, n - 1, rng.uniform(0.2, 0.6, (3, n))))
    out.append(("reversible", _reversible_not_symmetric(), 1, 3,
                rng.uniform(0.05, 0.35, (3, 4))))
    cycle = _strongly_connected(rng, 4, 0)
    out.append(("one-way-cycle", cycle, 2, 1, rng.uniform(0.1, 1.5, (3, 4))))
    out.append(("a-equals-b", _strongly_connected(rng, 4, 3), 2, 2,
                rng.uniform(0.1, 1.0, (3, 4))))
    tiny = rng.uniform(0.1, 1.0, (3, 3))
    tiny[:, 1] = (1e-9, 1e-7, 1e-5)
    out.append(("tiny-l", _complete(3, 2.0), 0, 2, tiny))
    return out


VISIT_INPUTS = _visit_inputs()
VISIT_IDS = [name for name, *_ in VISIT_INPUTS]
# the inputs with |R| <= 4, whose series stay small twenty layers on and
# whose 64-point grids take a fraction of a second
SMALL_VISIT_INPUTS = [case for case in VISIT_INPUTS if len(case[1].states) <= 4]
SMALL_VISIT_IDS = [name for name, *_ in SMALL_VISIT_INPUTS]


@pytest.mark.parametrize("name, gen, a, b, L", VISIT_INPUTS, ids=VISIT_IDS)
def test_visit_series_agrees_with_the_flow_series_within_both_bounds(name, gen, a, b, L):
    R = gen.states
    values, bounds, orders, route = density_rows(gen, R, a, b, L)
    assert route == "visits" and np.all(bounds <= 1e-10) and np.all(orders >= len(R))
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    for l, v, e in zip(L, values, bounds):
        try:
            ev = density_certified(gen, R, a, b, l)
        except (ExplosionGuardError, NonConvergedTruncationError):
            continue
        assert abs(v - ev.value) <= e + ev.error_bound


@pytest.mark.parametrize("name, gen, a, b, L", SMALL_VISIT_INPUTS, ids=SMALL_VISIT_IDS)
def test_visit_series_agrees_with_a_64_point_quadrature(name, gen, a, b, L):
    R = gen.states
    rates = range_rates(gen, R)
    values = density_rows(gen, R, a, b, L)[0]
    for l, v in zip(L, values):
        grid = density_module._quadrature_value(rates.A, rates.B, l, a, b, 64)
        assert abs(v - grid.real) <= 1e-9 * abs(grid.real)


@pytest.mark.parametrize("tol", [1e-4, 1e-10])
@pytest.mark.parametrize("name, gen, a, b, L", SMALL_VISIT_INPUTS, ids=SMALL_VISIT_IDS)
def test_visit_tail_covers_twenty_more_layers(name, gen, a, b, L, tol):
    # every term is nonnegative, so the value grows with the order, and by no
    # more than the certified tail of the order the row took
    R = gen.states
    rates = range_rates(gen, R)
    values, _, orders, _ = density_rows(gen, R, a, b, L, tol)
    series = density_module._visit_series(rates, a, b)
    log_scale, S, V = series.row_terms(L)
    tails = np.exp(density_module._visit_log_tail(log_scale, S, orders, len(R)))
    assert np.all(tails <= tol / 2)
    for k, order in enumerate(orders.tolist()):
        later = math.exp(series.log_values(log_scale[k:k + 1], V[k:k + 1], order + 20)[0])
        assert -1e-13 * values[k] <= later - values[k] <= tails[k] + 1e-13 * later


def test_visit_tail_is_the_minimum_over_q_of_the_chernoff_bound():
    # the closed-form q minimizes S/q + (N + 1 - r) log q - log(1 - q): no q
    # on a fine grid does better, and the bound holds at every grid point
    for S, N, r in ((0.3, 5, 3), (10.0, 47, 5), (120.0, 210, 3), (1e-12, 4, 4)):
        best = density_module._visit_log_tail(np.zeros(1), np.array([S]), np.array([N]), r)[0]
        q = np.linspace(1e-6, 1 - 1e-6, 200_001)
        grid = S / q + (N + 1 - r) * np.log(q) - np.log1p(-q)
        assert best <= grid.min() + 1e-9 * max(1.0, abs(best))


def test_visit_layers_are_the_ranked_compositions():
    # the predecessor ranks and the vectors with every n_x >= 1 against a
    # brute-force enumeration ranked by the combinatorial number system
    from loctimes.visits import VisitStructure

    for r in (2, 3, 4):
        structure = VisitStructure(r)
        layers = structure.extend(7)
        previous = {0: (0,) * r}
        for K, layer in enumerate(layers, 1):
            def rank(n):
                bars = np.cumsum(n)[:r - 1] + np.arange(r - 1)
                return sum(math.comb(int(c), i + 1) for i, c in enumerate(bars))

            vectors = sorted((n for n in np.ndindex(*(K + 1,) * r) if sum(n) == K), key=rank)
            assert [rank(n) for n in vectors] == list(range(len(vectors)))
            for j, n in enumerate(vectors):
                for x in range(r):
                    state, rank = divmod(int(layer.pred[x, j]), len(previous) + 1)
                    assert state == x
                    if n[x]:
                        m = list(n)
                        m[x] -= 1
                        assert previous[rank] == tuple(m)
                    else:
                        assert rank == len(previous)
            full = [j for j, n in enumerate(vectors) if min(n) >= 1]
            assert layer.full.tolist() == full
            lo, hi = structure.ends[K - 1], structure.ends[K]
            assert structure.exponents[:, lo:hi].T.tolist() == [
                [c - 1 for c in vectors[j]] for j in full]
            assert np.allclose(structure.log_factorials[lo:hi],
                               [sum(math.lgamma(c) for c in vectors[j]) for j in full])
            previous = dict(enumerate(vectors))


def test_visit_series_answers_the_reach_inputs():
    # K4 and K5 at l = 0.5, where the flow enumeration explodes, and the unit
    # 3-cycle at l = 20, where the flow series cannot certify: the first two
    # against the quadrature, the last against a 96-point grid
    for n, l, grid in ((4, 0.5, 64), (5, 0.5, None), (3, 20.0, 96)):
        gen = _complete(n)
        R = gen.states
        values, bounds, orders, route = density_rows(gen, R, 0, n - 1, np.full((1, n), l))
        assert route == "visits" and bounds[0] <= 1e-10
        if grid is None:
            assert 0.0 < values[0] < 1.0
            continue
        rates = range_rates(gen, R)
        want = density_module._quadrature_value(rates.A, rates.B, np.full(n, l), 0, n - 1,
                                                grid).real
        assert abs(values[0] - want) <= 1e-9 * want


def test_visit_series_at_large_local_times_is_finite_or_typed():
    # K3 at l = 200: the raw sum is above e^600; no nan, inf or warning, and
    # the certified order is unaffordable, so a typed error
    gen = _complete(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = density(gen, gen.states, 0, 2, [200.0] * 3)
        except (ExplosionGuardError, NonConvergedTruncationError) as exc:
            assert "nan" not in str(exc)
        else:
            assert math.isfinite(value)


def test_visit_series_refuses_an_unaffordable_order_before_allocating(monkeypatch):
    # K4 at l = 40 needs an order near 650: billions of visit vectors.  The
    # projection refuses it before any layer is built
    def refused(*args, **kwargs):
        raise AssertionError("a layer was built")

    monkeypatch.setattr(density_module._VisitSeries, "extend", refused)
    gen = _complete(4)
    start = time.perf_counter()
    with pytest.raises(ExplosionGuardError, match=r"visit series of order \d+ on 4 states "
                                                  r"would take \d+ MB, over the cap of 256 MB"):
        density(gen, gen.states, 0, 3, [40.0] * 4)
    assert time.perf_counter() - start < 1.0


def test_visit_series_of_a_range_with_a_trap_is_zero():
    # state 2 has no rate inside R = (0, 1, 2) and is not b: no path of range
    # R ends at b, and the density is exactly 0 (the flow series agrees)
    gen = validate_generator([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    values, bounds, orders, route = density_rows(gen, (0, 1, 2), 0, 1, np.full((2, 3), 0.5))
    assert route == "visits" and not values.any() and not bounds.any() and not orders.any()
    ev = density_certified(gen, (0, 1, 2), 0, 1, [0.5] * 3)
    assert abs(ev.value) <= ev.error_bound


def test_visit_series_bounds_an_underflowing_value_in_log_space():
    # the diagonal factor exp(-732) underflows: the value keeps its size until
    # the last exponential, and the bound covers its rounding instead of a
    # false 0
    gen = validate_generator([[0.0, 0.1, 0.1, 12.0], [0.1, 0.0, 0.1, 12.0],
                              [0.1, 0.1, 0.0, 12.0], [1.0, 0.0, 0.0, 0.0]])
    values, bounds, _, route = density_rows(gen, (0, 1, 2), 0, 1, np.full((1, 3), 20.0))
    assert route == "visits" and 0.0 < values[0] < 1e-300 and values[0] <= bounds[0] <= 1e-10
    # killed at rate 20, exp(-1212): the value rounds to 0, and so does every
    # tail, but the bound keeps the last rounding, not a false 0
    gen = validate_generator([[0.0, 0.1, 0.1, 20.0], [0.1, 0.0, 0.1, 20.0],
                              [0.1, 0.1, 0.0, 20.0], [1.0, 0.0, 0.0, 0.0]])
    values, bounds, _, _ = density_rows(gen, (0, 1, 2), 0, 1, np.full((1, 3), 20.0))
    assert values[0] == 0.0 and 0.0 < bounds[0] <= 1e-10


def test_visit_bound_covers_the_rounding_of_a_large_value():
    # the unit 3-cycle at rate 1000 and l = 5e-4: a density of 2.55e5, whose
    # rounding alone is above an absolute tol of 1e-10, so it is refused
    # there; at tol 1e-5 it is answered within its bound of a 64-point grid
    gen = validate_generator(_complete(3).rates * 1000.0)
    L = np.full((1, 3), 5e-4)
    with pytest.raises(NonConvergedTruncationError, match="above tol 1.000e-10 at visit order"):
        density_rows(gen, gen.states, 0, 2, L)
    values, bounds, _, _ = density_rows(gen, gen.states, 0, 2, L, 1e-5)
    rates = range_rates(gen, gen.states)
    grid = density_module._quadrature_value(rates.A, rates.B, L[0], 0, 2, 64).real
    assert 1e-13 * values[0] <= bounds[0] <= 1e-5
    assert abs(values[0] - grid) <= bounds[0]


def test_visit_rows_do_not_depend_on_the_batch_or_the_cache():
    # a row's value, bound and order are the same bits alone, in a batch, and
    # after a longer series was built for another row
    gen = _strongly_connected(np.random.default_rng(4101), 4, 3)
    R = gen.states
    rates = range_rates(gen, R)
    L = np.random.default_rng(4102).uniform(0.1, 2.0, (6, 4))
    density_module._visit_series.cache_clear()
    alone = [density_rows(gen, R, 0, 3, l[None, :]) for l in L]
    density_module._visit_series(rates, 0, 3).extend(int(max(x[2][0] for x in alone)) + 10)
    batch = density_rows(gen, R, 0, 3, L)
    for k, single in enumerate(alone):
        assert [x[0].hex() if x.dtype == float else x[0] for x in single[:3]] == [
            x[k].hex() if x.dtype == float else x[k] for x in batch[:3]]


def test_flow_series_refuses_a_long_walk_before_its_subset_weights(monkeypatch):
    # srw(0, 19) at l = 0.1: the empty subset's tail alone needs order 26, and
    # that flow table is over the guard's cap, so the series refuses before
    # it builds 2^18 subset weights (4.3 s before, 0.7 s after).  The cap is
    # lowered to 16 MB here, which the table passes as well, so the guard
    # refuses it sooner
    def refused(*args, **kwargs):
        raise AssertionError("the subset weights were built")

    monkeypatch.setattr(density_module, "_subset_layout", refused)
    monkeypatch.setattr(flows_module, "_FLOW_BYTES", 16 << 20)
    g = srw_generator(0, 19)
    with pytest.raises(ExplosionGuardError, match="balanced-flow expansion would take .* "
                                                  "over the cap of .* or 16 MB"):
        density_certified(g, g.states, 0, 19, [0.1] * 20)


def test_early_refusal_keeps_the_bits_of_a_series_it_lets_through(monkeypatch):
    # 12 free states ask the guard first; where it lets the request through,
    # the value, bound and order are those of the series without the check
    g = srw_generator(0, 13)
    l = [0.004] * 14
    checked = density_certified(g, g.states, 0, 13, l)
    monkeypatch.setattr(density_module, "_EARLY_REFUSAL_STATES", 99)
    density_module._prepared_range.cache_clear()
    plain = density_certified(g, g.states, 0, 13, l)
    assert (checked.value.hex(), checked.error_bound.hex(), checked.order) == (
        plain.value.hex(), plain.error_bound.hex(), plain.order)
    assert abs(checked.value - density_tree(g, g.states, 0, 13, l)) <= checked.error_bound
