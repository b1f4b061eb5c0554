import math
import warnings

import numpy as np
import pytest
import scipy.special as sp

from loctimes.bessel import edge_kernel, scaled_edge_kernel
from loctimes.errors import NonConvergedTruncationError


def edge_kernel_d(c, lx, ly):
    """Derivative of edge_kernel in lx: the order-1 scaled kernel times e^z."""
    z, scaled = scaled_edge_kernel(1, c, lx, ly)
    return scaled * math.exp(z)


def test_frozen_values():
    # series-summation oracle values: edge_kernel(1, x/2, x/2) = I0(x) and
    # edge_kernel_d(1, x/2, x/2) = I1(x)
    assert edge_kernel(1.0, 0.5, 0.5) == pytest.approx(1.2660658777520084, rel=1e-15)
    assert edge_kernel_d(1.0, 1.0, 1.0) == pytest.approx(1.5906368546373291, rel=1e-15)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.3, 1.0, 2.0, 7.5, 20.0, 50.0])
def test_series_against_scipy(x):
    assert edge_kernel(1.0, x / 2, x / 2) == pytest.approx(sp.iv(0, x), rel=1e-14)
    assert edge_kernel_d(1.0, x / 2, x / 2) == pytest.approx(sp.iv(1, x), rel=1e-14)


def test_edge_kernel_reduces_to_i0():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lx, ly = rng.uniform(0.05, 3.0, 2)
        c = rng.uniform(0.1, 2.0)
        assert edge_kernel(c, lx, ly) == pytest.approx(
            sp.iv(0, 2.0 * math.sqrt(c * lx * ly)), rel=1e-13
        )


def test_edge_kernel_derivative_matches_i1():
    # d/dlx I0(2 sqrt(c lx ly)) = sqrt(c ly / lx) I1(2 sqrt(c lx ly))
    rng = np.random.default_rng(8)
    for _ in range(20):
        lx, ly = rng.uniform(0.05, 3.0, 2)
        c = rng.uniform(0.1, 2.0)
        expected = math.sqrt(c * ly / lx) * sp.iv(1, 2.0 * math.sqrt(c * lx * ly))
        assert edge_kernel_d(c, lx, ly) == pytest.approx(expected, rel=1e-13)


def test_edge_kernel_derivative_by_finite_differences():
    h = 1e-6
    lx, ly, c = 0.7, 1.3, 0.9
    fd = (edge_kernel(c, lx + h, ly) - edge_kernel(c, lx - h, ly)) / (2 * h)
    assert edge_kernel_d(c, lx, ly) == pytest.approx(fd, rel=1e-8)


def test_edge_kernel_zero_rate_product():
    assert edge_kernel(0.0, 0.5, 0.5) == 1.0
    assert edge_kernel_d(0.0, 0.5, 0.5) == 0.0


def test_edge_kernel_at_zero_time():
    assert edge_kernel(1.7, 0.0, 1.0) == 1.0
    assert edge_kernel_d(1.7, 0.0, 1.3) == 1.7 * 1.3


@pytest.mark.parametrize("kernel", [edge_kernel])
def test_edge_kernel_raises_instead_of_overflowing(kernel):
    # I0(2000) exceeds the double range
    with pytest.raises(NonConvergedTruncationError, match="not finite"):
        kernel(1.0, 1e3, 1e3)


@pytest.mark.parametrize("kernel", [edge_kernel])
def test_edge_kernel_overflow_of_numpy_scalars_does_not_warn(kernel):
    # the density routes pass numpy scalars, whose arithmetic warns on overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergedTruncationError, match="not finite"):
            kernel(np.float64(1.0), np.float64(200.0), np.float64(800.0))


@pytest.mark.parametrize("kernel", [edge_kernel, edge_kernel_d])
def test_edge_kernel_at_a_large_finite_argument(kernel):
    # c lx ly = 1e5, z = 632.46: I0(z) = 7.4547e272, far past the terms a
    # direct power series would need; the derivative is sqrt(ly/lx) I1(z)
    z = 2.0 * math.sqrt(1e5)
    expected = sp.iv(0, z) if kernel is edge_kernel else math.sqrt(10.0) * sp.iv(1, z)
    assert kernel(1.0, 100.0, 1e3) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("kernel", [edge_kernel, edge_kernel_d])
def test_edge_kernel_rejects_a_negative_rate_product(kernel):
    with pytest.raises(ValueError, match="rate product"):
        kernel(-1.0, 0.5, 0.5)


def test_edge_kernel_large_argument_below_the_cap():
    z = 2.0 * math.sqrt(1e4)
    assert edge_kernel(1.0, 100.0, 100.0) == pytest.approx(sp.iv(0, z), rel=1e-13)
    assert edge_kernel_d(1.0, 100.0, 100.0) == pytest.approx(sp.iv(1, z), rel=1e-13)


def test_array_kernels_equal_the_scalar_ones_bit_for_bit():
    # the tree route evaluates every edge at every row in one call, with one
    # order per edge; each entry must be the scalar kernel's bits, z = 0
    # (c = 0, a one-way edge) included, and warn about nothing
    rng = np.random.default_rng(9)
    c = np.array([[0.0, 0.7, 2.5, 0.0, 1e-3]])
    order = np.array([[0.0, 1.0, 0.0, 1.0, 1.0]])
    lx, ly = rng.uniform(1e-3, 40.0, (2, 30, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for orders in (0, 1, order):
            z, scaled = scaled_edge_kernel(orders, c, lx, ly)
            assert z.shape == scaled.shape == (30, 5)
            for p in range(30):
                for e in range(5):
                    k = int(np.broadcast_to(orders, (1, 5))[0, e])
                    want = scaled_edge_kernel(k, float(c[0, e]), float(lx[p, e]),
                                              float(ly[p, e]))
                    assert z[p, e].hex() == want[0].hex()
                    assert scaled[p, e].hex() == want[1].hex()
    # c*ly exactly at z = 0
    assert scaled_edge_kernel(1, np.zeros(2), np.ones(2), np.full(2, 3.0))[1].tolist() == [0.0, 0.0]


def test_array_kernels_reject_a_negative_rate_product():
    with pytest.raises(ValueError, match="rate product must be >= 0"):
        scaled_edge_kernel(0, np.array([1.0, -0.5]), np.ones(2), np.ones(2))
