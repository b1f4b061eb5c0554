import hashlib
import math

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate, stats

from loctimes.chain import Generator, srw_generator, validate_generator
from loctimes.density import density, density_tridiagonal
from loctimes.errors import DomainError, NegativeRateError, NotSRWError
from loctimes.montecarlo import sample_paths_inverse_local_time
from loctimes.rayknight import (
    rk_fixed_time_check,
    rk_inner_density,
    rk_outer_atom,
    rk_outer_density,
    sample_rk_profile_batch,
)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_values():
    assert rk_inner_density(1.0, 1.0) == pytest.approx(
        math.exp(-2.0) * sp.iv(0, 2.0), rel=1e-13)
    assert rk_inner_density(1.0, 1.0) == pytest.approx(0.3085083, abs=5e-8)
    assert rk_outer_atom(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert rk_outer_atom(0.0) == 1.0  # absorbed chains stay absorbed


def test_kernels_at_large_local_times():
    # exp(-800) I0(800): both factors leave the double range, their product
    # does not
    assert rk_inner_density(400.0, 400.0) == pytest.approx(sp.i0e(800.0), rel=1e-8)
    assert rk_outer_density(400.0, 400.0) == pytest.approx(sp.i1e(800.0), rel=1e-8)
    expected = math.exp(-(math.sqrt(900.0) - math.sqrt(400.0)) ** 2) * sp.i0e(1200.0)
    assert rk_inner_density(900.0, 400.0) == pytest.approx(expected, rel=1e-8, abs=0)


def test_inner_kernel_limit_at_zero():
    assert rk_inner_density(0.0, 1e-12) == pytest.approx(1.0, abs=1e-10)


def test_kernels_reject_negative_arguments():
    with pytest.raises(DomainError):
        rk_inner_density(-0.1, 1.0)
    with pytest.raises(DomainError):
        rk_outer_density(1.0, -1.0)
    with pytest.raises(DomainError):
        rk_outer_atom(-2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, name", [
    (lambda h: rk_inner_density(h, 1.0), "h1"),
    (lambda h: rk_inner_density(1.0, h), "h2"),
    (lambda h: rk_outer_density(h, 1.0), "h1"),
    (lambda h: rk_outer_density(1.0, h), "h2"),
    (lambda h: rk_outer_atom(h), "h1"),
], ids=["inner-h1", "inner-h2", "outer-h1", "outer-h2", "atom-h1"])
def test_kernels_reject_non_finite_arguments(call, name, bad):
    with pytest.raises(DomainError, match=f"kernel argument {name} must be finite"):
        call(bad)


@pytest.mark.parametrize("h1", [0.1, 1.0, 5.0])
def test_inner_kernel_normalization(h1):
    total, _ = integrate.quad(lambda h2: rk_inner_density(h1, h2), 0.0, np.inf,
                              limit=300, epsabs=1e-13, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("h1", [0.1, 1.0, 5.0])
def test_outer_kernel_normalization(h1):
    total, _ = integrate.quad(lambda h2: rk_outer_density(h1, h2), 0.0, np.inf,
                              limit=300, epsabs=1e-13, epsrel=1e-12)
    assert abs(rk_outer_atom(h1) + total - 1.0) < 1e-10


def test_poisson_gamma_mixture_identity():
    # f(h1, .) is Gamma(K+1, 1) and the outer density is Gamma(K, 1) with
    # K ~ Poisson(h1); compare term sums with the closed forms on a grid
    hs = np.linspace(0.25, 5.0, 20)
    kmax = 220
    ks = np.arange(kmax + 1)
    for h1 in hs:
        pois = stats.poisson.pmf(ks, h1)
        for h2 in hs:
            inner = float((pois * stats.gamma.pdf(h2, ks + 1.0)).sum())
            assert abs(inner - rk_inner_density(h1, h2)) < 1e-10
            outer = float((pois[1:] * stats.gamma.pdf(h2, ks[1:])).sum())
            assert abs(outer - rk_outer_density(h1, h2)) < 1e-10


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_profile_starts_at_level():
    sites, values = sample_rk_profile_batch(3, 0.8, 5, 1, np.random.default_rng(0))
    assert values.shape == (1, 14)
    assert sites.tolist() == list(range(-5, 9))
    assert values[0, sites.tolist().index(3)] == 0.8


def test_profile_atom_frequency():
    rng = np.random.default_rng(1)
    n = 100_000
    h = 1.0
    sites, values = sample_rk_profile_batch(2, h, 4, n, rng)
    col = {int(s): i for i, s in enumerate(sites)}
    frac = (values[:, col[3]] == 0.0).mean()
    p = math.exp(-h)
    z = (frac - p) / math.sqrt(p * (1 - p) / n)
    assert abs(z) < 4.0


def test_profile_absorption_is_permanent():
    rng = np.random.default_rng(2)
    sites, values = sample_rk_profile_batch(2, 1.0, 8, 20_000, rng)
    col = {int(s): i for i, s in enumerate(sites)}
    for x in range(3, 10):
        dead = values[:, col[x]] == 0.0
        assert np.all(values[dead][:, col[x + 1]] == 0.0)
    for x in range(-1, -8, -1):
        dead = values[:, col[x]] == 0.0
        assert np.all(values[dead][:, col[x - 1]] == 0.0)


def test_rare_event_atom_at_high_level():
    # at h = 5 the absorption beyond the pivot is a rare event; the zero
    # counts of both samplers sit inside the Poisson band around N e^{-5}
    n = 200_000
    h, b = 5.0, 2
    lam = n * math.exp(-h)
    sites, values = sample_rk_profile_batch(b, h, 3, n, np.random.default_rng(9))
    col = {int(s): i for i, s in enumerate(sites)}
    count_profile = int((values[:, col[b + 1]] == 0.0).sum())
    assert abs(count_profile - lam) < 4.0 * math.sqrt(lam)

    n_direct = 40_000
    lam_direct = n_direct * math.exp(-h)
    g = srw_generator(-8, 10)
    batch = sample_paths_inverse_local_time(g, 0, b, h, n_direct,
                                            np.random.default_rng(10))
    count_direct = int((batch.local_times[:, g.index(b + 1)] == 0.0).sum())
    assert abs(count_direct - lam_direct) < 4.0 * math.sqrt(lam_direct)


def test_profile_is_deterministic_given_seed():
    (s1, p1), (s2, p2) = (sample_rk_profile_batch(2, 1.0, 6, 1, np.random.default_rng(42))
                          for _ in range(2))
    assert np.array_equal(s1, s2) and np.array_equal(p1, p2)


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("window, wider", [(0, 1), (1, 10), (2, 5)])
def test_profile_at_a_smaller_window_is_a_prefix(b, window, wider):
    # each chain draws one step at a time from its own substream, so a
    # shorter profile holds the same values at its sites as a longer one
    sites, values = sample_rk_profile_batch(b, 1.3, window, 2_000, np.random.default_rng(11))
    wide_sites, wide = sample_rk_profile_batch(b, 1.3, wider, 2_000, np.random.default_rng(11))
    wide_col = {int(s): i for i, s in enumerate(wide_sites)}
    assert sites.tolist() == list(range(-window, b + window + 1))
    for i, s in enumerate(sites):
        assert np.array_equal(values[:, i], wide[:, wide_col[int(s)]])


# digests taken from the profile-major sampler that preceded the site-major
# buffer: the layout moved, no draw and no output bit did
PROFILE_DIGESTS = {
    # (b, h, window, n, seed)
    (2, 1.0, 1, 10_000, 51):
        "20f7f26ff76e4e7b7e2bd39cbee0fc1305b59f8b20b4f63473856b953b6b84c5",
    (3, 0.5, 2, 10_000, 52):
        "7f1b7603c461d6402078261f23da4c93bb8cb37bc35253213ba9d7277c24717f",
    (1, 2.0, 0, 1, 53):
        "863630bb4fe8ef30ba02753ef0d71a21c35e3cacd0b1fd1344da2cde07680651",
}


@pytest.mark.parametrize("b, h, window, n, seed", sorted(PROFILE_DIGESTS))
def test_profile_output_pinned(b, h, window, n, seed):
    sites, values = sample_rk_profile_batch(b, h, window, n, np.random.default_rng(seed))
    d = hashlib.sha256()
    for a in (sites, values):
        d.update(np.ascontiguousarray(a).tobytes())
    assert d.hexdigest() == PROFILE_DIGESTS[b, h, window, n, seed]


@pytest.mark.parametrize("n", [0, 1, 500])
def test_profile_output_layout(n):
    # one contiguous row per site, returned transposed; numpy integers count
    # as integers
    sites, values = sample_rk_profile_batch(np.int64(2), 1.0, np.int64(3), np.int64(n),
                                            np.random.default_rng(12))
    assert sites.tolist() == list(range(-3, 6))
    assert values.shape == (n, 9)
    assert values.flags.f_contiguous
    assert np.all(values[:, sites.tolist().index(2)] == 1.0)


def test_profile_written_into_a_given_buffer():
    # the same bits as in the sampler's own buffer; every entry is written
    sites, values = sample_rk_profile_batch(3, 0.5, 2, 1_000, np.random.default_rng(5))
    out = np.full((8, 1_000), np.nan)
    got_sites, got = sample_rk_profile_batch(3, 0.5, 2, 1_000, np.random.default_rng(5), out)
    assert np.shares_memory(got, out)
    assert np.array_equal(got_sites, sites) and np.array_equal(got, values)


@pytest.mark.parametrize("out", [
    np.empty((7, 10)), np.empty((8, 10), dtype=np.float32), np.empty((10, 8)).T,
], ids=["shape", "dtype", "order"])
def test_profile_rejects_a_bad_buffer(out):
    with pytest.raises(ValueError, match=r"\bout\b"):
        sample_rk_profile_batch(3, 0.5, 2, 10, np.random.default_rng(0), out)


@pytest.mark.parametrize("b, h, window, n, name", [
    (2, 1.0, 1, -1, "n"),
    (2, 1.0, 1, 2.5, "n"),
    (2, math.nan, 1, 10, "h"),
    (2, math.inf, 1, 10, "h"),
    (2, 0.0, 1, 10, "h"),
    (2.5, 1.0, 1, 10, "b"),
    (0, 1.0, 1, 10, "b"),
    (2, 1.0, 1.5, 10, "window"),
    (2, 1.0, -1, 10, "window"),
])
def test_profile_rejects_bad_arguments(b, h, window, n, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        sample_rk_profile_batch(b, h, window, n, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# fixed-time product identity
# ---------------------------------------------------------------------------

def test_fixed_time_two_site():
    rho, kernel = rk_fixed_time_check((1, 2), 1, 2, [0.5, 0.5])
    assert rho == pytest.approx(math.exp(-1.0) * sp.iv(0, 1.0), rel=1e-12)
    assert kernel == pytest.approx(rho, rel=1e-12)


def test_fixed_time_middle_block_only():
    l = [0.3, 0.4, 0.3]
    rho, kernel = rk_fixed_time_check((0, 1, 2), 0, 2, l)
    expected = density_tridiagonal(srw_generator(0, 2), (0, 1, 2), 0, 2, l)
    assert rho == pytest.approx(expected, rel=1e-12)
    assert kernel == pytest.approx(expected, rel=1e-12)
    # two inner factors and no outer factors
    assert kernel == pytest.approx(
        rk_inner_density(l[0], l[1]) * rk_inner_density(l[1], l[2]), rel=1e-12)


def test_fixed_time_outer_factors_only():
    l = [0.3, 0.4, 0.3]
    rho, kernel = rk_fixed_time_check((0, 1, 2), 1, 1, l)
    assert kernel == pytest.approx(
        rk_outer_density(l[1], l[0]) * rk_outer_density(l[1], l[2]), rel=1e-12)
    assert rho == pytest.approx(kernel, rel=1e-11)


def test_fixed_time_with_escape_at_both_ends():
    # the walk on a larger window can leave R, so each end contributes an
    # absorption atom exp(-l_end)
    gw = srw_generator(-4, 6)
    l = {0: 0.25, 1: 0.5, 2: 0.25}
    rho, kernel = rk_fixed_time_check((0, 1, 2), 0, 2, l, generator=gw)
    assert rho == pytest.approx(kernel, rel=1e-11)
    no_escape, _ = rk_fixed_time_check((0, 1, 2), 0, 2, l)
    assert kernel == pytest.approx(
        no_escape * math.exp(-l[0]) * math.exp(-l[2]), rel=1e-11)


def test_fixed_time_rejects_non_srw():
    g = validate_generator([[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                           (0, 1, 2))
    with pytest.raises(NotSRWError):
        rk_fixed_time_check((0, 1, 2), 0, 2, [0.3, 0.4, 0.3], generator=g)


def test_fixed_time_check_names_the_first_offending_rate():
    # two rates are off; the first in row-major order is named
    g = validate_generator([[0.0, 1.0, 0.5], [1.0, 0.0, 3.0], [0.0, 1.0, 0.0]], (4, 5, 6))
    with pytest.raises(NotSRWError, match=r"^rate 0.5 from 4 to 6 is not unit"):
        rk_fixed_time_check((4, 5, 6), 4, 6, [0.3, 0.4, 0.3], generator=g)
    # unit rates, but the walk escapes from the interior state 5
    A = srw_generator(4, 6).rates.copy()
    A[1, 1] = -3.0
    with pytest.raises(NotSRWError, match=r"^escape rate 1.0 at 5 is not"):
        rk_fixed_time_check((4, 5, 6), 4, 6, [0.3, 0.4, 0.3], generator=Generator((4, 5, 6), A))
    # an end may escape at rate 0 or 1, not 0.5
    A = srw_generator(4, 6).rates.copy()
    A[2, 2] = -1.5
    with pytest.raises(NotSRWError, match=r"^escape rate 0.5 at 6 is not"):
        rk_fixed_time_check((4, 5, 6), 4, 6, [0.3, 0.4, 0.3], generator=Generator((4, 5, 6), A))


def test_fixed_time_check_refuses_a_negative_rate():
    # as every density route does, not as a walk that is merely not simple
    A = srw_generator(0, 2).rates.copy()
    A[0, 2] = -0.2
    gen = Generator((0, 1, 2), A)
    with pytest.raises(NegativeRateError, match="negative rate -0.2 from position 0"):
        rk_fixed_time_check((0, 1, 2), 0, 2, [0.3, 0.4, 0.3], generator=gen)


def test_fixed_time_sweep_small_intervals():
    rng = np.random.default_rng(3)
    for lo, hi in ((0, 1), (0, 2), (-1, 2), (0, 3)):
        R = tuple(range(lo, hi + 1))
        for a in R:
            for b in R:
                if a > b:
                    continue
                l = rng.dirichlet(np.ones(len(R))) + 0.05
                rho, kernel = rk_fixed_time_check(R, a, b, l)
                assert rho == pytest.approx(kernel, rel=1e-10, abs=1e-13)


def test_fixed_time_answers_both_orders_of_the_ends():
    # the walk is reversible, so the kernel product of (a, b) serves (b, a)
    rng = np.random.default_rng(46)
    for R in ((0, 1, 2), (0, 1, 2, 3), (1, 2, 3)):
        l = rng.dirichlet(np.ones(len(R))) + 0.05
        for gen in (None, srw_generator(R[0] - 2, R[-1] + 2), srw_generator(R[0], R[-1] + 1)):
            for a in R:
                for b in R:
                    rho, kernel = rk_fixed_time_check(R, a, b, l, generator=gen)
                    assert rho == pytest.approx(kernel, rel=1e-12)
                    assert kernel == rk_fixed_time_check(R, b, a, l, generator=gen)[1]


# ---------------------------------------------------------------------------
# distributional equivalence (quick check; the full run lives in acceptance)
# ---------------------------------------------------------------------------

def test_profile_matches_direct_simulation_quick():
    n = 30_000
    h, b = 1.0, 2
    rng_direct, rng_profile = (np.random.default_rng(s) for s in (7, 8))
    g = srw_generator(-7, 9)
    batch = sample_paths_inverse_local_time(g, 0, b, h, n, rng_direct)
    sites, values = sample_rk_profile_batch(b, h, 6, n, rng_profile)
    col = {int(s): i for i, s in enumerate(sites)}
    for site in (0, 1, 3):
        x = batch.local_times[:, g.index(site)]
        y = values[:, col[site]]
        z = (x.mean() - y.mean()) / math.sqrt(
            x.var(ddof=1) / n + y.var(ddof=1) / n)
        assert abs(z) < 4.0
    assert np.all(batch.local_times[:, g.index(b)] == h)
