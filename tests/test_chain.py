import math

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist, poisson

from loctimes.chain import (
    generator_from_triples,
    srw_generator,
    validate_generator,
)
from loctimes.errors import (
    NegativeRateError,
    NonConservativeError,
    TooSmallStateSpaceError,
    UnknownLabelError,
)
from loctimes.montecarlo import sample_paths_fixed_time, sample_paths_inverse_local_time


TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_diagonal_recomputed_when_absent():
    g = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))
    assert np.allclose(np.diag(g.rates), [-1.0, -1.0])


def test_path_graph_diagonal():
    A = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    g = validate_generator(A, (0, 1, 2))
    assert g.rates[1, 1] == -2.0
    assert np.allclose(g.rates.sum(axis=1), 0.0)


def test_negative_rate_rejected():
    with pytest.raises(NegativeRateError):
        validate_generator([[0.0, -0.5], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_rejected(bad):
    with pytest.raises(ValueError, match=r"rate .* from 0 to 1 is not finite"):
        validate_generator([[0.0, bad, 0.5], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"rate .* from 2 to 2 is not finite"):
        validate_generator([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, bad]])


def test_too_small_state_space():
    with pytest.raises(TooSmallStateSpaceError):
        validate_generator([[0.0]])


def test_provided_diagonal_checked():
    with pytest.raises(NonConservativeError):
        validate_generator([[-1.5, 1.0], [1.0, -1.0]])
    g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(g.rates.sum(axis=1), 0.0)


def test_triples_builder():
    g = generator_from_triples(("a", "b"), [("a", "b", 2.0), ("b", "a", 1.0)])
    assert g.rates[0, 0] == -2.0 and g.rates[1, 1] == -1.0


def test_triples_diagnostics():
    with pytest.raises(ValueError, match="#1"):
        generator_from_triples(("a", "b"), [("a", "b", 1.0), ("a", 1.0)])
    with pytest.raises(UnknownLabelError, match="#0"):
        generator_from_triples(("a", "b"), [("a", "c", 1.0)])


# ---------------------------------------------------------------------------
# fixed-time simulation
# ---------------------------------------------------------------------------

def test_local_times_partition_horizon():
    # every path has positive local time at its start and at its endpoint, so
    # the states with positive local time are its range
    rng = np.random.default_rng(3)
    g = srw_generator(0, 5)
    for _ in range(10):
        T = rng.uniform(0.2, 4.0)
        batch = sample_paths_fixed_time(g, 2, T, 500, rng)
        assert np.allclose(batch.local_times.sum(axis=1), T, rtol=1e-12, atol=0.0)
        assert np.all(batch.horizons == T)
        assert np.all(batch.local_times[:, g.index(2)] > 0)
        rows = np.arange(500)
        assert np.all(batch.local_times[rows, batch.endpoints] > 0)


def test_two_state_mean_local_time():
    # E[l_T(1)] = T/2 + (1 - e^{-2T})/4 from the two-state semigroup
    rng = np.random.default_rng(11)
    T = 1.0
    n = 1_000_000
    batch = sample_paths_fixed_time(TWO_STATE, 1, T, n, rng)
    expected = T / 2 + (1 - math.exp(-2 * T)) / 4
    sample = batch.local_times[:, 0]
    z = (sample.mean() - expected) / (sample.std(ddof=1) / math.sqrt(n))
    assert abs(z) < 4.0


def test_two_state_no_jump_probability():
    rng = np.random.default_rng(12)
    T = 1.0
    n = 200_000
    batch = sample_paths_fixed_time(TWO_STATE, 1, T, n, rng)
    stayed = (batch.local_times[:, 1] == 0.0).mean()
    p = math.exp(-T)
    z = (stayed - p) / math.sqrt(p * (1 - p) / n)
    assert abs(z) < 4.0


def test_jump_counts_are_poisson():
    # unit exit rate at both states makes the jump count Poisson(T)
    rng = np.random.default_rng(13)
    T = 2.0
    n = 100_000
    batch = sample_paths_fixed_time(TWO_STATE, 1, T, n, rng)
    counts = np.bincount(batch.jumps)
    kmax = len(counts) - 1
    probs = poisson.pmf(np.arange(kmax + 1), T)
    probs[-1] += poisson.sf(kmax, T)
    expected = probs * n
    # merge the sparse tail for chi-square validity
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    obs, exp = np.array(obs), np.array(exp)
    exp *= obs.sum() / exp.sum()
    stat = (((obs - exp) ** 2) / exp).sum()
    p_value = chi2_dist.sf(stat, len(obs) - 1)
    assert p_value > 1e-3


def test_zero_exit_rate_sits_until_horizon():
    g = validate_generator([[0.0, 0.0], [1.0, -1.0]], (0, 1))
    batch = sample_paths_fixed_time(g, 0, 3.0, 100, np.random.default_rng(0))
    assert np.all(batch.local_times == [3.0, 0.0])
    assert np.all(batch.endpoints == 0) and np.all(batch.jumps == 0)


def test_fixed_time_deterministic_replay():
    g = srw_generator(0, 4)
    b1, b2 = (sample_paths_fixed_time(g, 1, 2.0, 1_000, np.random.default_rng(99))
              for _ in range(2))
    assert np.array_equal(b1.local_times, b2.local_times)
    assert np.array_equal(b1.endpoints, b2.endpoints)
    assert np.array_equal(b1.jumps, b2.jumps)


def test_restriction_reweighting_matches_full_chain():
    # mean of exp(-sum l(x) V[x,x]) on {endpoint=b} under the restricted
    # chain equals P(range within R, endpoint=b) under the full chain
    rng_full, rng_restr = (np.random.default_rng(s) for s in (21, 22))
    g = srw_generator(0, 4)
    R = (1, 2, 3)
    # the chain kept inside R by recomputing its diagonal, and the rates at
    # which the full chain escapes R
    block = g.submatrix(R)
    restricted = validate_generator(block - np.diag(np.diag(block)), R)
    killing = -block.sum(axis=1)
    T, n, b = 1.0, 150_000, 2

    full = sample_paths_fixed_time(g, 1, T, n, rng_full)
    idx_R = g.indices(R)
    others = np.setdiff1d(np.arange(g.n_states), idx_R)
    inside = ~(full.local_times[:, others] > 0).any(axis=1)
    target = inside & (full.endpoints == g.index(b))
    p_full = target.mean()
    se_full = math.sqrt(p_full * (1 - p_full) / n)

    sub = sample_paths_fixed_time(restricted, 1, T, n, rng_restr)
    weights = np.exp(-(sub.local_times * killing[None, :]).sum(axis=1))
    weights *= sub.endpoints == restricted.index(b)
    est = weights.mean()
    se_rest = weights.std(ddof=1) / math.sqrt(n)

    z = (est - p_full) / math.sqrt(se_full**2 + se_rest**2)
    assert abs(z) < 4.0


# ---------------------------------------------------------------------------
# inverse local time
# ---------------------------------------------------------------------------

def test_inverse_local_time_clips_exactly():
    g = srw_generator(-3, 5)
    batch = sample_paths_inverse_local_time(g, 0, 2, 0.7, 2_000, np.random.default_rng(5))
    assert np.all(batch.local_times[:, g.index(2)] == 0.7)
    assert np.all(batch.endpoints == g.index(2))
    assert np.allclose(batch.horizons, batch.local_times.sum(axis=1), rtol=1e-12)


def test_inverse_local_time_started_at_pivot():
    # no jump before the level accrues happens with probability e^{-0.4}
    g = srw_generator(-2, 2)
    batch = sample_paths_inverse_local_time(g, 0, 0, 0.2, 200, np.random.default_rng(6))
    assert np.all(batch.local_times[:, g.index(0)] == 0.2)
    pure = batch.jumps == 0
    assert pure.any() and not pure.all()
    assert np.all(batch.local_times[pure] == np.where(np.array(g.states) == 0, 0.2, 0.0))
    assert np.all(batch.horizons[pure] == 0.2)


def test_inverse_local_time_atom_probability():
    # from 0 stopped at level 1 at pivot 2: P(l(3) = 0) = e^{-1}
    g = srw_generator(-8, 10)
    rng = np.random.default_rng(14)
    n = 100_000
    batch = sample_paths_inverse_local_time(g, 0, 2, 1.0, n, rng)
    frac = (batch.local_times[:, g.index(3)] == 0.0).mean()
    p = math.exp(-1.0)
    z = (frac - p) / math.sqrt(p * (1 - p) / n)
    assert abs(z) < 4.0
