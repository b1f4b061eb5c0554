import math

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist, poisson

from loctimes.chain import (
    generator_from_triples,
    restrict,
    simulate_fixed_time,
    simulate_inverse_local_time,
    srw_generator,
    validate_generator,
)
from loctimes.errors import (
    BudgetExceededError,
    EmptySubsetError,
    NegativeRateError,
    NonConservativeError,
    TooSmallStateSpaceError,
    UnknownLabelError,
)
from loctimes.montecarlo import sample_paths_fixed_time


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
# restriction
# ---------------------------------------------------------------------------

def test_restrict_srw_to_pair():
    g = srw_generator(-2, 3)
    res = restrict(g, (0, 1))
    assert np.allclose(res.restricted.rates, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(res.killing, [1.0, 1.0])  # escape to -1 and to 2


def test_restrict_identity_holds_exactly():
    g = srw_generator(0, 4)
    res = restrict(g, (1, 2, 3))
    base_block = g.submatrix((1, 2, 3))
    assert np.array_equal(res.restricted.rates, base_block + res.killing_matrix)


def test_restrict_full_set_is_noop():
    g = TWO_STATE
    res = restrict(g, (1, 2))
    assert np.array_equal(res.restricted.rates, g.rates)
    assert np.all(res.killing == 0.0)


def test_restrict_singleton():
    g = TWO_STATE
    res = restrict(g, (1,))
    assert res.restricted.rates.tolist() == [[0.0]]
    assert res.killing.tolist() == [1.0]  # minus the original diagonal


def test_restrict_errors():
    with pytest.raises(EmptySubsetError):
        restrict(TWO_STATE, ())
    with pytest.raises(UnknownLabelError):
        restrict(TWO_STATE, (1, 7))


# ---------------------------------------------------------------------------
# fixed-time simulation
# ---------------------------------------------------------------------------

def test_local_times_partition_horizon():
    rng = np.random.default_rng(3)
    g = srw_generator(0, 5)
    for _ in range(50):
        T = rng.uniform(0.2, 4.0)
        path = simulate_fixed_time(g, 2, T, rng)
        total = sum(path.local_times.values())
        assert abs(total - T) <= 1e-12 * T
        positive = {x for x, v in path.local_times.items() if v > 0}
        assert path.range == positive | {2}


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
    path = simulate_fixed_time(g, 0, 3.0, np.random.default_rng(0))
    assert path.local_times[0] == 3.0
    assert path.range == frozenset({0})


def test_fixed_time_deterministic_replay():
    g = srw_generator(0, 4)
    p1 = simulate_fixed_time(g, 1, 2.0, np.random.default_rng(99))
    p2 = simulate_fixed_time(g, 1, 2.0, np.random.default_rng(99))
    assert p1.local_times == p2.local_times and p1.endpoint == p2.endpoint


def test_restriction_reweighting_matches_full_chain():
    # mean of exp(-sum l(x) V[x,x]) on {endpoint=b} under the restricted
    # chain equals P(range within R, endpoint=b) under the full chain
    rng_full, rng_restr = (np.random.default_rng(s) for s in (21, 22))
    g = srw_generator(0, 4)
    R = (1, 2, 3)
    res = restrict(g, R)
    T, n, b = 1.0, 150_000, 2

    full = sample_paths_fixed_time(g, 1, T, n, rng_full)
    idx_R = g.indices(R)
    others = np.setdiff1d(np.arange(g.n_states), idx_R)
    inside = ~(full.local_times[:, others] > 0).any(axis=1)
    target = inside & (full.endpoints == g.index(b))
    p_full = target.mean()
    se_full = math.sqrt(p_full * (1 - p_full) / n)

    sub = sample_paths_fixed_time(res.restricted, 1, T, n, rng_restr)
    weights = np.exp(-(sub.local_times * res.killing[None, :]).sum(axis=1))
    weights *= sub.endpoints == res.restricted.index(b)
    est = weights.mean()
    se_rest = weights.std(ddof=1) / math.sqrt(n)

    z = (est - p_full) / math.sqrt(se_full**2 + se_rest**2)
    assert abs(z) < 4.0


# ---------------------------------------------------------------------------
# inverse local time
# ---------------------------------------------------------------------------

def test_inverse_local_time_clips_exactly():
    g = srw_generator(-3, 5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        res = simulate_inverse_local_time(g, 0, 2, 0.7, rng)
        assert res.path.local_times[2] == 0.7
        assert res.path.endpoint == 2
        total = sum(res.path.local_times.values())
        assert abs(total - res.path.horizon) <= 1e-12 * max(res.path.horizon, 1.0)


def test_inverse_local_time_started_at_pivot():
    g = srw_generator(-2, 2)
    rng = np.random.default_rng(6)
    seen_pure = False
    for _ in range(200):
        res = simulate_inverse_local_time(g, 0, 0, 0.2, rng)
        assert res.path.local_times[0] == 0.2
        if res.path.range == frozenset({0}):
            seen_pure = True
    assert seen_pure  # no jump before the level accrues happens with prob e^{-0.4}


def test_inverse_local_time_atom_probability():
    # from 0 stopped at level 1 at pivot 2: P(l(3) = 0) = e^{-1}
    from loctimes.montecarlo import sample_paths_inverse_local_time

    g = srw_generator(-8, 10)
    rng = np.random.default_rng(14)
    n = 100_000
    batch = sample_paths_inverse_local_time(g, 0, 2, 1.0, n, rng)
    frac = (batch.local_times[:, g.index(3)] == 0.0).mean()
    p = math.exp(-1.0)
    z = (frac - p) / math.sqrt(p * (1 - p) / n)
    assert abs(z) < 4.0


def test_inverse_local_time_budget():
    g = validate_generator([[0.0, 0.0], [1.0, -1.0]], (0, 1))
    with pytest.raises(BudgetExceededError):
        # start state is absorbing and is not the pivot
        simulate_inverse_local_time(g, 0, 1, 1.0, np.random.default_rng(0))


class _TopUniformRng:
    """Stub generator: every uniform is 1 - 2^-53, the largest double below
    1, and every exponential is half its scale."""

    def random(self):
        return np.nextafter(1.0, 0.0)

    def exponential(self, scale):
        return 0.5 * scale


def _row_below_one():
    # state 0 jumps with probabilities 0.1/0.6, 0.2/0.6, 0.3/0.6, whose
    # cumulative sum rounds to 1 - 2^-53; states 1..3 jump back to 0
    rates = np.zeros((4, 4))
    rates[0, 1:] = [0.1, 0.2, 0.3]
    rates[1:, 0] = 1.0
    return validate_generator(rates)


def test_fixed_time_top_uniform_jumps_to_last_target():
    # the draw 1 - 2^-53 is not below the row's cumulative sum, so it must be
    # clamped to the last target, state 3: holds 0.5/0.6 at 0, 0.5 at 3,
    # then from t = 4/3 at 0 past the horizon 2
    path = simulate_fixed_time(_row_below_one(), 0, 2.0, _TopUniformRng())
    assert path.local_times[0] == pytest.approx(1.5, rel=1e-15)
    assert path.local_times[3] == 0.5
    assert path.local_times[1] == path.local_times[2] == 0.0
    assert path.endpoint == 0 and path.range == frozenset({0, 3})


def test_inverse_local_time_top_uniform_jumps_to_last_target():
    # pivot 3 at level 1: two half-unit sojourns there, three jumps
    res = simulate_inverse_local_time(_row_below_one(), 0, 3, 1.0, _TopUniformRng())
    assert res.path.local_times[3] == 1.0
    assert res.path.local_times[0] == pytest.approx(2 * 0.5 / 0.6, rel=1e-15)
    assert res.jumps == 3
