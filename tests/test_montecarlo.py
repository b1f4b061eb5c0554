"""Batch samplers: the shared jump table, the fixed-time output it must leave
unchanged, the fixed-time sampler's block order, and the jump-chain
inverse-local-time sampler (its pinned output, its site-major layout, and its
law against an event-driven reference simulator kept in this module)."""

import hashlib
import math

import numpy as np
import pytest
from scipy import linalg, stats

from loctimes.chain import srw_generator, validate_generator
from loctimes.errors import BudgetExceededError
from loctimes.montecarlo import (
    _BLOCK,
    jump_table,
    sample_paths_fixed_time,
    sample_paths_inverse_local_time,
)

# non-reversible (the cycle 0 -> 1 -> 2 -> 0 has rate product 1.8 one way and
# 0.06 the other), every state has out-degree 3
FOUR_STATE = validate_generator([
    [0.0, 1.0, 0.5, 2.0],
    [0.3, 0.0, 1.2, 0.7],
    [1.5, 0.4, 0.0, 0.8],
    [0.6, 1.1, 0.9, 0.0],
])


def _event_driven_inverse_local_time(gen, start, pivot, level, rng):
    """Reference simulator, independent of the batch engine: one path stepped
    sojourn by sojourn until the local time at the pivot reaches ``level``,
    the crossing sojourn clipped there.  Every exit rate must be positive.
    Returns the local times and the jump count."""
    q = gen.exit_rates()
    P = gen.off_diagonal() / q[:, None]
    s, b = gen.index(start), gen.index(pivot)
    local = np.zeros(gen.n_states)
    jumps = 0
    while True:
        hold = rng.exponential(1.0 / q[s])
        if s == b and local[b] + hold >= level:
            local[b] = level
            return local, jumps
        local[s] += hold
        s = rng.choice(gen.n_states, p=P[s])
        jumps += 1


def _bytes(batch):
    return [np.ascontiguousarray(a).tobytes()
            for a in (batch.local_times, batch.endpoints, batch.jumps, batch.horizons)]


def _digest(batch) -> str:
    h = hashlib.sha256()
    for b in _bytes(batch):
        h.update(b)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# jump table
# ---------------------------------------------------------------------------

def test_fixed_time_output_pinned():
    # digest of the output of the dense rule (u >= cum[state]).sum(); the
    # table draws the same targets from the same uniforms
    batch = sample_paths_fixed_time(srw_generator(0, 2), 0, 2.0, 10_000,
                                    np.random.default_rng(7))
    assert _digest(batch) == (
        "40734116d04064c26d41afd82cff4ef70e169e3b1e9d951d3086033e47d24203")


# a change to the round kernel must keep every draw and every output bit
@pytest.mark.parametrize("gen, start, T, n_paths, seed, digest", [
    (FOUR_STATE, 0, 3.0, 10_000, 31,
     "8e39160e88a5ae93ac87891ade61157f13d1fb793cbc358300c4d03eac34cf41"),
    # state 2 is absorbing, so the holds take the zero-exit-rate branch
    (validate_generator([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     0, 3.0, 10_000, 32,
     "eb49ca814063ea382987f904b66a6585ebc8815ce97d0173bca58e45bdd5c72f"),
    (srw_generator(-3, 4), 0, 5.0, 1, 33,
     "cbee3da3537e3cfe879d600e87597f8090bbc5b83e63738edc7a60736f070ebd"),
], ids=["four-state", "absorbing", "one-path"])
def test_fixed_time_output_pinned_beyond_srw(gen, start, T, n_paths, seed, digest):
    batch = sample_paths_fixed_time(gen, start, T, n_paths, np.random.default_rng(seed))
    assert _digest(batch) == digest


# ---------------------------------------------------------------------------
# fixed time in blocks of _BLOCK paths
# ---------------------------------------------------------------------------

ABSORBING = validate_generator([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("gen", [FOUR_STATE, ABSORBING], ids=["four-state", "absorbing"])
@pytest.mark.parametrize("extra", [0, 1, 17])
def test_fixed_time_blocks_draw_in_order(gen, extra):
    # a batch is its first _BLOCK paths, then the rest drawn from the state
    # of the rng that the first block left
    rng = np.random.default_rng(40)
    head = sample_paths_fixed_time(gen, 0, 3.0, _BLOCK, rng)
    tail = sample_paths_fixed_time(gen, 0, 3.0, extra, rng)
    whole = sample_paths_fixed_time(gen, 0, 3.0, _BLOCK + extra, np.random.default_rng(40))
    assert whole.local_times.flags.c_contiguous
    for w, h, t in zip(_bytes(whole), _bytes(head), _bytes(tail)):
        assert w == h + t


# one block of exactly _BLOCK paths: the digests of the unblocked sampler;
# 150,000 paths: several blocks, so a change to _BLOCK moves these digests
@pytest.mark.parametrize("gen, n_paths, seed, digest", [
    (FOUR_STATE, _BLOCK, 34,
     "0f81f5caf87e10093111efcfd48f033ba86a176e8819c30e6840dc33688df79a"),
    (ABSORBING, _BLOCK, 35,
     "35f169da538a710176b6577fd705bc0dcf2097156af2be153f25c88bdea8cf6d"),
    (FOUR_STATE, 150_000, 34,
     "1fdc4af1e012d20aa9b30305714a9022a9bb14f635d594ef1b97d484c37a8dc8"),
    (ABSORBING, 150_000, 35,
     "fe7d781692c24cd4960398cf4f72bb3711fff9dc99d2a6504033af14c5214f7c"),
], ids=["four-state-one-block", "absorbing-one-block",
        "four-state-blocks", "absorbing-blocks"])
def test_fixed_time_block_output_pinned(gen, n_paths, seed, digest):
    batch = sample_paths_fixed_time(gen, 0, 3.0, n_paths, np.random.default_rng(seed))
    assert _digest(batch) == digest


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_samplers_reject_bad_path_counts(bad):
    g = srw_generator(0, 2)
    with pytest.raises(ValueError, match="n_paths"):
        sample_paths_fixed_time(g, 0, 1.0, bad, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_paths"):
        sample_paths_inverse_local_time(g, 0, 2, 1.0, bad, np.random.default_rng(0))


def test_samplers_take_numpy_integer_path_counts():
    g = srw_generator(0, 2)
    count = np.int64(3)
    assert sample_paths_fixed_time(g, 0, 1.0, count, np.random.default_rng(0)
                                   ).local_times.shape == (3, 3)
    assert sample_paths_inverse_local_time(g, 0, 2, 1.0, count, np.random.default_rng(0)
                                           ).local_times.shape == (3, 3)


@pytest.mark.parametrize("n_paths", [0, 1, 500])
def test_fixed_time_output_layout(n_paths):
    batch = sample_paths_fixed_time(FOUR_STATE, 1, 2.0, n_paths, np.random.default_rng(6))
    assert batch.local_times.shape == (n_paths, 4)
    assert batch.local_times.flags.c_contiguous
    assert batch.endpoints.shape == batch.jumps.shape == batch.horizons.shape == (n_paths,)
    assert batch.endpoints.dtype == batch.jumps.dtype == np.int64
    assert np.allclose(batch.local_times.sum(axis=1), 2.0, rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_samplers_reject_non_finite_horizon(bad):
    g = srw_generator(0, 2)
    with pytest.raises(ValueError, match="need finite T > 0"):
        sample_paths_fixed_time(g, 0, bad, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need finite level > 0"):
        sample_paths_inverse_local_time(g, 0, 2, bad, 10, np.random.default_rng(0))


def test_jump_table_matches_dense_rule():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        rates = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
        rates[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        np.fill_diagonal(rates, 0.0)
        gen = validate_generator(rates)
        table = jump_table(gen)
        cum = np.cumsum(rates / rates.sum(axis=1, keepdims=True), axis=1)
        assert table.targets.shape == table.thresholds.shape
        assert table.targets.shape == ((rates > 0).sum(axis=1).max(), n)
        state = rng.integers(0, n, 20_000)
        u = rng.random(20_000)
        # draws exactly on a threshold go to the next target
        u[:2_000] = cum[state[:2_000], rng.integers(0, n, 2_000)]
        dense = (u[:, None] >= cum[state]).sum(axis=1)
        inside = dense < n
        assert np.array_equal(table.step(state, u)[inside], dense[inside])
        assert np.all(rates[state, table.step(state, u)] > 0)


def test_jump_table_state_without_out_jumps():
    # state 2 is absorbing: its column has itself as the only target
    gen = validate_generator([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    table = jump_table(gen)
    assert table.exit_rates[2] == 0.0
    assert np.all(table.thresholds[:, 2] == np.inf)
    assert np.all(table.targets[:, 2] == 2)
    assert np.all(table.step(np.full(3, 2), np.array([0.0, 0.5, 0.999])) == 2)
    # a fixed-time path that reaches it sits there until the horizon
    batch = sample_paths_fixed_time(gen, 0, 3.0, 2_000, np.random.default_rng(4))
    stuck = batch.endpoints == 2
    assert stuck.any()
    assert np.allclose(batch.local_times.sum(axis=1), 3.0, rtol=1e-12)
    assert np.all(batch.local_times[stuck, 2] > 0)


def test_jump_table_row_summing_below_one():
    # state 0 jumps with probabilities 0.1/0.6, 0.2/0.6, 0.3/0.6, whose
    # cumulative sum rounds to 1 - 2^-53
    rates = np.zeros((4, 4))
    rates[0, 1:] = [0.1, 0.2, 0.3]
    rates[1:, 0] = 1.0
    gen = validate_generator(rates)
    cum = np.cumsum(gen.off_diagonal()[0] / gen.exit_rates()[0])
    assert cum[-1] < 1.0
    u = np.array([cum[-1], np.nextafter(1.0, 0.0)])
    # the dense rule maps these draws past the last state
    assert np.all((u[:, None] >= cum).sum(axis=1) == 4)
    assert np.all(jump_table(gen).step(np.zeros(2, dtype=np.int64), u) == 3)


# ---------------------------------------------------------------------------
# inverse local time on the jump chain
# ---------------------------------------------------------------------------

def test_inverse_local_time_matches_event_driven_reference():
    # two-sample check against the event-driven reference: KS on each
    # non-pivot local time (p > 1e-3) and a z-test on the mean jump count
    # (|z| < 4), on fixed seeds
    start, pivot, level = 0, 2, 1.5
    n_batch, n_ref = 20_000, 4_000
    batch = sample_paths_inverse_local_time(FOUR_STATE, start, pivot, level, n_batch,
                                            np.random.default_rng(21))
    rng = np.random.default_rng(22)
    ref = [_event_driven_inverse_local_time(FOUR_STATE, start, pivot, level, rng)
           for _ in range(n_ref)]
    ref_local = np.array([local for local, _ in ref])
    for x in (0, 1, 3):
        assert stats.ks_2samp(batch.local_times[:, x], ref_local[:, x]).pvalue > 1e-3
    ref_jumps = np.array([jumps for _, jumps in ref], dtype=float)
    z = (batch.jumps.mean() - ref_jumps.mean()) / math.sqrt(
        batch.jumps.var(ddof=1) / n_batch + ref_jumps.var(ddof=1) / n_ref)
    assert abs(z) < 4.0
    assert np.all(batch.local_times[:, pivot] == level)
    assert np.array_equal(batch.horizons, batch.local_times.sum(axis=1))


def test_inverse_local_time_exact_means_from_pivot():
    # started at the pivot b, E[l_x] = level * pi_x / pi_b with pi stationary
    pivot, level, n = 1, 2.0, 100_000
    pi = linalg.null_space(FOUR_STATE.rates.T)[:, 0]
    pi /= pi.sum()
    batch = sample_paths_inverse_local_time(FOUR_STATE, pivot, pivot, level, n,
                                            np.random.default_rng(23))
    for x in (0, 2, 3):
        lx = batch.local_times[:, x]
        z = (lx.mean() - level * pi[x] / pi[pivot]) / (lx.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 4.0


# digests taken from the path-major sampler that preceded the site-major
# buffer: the layout moved, no draw and no output bit did
@pytest.mark.parametrize("gen, start, pivot, level, n_paths, seed, digest", [
    (srw_generator(-1, 3), 0, 2, 1.0, 10_000, 41,
     "24fafa4f66c045d3683a706a9dd09d2af7d4d59dcdf11ea35aadab05245e3153"),
    (FOUR_STATE, 0, 2, 1.5, 10_000, 42,
     "2e202e729bc11b4ea62ddf011e5d1b85f01e2801a479a6d7f1f9a46b0914e88b"),
    (FOUR_STATE, 1, 1, 2.0, 10_000, 43,
     "5f08b5e253cbee120af25c503ca261161f2e21afd5f255c27c1e21ce6a807a01"),
    (srw_generator(-1, 3), 0, 2, 1.0, 1, 44,
     "cdd05b38d591cfb6ee377c023a3103954b12cf4e5ef2d9398a0fd585998f748a"),
], ids=["srw", "four-state", "at-pivot", "one-path"])
def test_inverse_local_time_output_pinned(gen, start, pivot, level, n_paths, seed, digest):
    batch = sample_paths_inverse_local_time(gen, start, pivot, level, n_paths,
                                            np.random.default_rng(seed))
    assert _digest(batch) == digest


@pytest.mark.parametrize("gen", [FOUR_STATE, srw_generator(-4, 6)], ids=["four-state", "srw-11"])
@pytest.mark.parametrize("n_paths", [0, 1, 500])
def test_inverse_local_time_output_layout(gen, n_paths):
    # site-major buffer, returned transposed: one contiguous column per state
    batch = sample_paths_inverse_local_time(gen, 0, 2, 1.0, n_paths, np.random.default_rng(6))
    assert batch.local_times.shape == (n_paths, gen.n_states)
    assert batch.local_times.flags.f_contiguous
    assert batch.endpoints.shape == batch.jumps.shape == batch.horizons.shape == (n_paths,)
    assert batch.endpoints.dtype == batch.jumps.dtype == np.int64
    assert batch.horizons.tobytes() == batch.local_times.sum(axis=1).tobytes()


def test_inverse_local_time_replays_bit_for_bit():
    g = srw_generator(-4, 6)
    first, second = (sample_paths_inverse_local_time(g, 0, 2, 1.0, 5_000,
                                                     np.random.default_rng(5))
                     for _ in range(2))
    assert _digest(first) == _digest(second)


def test_inverse_local_time_absorbing_pivot():
    # 0 -> 1 -> 2 with 2 absorbing: every path stops on its first visit to 2
    gen = validate_generator([[0.0, 2.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    n = 50_000
    batch = sample_paths_inverse_local_time(gen, 0, 2, 0.7, n, np.random.default_rng(8))
    assert np.all(batch.local_times[:, 2] == 0.7)
    assert np.all(batch.jumps == 2)
    assert np.all(batch.endpoints == 2)
    for x, rate in ((0, 2.0), (1, 0.5)):
        lx = batch.local_times[:, x]
        assert np.all(lx > 0)
        assert abs(lx.mean() - 1.0 / rate) < 4.0 / rate / math.sqrt(n)
    # started at the absorbing pivot: no jump, l(pivot) = level
    at_pivot = sample_paths_inverse_local_time(gen, 2, 2, 0.7, 10, np.random.default_rng(9))
    assert np.all(at_pivot.jumps == 0)
    assert np.all(at_pivot.local_times == [0.0, 0.0, 0.7])
    assert np.all(at_pivot.horizons == 0.7)


def test_inverse_local_time_absorbed_away_from_pivot():
    # from 0 half the jumps go to the absorbing state 2, the pivot is 1
    gen = validate_generator([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(BudgetExceededError, match="absorbed in 2"):
        sample_paths_inverse_local_time(gen, 0, 1, 1.0, 100, np.random.default_rng(10))
    with pytest.raises(BudgetExceededError, match="absorbed in 2"):
        sample_paths_inverse_local_time(gen, 2, 1, 1.0, 100, np.random.default_rng(11))


def test_inverse_local_time_round_budget():
    # the pivot 2 is unreachable from 0 and nothing absorbs
    gen = validate_generator([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(BudgetExceededError, match="after 50 rounds"):
        sample_paths_inverse_local_time(gen, 0, 2, 1.0, 10, np.random.default_rng(12),
                                        max_rounds=50)
