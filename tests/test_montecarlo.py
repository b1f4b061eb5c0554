"""Batch samplers: the shared jump table, the fixed-time output it must leave
unchanged, the fixed-time sampler's block order and one workspace per
request, the chunk engine (one seeded stream per chunk, two lanes, results
independent of the schedule), and the jump-chain inverse-local-time sampler
(its pinned output, its site-major layout, and its law against an
event-driven reference simulator kept in this module)."""

import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import linalg, stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from loctimes.chain import _reach, srw_generator, validate_generator
from loctimes import montecarlo
from loctimes.errors import BudgetExceededError, UnknownLabelError
from loctimes.montecarlo import (
    _BLOCK,
    fixed_time_chunks,
    jump_table,
    sample_paths_fixed_time,
    sample_paths_inverse_local_time,
)
from loctimes.rayknight import sample_rk_profile_batch

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


def _size(batch) -> int:
    return batch.endpoints.size


def _child_rngs(seed, n_chunks):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_chunks)]


def _never_reduced(batch):
    raise AssertionError("a chunk was drawn")


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


def _set_lanes(monkeypatch, lanes):
    """Run the chunk engine on ``lanes`` lanes, whatever the CPUs."""
    monkeypatch.setattr(montecarlo, "_lane_count", lambda: lanes)


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


@pytest.mark.parametrize("gen", [FOUR_STATE, ABSORBING], ids=["four-state", "absorbing"])
@pytest.mark.parametrize("n_paths", [0, 1, _BLOCK, 2 * _BLOCK + 17])
def test_fixed_time_block_iterator_is_the_whole_batch(monkeypatch, gen, n_paths):
    # the chunks are _BLOCK paths each and the rest last, in chunk order;
    # chunk k is the whole-batch sampler of its size on child k of the seed,
    # byte for byte, on one lane or two.  A chunk is valid during its
    # reduction only, so its bytes are taken there
    full, rest = divmod(n_paths, _BLOCK)
    sizes = [_BLOCK] * full + [rest] * (rest > 0)
    expected = [(size, _bytes(sample_paths_fixed_time(gen, 0, 3.0, size, rng)))
                for size, rng in zip(sizes, _child_rngs(41, len(sizes)))]
    for lanes in (1, 2):
        _set_lanes(monkeypatch, lanes)
        assert fixed_time_chunks(gen, 0, 3.0, n_paths, 41,
                                 lambda b: (b.local_times.shape[0], _bytes(b))) == expected


# the first round runs every path from the start state at once: digests of
# the round-by-round kernel on cases where that round ends every path (a start
# in an absorbing state, local time T there), most paths (a short horizon) or
# few, across two full blocks and a partial one, whole and chunk by chunk
@pytest.mark.parametrize("gen, start, T, seed, digest", [
    (ABSORBING, 2, 3.0, 50,
     "6d0f5e91cea7f1028a0be2ffd100c5560c0387ed31928f9914a09c5eb39a3584"),
    (FOUR_STATE, 1, 0.05, 51,
     "2ac2a67a5385f8a076d3176aecccf250e97a05f205c32afe459078f8c12ef850"),
    (srw_generator(0, 2), 1, 2.0, 52,
     "a50e8ce21e70ea4c2727365e5f2eeab82f2811cbfe1ce06d6ab0ab7e2b0bacf9"),
], ids=["absorbing-start", "four-state-short", "srw-middle"])
def test_fixed_time_first_round_output_pinned(gen, start, T, seed, digest):
    n_paths = 2 * _BLOCK + 17
    batch = sample_paths_fixed_time(gen, start, T, n_paths, np.random.default_rng(seed))
    assert _digest(batch) == digest
    # the chunk engine runs the same first round on each chunk's own stream
    chunks = fixed_time_chunks(gen, start, T, n_paths, seed, _digest)
    sizes = [_BLOCK, _BLOCK, 17]
    assert chunks == [_digest(sample_paths_fixed_time(gen, start, T, size, rng))
                      for size, rng in zip(sizes, _child_rngs(seed, 3))]


def test_fixed_time_absorbing_start_ends_in_the_first_round():
    batch = sample_paths_fixed_time(ABSORBING, 2, 3.0, 1000, np.random.default_rng(53))
    assert np.all(batch.local_times == [0.0, 0.0, 3.0])
    assert np.all(batch.endpoints == 2) and np.all(batch.jumps == 0)


def test_fixed_time_rounds_are_budgeted(monkeypatch):
    # about 10^6 jumps to the horizon, against a budget of 50 rounds: refused
    # before drawing
    monkeypatch.setattr(montecarlo, "_MAX_ROUNDS", 50)
    g = srw_generator(0, 2)
    with pytest.raises(BudgetExceededError, match="3 paths refused before drawing"):
        sample_paths_fixed_time(g, 0, 1e6, 3, np.random.default_rng(0))
    with pytest.raises(BudgetExceededError, match="budget of 50 rounds"):
        fixed_time_chunks(g, 0, 1e6, 3, 0, _never_reduced)
    # T q_min = 90 is below twice the budget, so the rounds run out instead
    # (each path makes about 120 jumps)
    with pytest.raises(BudgetExceededError, match="3 paths still running after 50 rounds"):
        sample_paths_fixed_time(g, 0, 90.0, 3, np.random.default_rng(0))


def test_hopeless_batches_are_refused_before_drawing():
    g = srw_generator(0, 2)
    calls = [
        lambda rng: sample_paths_fixed_time(g, 0, 1e308, 2, rng),
        lambda rng: fixed_time_chunks(g, 0, 1e308, 2, 0, _never_reduced),
        lambda rng: sample_paths_inverse_local_time(g, 0, 2, 1e308, 2, rng),
    ]
    for call in calls:
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="2 paths refused before drawing"):
            call(rng)
        assert time.perf_counter() - start < 1.0
        # nothing was drawn
        assert rng.random() == np.random.default_rng(0).random()
    # no paths, nothing to refuse
    assert sample_paths_fixed_time(g, 0, 1e308, 0, np.random.default_rng(0)).endpoints.size == 0
    # an absorbing state ends paths at any horizon, so nothing is refused
    batch = sample_paths_fixed_time(ABSORBING, 0, 1e308, 100, np.random.default_rng(54))
    assert np.all(batch.endpoints == 2)
    assert batch.local_times.sum(axis=1) == pytest.approx(np.full(100, 1e308), rel=1e-12)


def test_unreachable_absorbing_state_does_not_lift_the_refusal():
    # state 2 has exit rate 0 but the start cannot reach it, so the paths
    # jump about T times each, as on a chain without it
    isolated = validate_generator([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for call in (lambda rng: sample_paths_fixed_time(isolated, 0, 1e308, 2, rng),
                 lambda rng: fixed_time_chunks(isolated, 0, 1e308, 2, 0, _never_reduced)):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="2 paths refused before drawing"):
            call(rng)
        assert time.perf_counter() - start < 1.0
        assert rng.random() == np.random.default_rng(0).random()
    # from the absorbing state itself the paths end at once
    batch = sample_paths_fixed_time(isolated, 2, 1e308, 3, np.random.default_rng(0))
    assert np.all(batch.endpoints == 2) and np.all(batch.jumps == 0)


def test_fixed_time_blocks_reuse_one_set_of_outputs(monkeypatch):
    # every chunk a lane draws is written into that lane's one set of output
    # buffers, so a request holds one block of outputs per lane
    for lanes in (1, 2):
        _set_lanes(monkeypatch, lanes)
        seen = []
        fixed_time_chunks(FOUR_STATE, 0, 3.0, 5 * _BLOCK + 17, 42,
                          lambda b: seen.append((b.local_times, b.endpoints, b.jumps)))
        assert len(seen) == 6
        buffers = []
        for arrays in seen:
            if not any(all(np.shares_memory(a, b) for a, b in zip(arrays, kept))
                       for kept in buffers):
                buffers.append(arrays)
        assert len(buffers) <= lanes


def test_fixed_time_blocks_build_the_jump_table_once(monkeypatch):
    # once per request, on the calling thread, however many lanes draw
    calls = []

    def counting_jump_table(gen):
        calls.append(threading.current_thread())
        return jump_table(gen)

    monkeypatch.setattr(montecarlo, "jump_table", counting_jump_table)
    for lanes in (1, 2):
        _set_lanes(monkeypatch, lanes)
        calls.clear()
        fixed_time_chunks(FOUR_STATE, 0, 3.0, 2 * _BLOCK + 17, 43, _size)
        assert calls == [threading.current_thread()]


@pytest.mark.parametrize("start, T, n_paths, error", [
    (0, 3.0, -1, ValueError), (0, 3.0, 2.5, ValueError),
    (0, math.nan, 5, ValueError), (9, 3.0, 0, UnknownLabelError),
], ids=["negative", "fractional", "nan-horizon", "unknown-start"])
def test_fixed_time_block_iterator_checks_at_the_call(monkeypatch, start, T, n_paths, error):
    # the arguments are checked before any chunk is drawn or thread started,
    # so a request for no paths with a bad start still fails
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_thread)
    with pytest.raises(error):
        fixed_time_chunks(FOUR_STATE, start, T, n_paths, 0, _never_reduced)


def test_chunk_engine_refuses_a_hopeless_request_before_any_thread(monkeypatch):
    _set_lanes(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_thread)
    with pytest.raises(BudgetExceededError, match="refused before drawing"):
        fixed_time_chunks(srw_generator(0, 2), 0, 1e308, 3 * _BLOCK, 0, _never_reduced)


def test_chunk_engine_uses_one_lane_on_one_cpu(monkeypatch):
    # one lane draws every chunk on the calling thread; two run one worker
    _set_lanes(monkeypatch, 1)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_thread)
    threads = set()
    fixed_time_chunks(FOUR_STATE, 0, 1.0, 3 * _BLOCK, 5,
                      lambda b: threads.add(threading.current_thread()))
    assert threads == {threading.current_thread()}


def test_chunk_engine_with_one_chunk_starts_no_thread(monkeypatch):
    _set_lanes(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_thread)
    assert fixed_time_chunks(FOUR_STATE, 0, 1.0, _BLOCK, 5, _size) == [_BLOCK]
    assert fixed_time_chunks(FOUR_STATE, 0, 1.0, 0, 5, _size) == []


def _chunk_index(monkeypatch):
    """Record, per thread, the index of the chunk being reduced."""
    current = threading.local()
    draw = montecarlo._Lane.draw

    def recording_draw(self, k, seed):
        current.k = k
        return draw(self, k, seed)

    monkeypatch.setattr(montecarlo._Lane, "draw", recording_draw)
    return current


@pytest.mark.parametrize("slow", ["calling", "worker"])
def test_chunk_engine_results_do_not_depend_on_the_schedule(monkeypatch, slow):
    # one lane sleeps 0.2 s in each of its reductions, so the other takes
    # most of the chunks: the results, in chunk order, are those of one lane
    _set_lanes(monkeypatch, 1)
    expected = fixed_time_chunks(FOUR_STATE, 0, 2.0, 5 * _BLOCK + 5, 7, _digest)
    _set_lanes(monkeypatch, 2)
    main = threading.current_thread()
    threads = []

    def reduce(batch):
        on_main = threading.current_thread() is main
        threads.append(on_main)
        if on_main == (slow == "calling"):
            time.sleep(0.2)
        return _digest(batch)

    assert fixed_time_chunks(FOUR_STATE, 0, 2.0, 5 * _BLOCK + 5, 7, reduce) == expected
    assert True in threads and False in threads


@pytest.mark.parametrize("lanes, slow", [(1, None), (2, None), (2, "calling"), (2, "worker")])
def test_chunk_engine_raises_the_lowest_failed_chunk(monkeypatch, lanes, slow):
    # chunks 3, 4 and 5 of 6 fail; whichever lane reaches a failure first,
    # the error is chunk 3's, as one lane taking the chunks in order raises,
    # and the lanes take no chunk after a failure has stopped them
    _set_lanes(monkeypatch, lanes)
    current = _chunk_index(monkeypatch)
    main = threading.current_thread()
    reduced = []
    before = threading.active_count()

    def reduce(batch):
        k = current.k
        reduced.append(k)
        if k == 3 and (threading.current_thread() is main) == (slow == "calling"):
            time.sleep(0.2)
        if k >= 3:
            raise ValueError(f"chunk {k}")
        return k

    with pytest.raises(ValueError, match="^chunk 3$"):
        fixed_time_chunks(FOUR_STATE, 0, 1.0, 6 * _BLOCK, 8, reduce)
    assert threading.active_count() == before
    assert set(range(4)) <= set(reduced) <= set(range(6))
    if lanes == 1:
        assert reduced == [0, 1, 2, 3]


def test_chunk_engine_takes_every_chunk_once_under_frequent_switches(monkeypatch):
    # the shared counter hands each of 32 short chunks to exactly one lane
    # while the interpreter switches threads every microsecond
    _set_lanes(monkeypatch, 1)
    expected = fixed_time_chunks(FOUR_STATE, 0, 1e-3, 32 * _BLOCK, 10, _digest)
    _set_lanes(monkeypatch, 2)
    current = _chunk_index(monkeypatch)
    reduced = []

    def reduce(batch):
        reduced.append(current.k)
        return _digest(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert fixed_time_chunks(FOUR_STATE, 0, 1e-3, 32 * _BLOCK, 10, reduce) == expected
    finally:
        sys.setswitchinterval(interval)
    assert sorted(reduced) == list(range(32))


def test_chunk_engine_joins_its_worker(monkeypatch):
    _set_lanes(monkeypatch, 2)
    before = threading.active_count()
    assert fixed_time_chunks(FOUR_STATE, 0, 1.0, 4 * _BLOCK, 9, _size) == [_BLOCK] * 4
    assert threading.active_count() == before


def test_reachable_states_match_the_closure():
    # random supports, with isolated states (no rates in or out) and
    # absorbing ones (no rates out), from every start: the fixed-time
    # refusal's search over the jump table's targets against scipy's
    # breadth-first order on the positive rates
    rng = np.random.default_rng(60)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        rates = np.where(rng.random((n, n)) < rng.uniform(0.05, 0.5), rng.uniform(0.1, 2.0, (n, n)), 0.0)
        np.fill_diagonal(rates, 0.0)
        cut = rng.random(n)
        rates[cut < 0.15, :] = 0.0
        rates[:, cut < 0.15] = 0.0
        rates[(cut >= 0.15) & (cut < 0.3), :] = 0.0
        gen = validate_generator(rates)
        jumps = np.zeros((n, n), dtype=bool)
        jumps[np.arange(n), jump_table(gen).targets] = True
        positive = csr_matrix(gen.off_diagonal() > 0)
        for s0 in range(n):
            order = breadth_first_order(positive, s0, directed=True, return_predecessors=False)
            reached = [x for x, pred in enumerate(_reach(jumps, [s0])) if pred is not None]
            assert reached == sorted(order.tolist()), (trial, s0)


def test_long_path_graph_is_refused_quickly():
    # 2,000 states in a path: the refusal reads the start's reachable states
    # by a search over the jump table, not by squaring a 2,000 x 2,000 closure
    g = srw_generator(0, 1999)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="2 paths refused before drawing"):
        sample_paths_fixed_time(g, 0, 1e308, 2, np.random.default_rng(0))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("shapes", [
    np.array([0, 3, 0, 1, 7, 2], dtype=np.int32),
    np.array([0.0, 1.0, 2.5, 0.0, 4.0]),
], ids=["int", "float"])
@pytest.mark.parametrize("scale", [1.0, 1.0 / 3.7])
def test_standard_gamma_times_scale_is_gamma(shapes, scale):
    # the samplers' one-parameter Gamma draws, scaled after, are numpy's
    # gamma(shape, scale) bit for bit, shape 0 included, and leave the
    # stream where it would: the next draw is the same
    ours, numpys = np.random.default_rng(61), np.random.default_rng(61)
    got = np.empty(shapes.size)
    ours.standard_gamma(shapes, out=got)
    got *= scale
    assert got.tobytes() == numpys.gamma(shapes, scale).tobytes()
    assert ours.random() == numpys.random()


@pytest.mark.parametrize("bad", [-1, 2.5, True])
def test_samplers_reject_bad_path_counts(bad):
    g = srw_generator(0, 2)
    with pytest.raises(ValueError, match="n_paths"):
        sample_paths_fixed_time(g, 0, 1.0, bad, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_paths"):
        sample_paths_inverse_local_time(g, 0, 2, 1.0, bad, np.random.default_rng(0))
    # the profile sampler's pivot b and count n
    with pytest.raises(ValueError, match="^b must"):
        sample_rk_profile_batch(bad, 1.0, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^n must"):
        sample_rk_profile_batch(2, 1.0, 1, bad, np.random.default_rng(0))


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


def test_inverse_local_time_round_budget(monkeypatch):
    # the pivot 2 is unreachable from 0 and nothing absorbs
    monkeypatch.setattr(montecarlo, "_MAX_ROUNDS", 50)
    gen = validate_generator([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(BudgetExceededError, match="after 50 rounds"):
        sample_paths_inverse_local_time(gen, 0, 2, 1.0, 10, np.random.default_rng(12))
