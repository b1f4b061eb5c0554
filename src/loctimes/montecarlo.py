"""Exact path sampling, the library's one path simulator.

A batch of paths advances one jump per round, with finished paths dropped
from the working set.  Jumps come from a :class:`JumpTable`: each state's
nonzero targets with their cumulative probabilities, so a jump costs one
uniform and one gather-and-compare per extra target.

* Fixed horizon: an exponential holding time is drawn each round and the
  local times accumulate exact sojourn lengths, never a time discretization.
  The paths run in blocks of ``_BLOCK``, in path order, each block to the
  horizon before the next starts, so that a block's working arrays stay in
  cache; a batch of at most ``_BLOCK`` paths is one block.  A round draws
  the holds of the block's paths still running, clips each at the time
  left, and adds it into the block's slice of one flat path-major
  accumulator at ``path * n + state``.  A path whose hold reaches the
  horizon ends there: its endpoint and jump count (the round number) are
  written once, then.  The round finds the ended and the kept paths with
  one index pass each and compacts every working array with the same kept
  indices.  Only the kept paths draw a uniform and jump.  The first round
  uses that every path of a block starts in the start state at time 0: its
  holds are divided by one exit rate and compared with T itself, written
  into the start state's column of the zero-filled accumulator, its kept
  paths are one index pass, and their first jump compares the uniforms with
  the start column's thresholds, so it gathers and scatters nothing and
  draws exactly as the general round would.  A batch still running after
  ``_MAX_ROUNDS`` rounds (a horizon too long for the chain's jump rates)
  raises :class:`BudgetExceededError`, and both samplers refuse a batch that
  could only end so before any draw (:func:`_refuse_hopeless`): where T
  min(q), over the states the start can reach, is twice the budget or more
  (so no reachable exit rate is 0), or, for the inverse sampler, q_b * level
  is.  One workspace per request
  (:class:`_FixedTimeSampler`) holds the jump table and the round buffers,
  which every block and round fill with ``out=``, so a request allocates
  them once, not once per block and round.
* Fixed horizon in seeded chunks: :func:`fixed_time_chunks` splits a request
  into chunks of ``_BLOCK`` paths, draws chunk k from its own stream,
  ``default_rng(SeedSequence(seed).spawn(n_chunks)[k])``, and reduces each
  chunk as it is drawn, so a reduction over a large request needs memory for
  one block per lane.  No chunk's draws depend on another's, so the chunks
  run on two lanes (the calling thread and one worker thread per call) where
  the process may use two CPUs, and the reductions come back in chunk order
  whatever the schedule: chunk k is ``sample_paths_fixed_time`` of its size
  on its own stream, bit for bit.
* Inverse local time: the jump-chain/holding-time split (Norris, *Markov
  Chains*, 1997, section 2.6).  The number of pivot visits is drawn first,
  ``1 + Poisson(q_b * level)``; the rounds run only the discrete jump chain,
  counting visits per state; each non-pivot local time is then one
  ``Gamma(visits, 1 / q)`` draw, and the pivot's is ``level`` exactly.

The two samplers lay their output out for the way they write it.  The
fixed-time rounds scatter each hold into one path's row, so that sampler
keeps a path-major (C-ordered) ``(n_paths, n)`` array and its blocks are
contiguous slices of it.  The inverse sampler writes a whole state at once
(its visit counts, its Gamma draw), so it fills a site-major ``(n, n_paths)``
buffer, one contiguous row per state, and returns its transpose: the same
``(n_paths, n)`` shape, Fortran-ordered, whose column for a state reads as a
contiguous vector; its horizons are those rows added in state order.

Each sampler draws from one stream in a fixed order (for the fixed horizon,
block after block), and the chunks of :func:`fixed_time_chunks` each from
their own, so a seed reproduces every emitted number bit for bit.  Both
samplers raise ``ValueError`` on an ``n_paths`` that is negative or not
an integer.
"""

import copy
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, TypeVar

import numpy as np

from .chain import Generator, _reach
from .errors import BudgetExceededError

Reduced = TypeVar("Reduced")

# paths per block of the fixed-time sampler: a block's working arrays and its
# slice of the accumulator stay near a core's L2 cache, whereas one pass over a
# million paths streams each of them through memory every round.  A batch of at
# most this many paths is one block, drawn exactly as an unblocked run.
_BLOCK = 1 << 16

# rounds (one jump each) that a batch of either sampler may run before it
# raises BudgetExceededError: a horizon, or a level at a pivot, that the chain
# would take more jumps than this to reach is refused rather than run on
_MAX_ROUNDS = 2_000_000


@dataclass
class BatchPaths:
    """Local times (one row per path), endpoints and jump counts.

    A chunk that :func:`fixed_time_chunks` hands to a reduction is a set of
    views of buffers that the lane's next chunk overwrites; copy it to keep
    it.

    ``local_times`` is C-ordered from the fixed-time sampler and the
    Fortran-ordered transpose of a site-major buffer from the inverse
    sampler; reductions over it that must not depend on the sampler should
    run on ``np.ascontiguousarray(local_times)``.
    """

    local_times: np.ndarray    # (n_paths, n_states)
    endpoints: np.ndarray      # (n_paths,) state indices
    jumps: np.ndarray          # (n_paths,)
    horizons: np.ndarray       # (n_paths,) elapsed time at stop


@dataclass(frozen=True)
class JumpTable:
    """Jump law of every state, one column per state.

    Column x lists the targets y with P(x -> y) > 0 in label order and the
    cumulative jump probabilities up to each target; from the last target on
    the thresholds are +inf, so a uniform never maps past the last target.
    A state with no out-jumps has itself as its only target.
    """

    exit_rates: np.ndarray     # (n,)
    thresholds: np.ndarray     # (max out-degree, n)
    targets: np.ndarray        # (max out-degree, n) state indices

    def step(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next states of paths in ``state`` given one uniform each."""
        depth, n = self.targets.shape
        flat = state.copy()
        for k in range(depth - 1):
            flat += n * (u >= self.thresholds[k][state])
        return self.targets.ravel()[flat]


def jump_table(gen: Generator) -> JumpTable:
    """The :class:`JumpTable` of a generator, built from the cumulative
    jump probabilities so that a uniform selects the same target as the
    dense rule ``(u >= cum[x]).sum()`` wherever that rule is in range."""
    exit_rates = gen.exit_rates()
    with np.errstate(invalid="ignore", divide="ignore"):
        P = np.where(exit_rates[:, None] > 0,
                     gen.off_diagonal() / exit_rates[:, None], 0.0)
    cum = np.cumsum(P, axis=1)
    n = gen.n_states
    # a target is reachable where the cumulative sum strictly increases
    reachable = np.diff(cum, axis=1, prepend=0.0) > 0
    depth = max(1, int(reachable.sum(axis=1).max()))
    thresholds = np.full((depth, n), np.inf)
    targets = np.tile(np.arange(n), (depth, 1))
    for x in range(n):
        ys = np.flatnonzero(reachable[x])
        if ys.size:
            thresholds[: ys.size - 1, x] = cum[x, ys[:-1]]
            targets[: ys.size, x] = ys
    return JumpTable(exit_rates=exit_rates, thresholds=thresholds, targets=targets)


def _path_count(value, name: str = "n_paths") -> int:
    """``value`` as a Python int, or ``ValueError`` naming the argument
    ``name`` if it is negative, a bool or not integral (any other integer
    type, numpy's included, is accepted)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {count}")
    return count


def _refuse_hopeless(n_paths: int, least_mean_jumps: float, what: str) -> None:
    """Raise :class:`BudgetExceededError` before any draw when there are
    paths, each makes at least Poisson(``least_mean_jumps``) jumps, and that
    mean is twice the round budget or more: the rounds could then only end in
    the same error, after a long run."""
    if n_paths and least_mean_jumps >= 2 * _MAX_ROUNDS:
        raise BudgetExceededError(
            f"{n_paths} paths refused before drawing: {what} needs at least "
            f"Poisson({least_mean_jumps:.3g}) jumps per path, a mean of twice the "
            f"budget of {_MAX_ROUNDS} rounds or more")


class _FixedTimeSampler:
    """The workspace of one fixed-time request: the jump table, built once,
    and the round buffers of :meth:`run`, ``min(_BLOCK, n_paths)`` long, of
    which each block uses prefixes.  :meth:`run` starts a block with a
    first round specialised to the shared start state (no per-path rate,
    time left or scatter, and first jumps read off the start state's
    column), whose kept paths, elapsed times and states seed the working
    set.  The compacted working set
    (path index, state, elapsed time) then alternates between the two rows
    of its buffers, so a round gathers the kept paths into the row it is not
    reading.  A block still running after ``_MAX_ROUNDS`` rounds raises
    :class:`BudgetExceededError` with the number of paths left, and a
    request that could only end so is refused here (:func:`_refuse_hopeless`).

    ``ValueError`` for a horizon that is not finite and positive or a bad
    ``n_paths``; an unknown start raises from ``gen.index``."""

    def __init__(self, gen: Generator, start, T: float, n_paths) -> None:
        if not (math.isfinite(T) and T > 0):
            raise ValueError("need finite T > 0")
        self.n_paths = _path_count(n_paths)
        self.s0 = gen.index(start)
        self.T = T
        self.table = jump_table(gen)
        q = self.table.exit_rates
        self.absorbing = bool(np.any(q <= 0))
        if self.n_paths and T * float(q.max()) >= 2 * _MAX_ROUNDS:
            # only a horizon this long can be hopeless, so only such a request
            # pays for the search; a path visits only the states the start
            # reaches, and one of them with exit rate 0 may end it at once
            jumps = np.zeros((q.size, q.size), dtype=bool)
            jumps[np.arange(q.size), self.table.targets] = True
            reachable = [x for x, p in enumerate(_reach(jumps, [self.s0])) if p is not None]
            _refuse_hopeless(self.n_paths, T * float(q[reachable].min()),
                             f"horizon T = {T!r}")
        self._allocate()

    def _allocate(self) -> None:
        """The round buffers of :meth:`run`, ``min(_BLOCK, n_paths)`` long."""
        m = min(_BLOCK, self.n_paths)
        self._hold, self._rate, self._remaining, self._u = np.empty((4, m))
        self._done = np.empty(m, dtype=bool)
        self._flat = np.empty(m, dtype=np.int64)
        self._alive = np.empty((2, m), dtype=np.int64)
        self._state = np.empty((2, m), dtype=np.int64)
        self._elapsed = np.empty((2, m))

    def run(self, rng: np.random.Generator, local: np.ndarray,
            endpoints: np.ndarray, jumps: np.ndarray) -> None:
        """Run the paths of one block (at most ``_BLOCK``), all started in
        the start state, to the horizon, writing into the block's view of the
        zero-filled flat accumulator and into its endpoints and jump counts,
        prefilled with the start state and 0."""
        exit_rates = self.table.exit_rates
        n = exit_rates.size
        T = self.T
        s0 = self.s0
        m = endpoints.size

        # round 0: every path holds in s0 from time 0, so the rate, the time
        # left and the accumulator's column are the same for all of them
        hold = rng.standard_exponential(out=self._hold[:m])
        q0 = exit_rates[s0]
        if q0 > 0:
            hold /= q0
        else:
            hold.fill(np.inf)
        done = np.greater_equal(hold, T, out=self._done[:m])
        np.minimum(hold, T, out=hold)
        local[s0::n] = hold
        alive = np.flatnonzero(np.logical_not(done, out=done))
        k = alive.size
        if k == 0:
            return
        elapsed = np.take(hold, alive, out=self._elapsed[1, :k], mode="clip")
        u = rng.random(out=self._u[:k])
        targets, thresholds = self.table.targets[:, s0], self.table.thresholds[:, s0]
        state = self._state[1, :k]
        state.fill(targets[0])
        # the thresholds increase along the column, so the last one that a
        # uniform reaches names its target
        for d in range(thresholds.size - 1):
            if not math.isfinite(thresholds[d]):
                break
            np.copyto(state, targets[d + 1],
                      where=np.greater_equal(u, thresholds[d], out=self._done[:k]))
        to = 0  # the row the next compaction gathers into

        rounds = 1
        while alive.size:
            k = alive.size
            if rounds >= _MAX_ROUNDS:
                raise BudgetExceededError(
                    f"{k} paths still running after {_MAX_ROUNDS} rounds; "
                    f"horizon T = {T!r} is too long for the chain's jump rates")
            hold = rng.standard_exponential(out=self._hold[:k])
            rate = np.take(exit_rates, state, out=self._rate[:k], mode="clip")
            if self.absorbing:
                with np.errstate(divide="ignore"):
                    hold[:] = np.where(rate > 0, hold / rate, np.inf)
            else:
                hold /= rate
            remaining = np.subtract(T, elapsed, out=self._remaining[:k])
            done = np.greater_equal(hold, remaining, out=self._done[:k])
            np.minimum(hold, remaining, out=hold)
            flat = np.multiply(alive, n, out=self._flat[:k])
            flat += state
            np.add.at(local, flat, hold)
            elapsed += hold
            ended = np.flatnonzero(done)
            if ended.size:
                who = alive[ended]
                endpoints[who] = state[ended]
                jumps[who] = rounds
                kept = np.flatnonzero(np.logical_not(done, out=done))
                j = kept.size
                # mode="clip" (the indices are in range) lets take write into
                # ``out`` directly; under the default "raise" it buffers a copy
                alive = np.take(alive, kept, out=self._alive[to, :j], mode="clip")
                state = np.take(state, kept, out=self._state[to, :j], mode="clip")
                elapsed = np.take(elapsed, kept, out=self._elapsed[to, :j], mode="clip")
                to ^= 1
                if j == 0:
                    break
            state = self.table.step(state, rng.random(out=self._u[:alive.size]))
            rounds += 1

    def twin(self) -> "_FixedTimeSampler":
        """A second workspace of the same request: the same checks and jump
        table, and round buffers of its own, allocated by the caller."""
        twin = copy.copy(self)
        twin._allocate()
        return twin


def sample_paths_fixed_time(
    gen: Generator, start, T: float, n_paths: int, rng: np.random.Generator
) -> BatchPaths:
    """Simulate ``n_paths`` trajectories on [0, T], in blocks of ``_BLOCK``
    paths run one after another from the one ``rng`` into slices of the
    whole batch's outputs."""
    sampler = _FixedTimeSampler(gen, start, T, n_paths)
    n_paths, n = sampler.n_paths, gen.n_states
    local = np.zeros(n_paths * n)
    endpoints = np.full(n_paths, sampler.s0, dtype=np.int64)
    jumps = np.zeros(n_paths, dtype=np.int64)
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        sampler.run(rng, local[lo * n:hi * n], endpoints[lo:hi], jumps[lo:hi])
    return BatchPaths(
        local_times=local.reshape(n_paths, n),
        endpoints=endpoints,
        jumps=jumps,
        horizons=np.full(n_paths, float(T)),
    )


class _Lane:
    """One lane of :func:`fixed_time_chunks`: a sampler workspace and one
    block's outputs, all allocated on the thread that makes the lane, so a
    worker thread that runs the lane keeps none of them in its own heap."""

    def __init__(self, sampler: _FixedTimeSampler) -> None:
        self.sampler = sampler
        m, n = sampler._hold.size, sampler.table.exit_rates.size
        self.local = np.empty(m * n)
        self.endpoints = np.empty(m, dtype=np.int64)
        self.jumps = np.empty(m, dtype=np.int64)
        self.horizons = np.full(m, float(sampler.T))

    def draw(self, k: int, seed: np.random.SeedSequence) -> BatchPaths:
        """Chunk ``k`` of the request, drawn from ``default_rng(seed)`` into
        this lane's outputs, as views of them."""
        sampler = self.sampler
        n = sampler.table.exit_rates.size
        size = min(_BLOCK, sampler.n_paths - k * _BLOCK)
        local = self.local[:size * n]
        local.fill(0.0)
        self.endpoints[:size] = sampler.s0
        self.jumps[:size] = 0
        sampler.run(np.random.default_rng(seed), local, self.endpoints[:size],
                    self.jumps[:size])
        return BatchPaths(local_times=local.reshape(size, n),
                          endpoints=self.endpoints[:size], jumps=self.jumps[:size],
                          horizons=self.horizons[:size])


def _lane_count() -> int:
    """Lanes for :func:`fixed_time_chunks`: 2 where the process may run on 2
    or more CPUs, else 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def fixed_time_chunks(
    gen: Generator, start, T: float, n_paths: int, seed,
    reduce: Callable[[BatchPaths], Reduced],
) -> List[Reduced]:
    """``reduce`` of each chunk of a fixed-time request, in chunk order.

    The ``n_paths`` paths are split into chunks of ``_BLOCK`` (the last one
    partial), and chunk k is ``sample_paths_fixed_time(gen, start, T, size_k,
    default_rng(SeedSequence(seed).spawn(n_chunks)[k]))`` bit for bit.  A
    chunk is handed to ``reduce`` as views of its lane's outputs, valid only
    during that call, so memory is one block per lane whatever ``n_paths``.

    The chunks run on two lanes where the process may use two CPUs (else on
    one): the calling thread and one worker thread, started for this call
    and joined before it returns, each taking the next chunk from one shared
    counter.  ``reduce`` must therefore be safe to call from both at once.
    As no chunk reads another's draws, the results do not depend on the
    lane count or the schedule.  The arguments are checked, the jump table
    built and a hopeless request refused on the calling thread before any
    draw or thread.  A chunk that raises stops the lanes from taking new
    chunks, and after the join the error of the lowest failed chunk is
    raised: the one that a single lane, taking the chunks in order, raises.
    """
    sampler = _FixedTimeSampler(gen, start, T, n_paths)
    n_chunks = -(-sampler.n_paths // _BLOCK)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    lanes = [_Lane(sampler)]
    if min(_lane_count(), n_chunks) >= 2:
        lanes.append(_Lane(sampler.twin()))
    results: List[Reduced] = [None] * n_chunks
    errors = {}
    lock = threading.Lock()
    taken = iter(range(n_chunks))
    stop = threading.Event()

    def run_lane(lane: _Lane) -> None:
        while not stop.is_set():
            with lock:
                k = next(taken, None)
            if k is None:
                return
            try:
                results[k] = reduce(lane.draw(k, seeds[k]))
            except Exception as exc:
                errors[k] = exc
                stop.set()

    if len(lanes) == 1:
        run_lane(lanes[0])
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(run_lane, lanes[1])
            try:
                run_lane(lanes[0])
            finally:
                stop.set()          # an interrupt here stops the worker too
                pending.result()
    if errors:
        raise errors[min(errors)]
    return results


def sample_paths_inverse_local_time(
    gen: Generator,
    start,
    pivot,
    level: float,
    n_paths: int,
    rng: np.random.Generator,
) -> BatchPaths:
    """Simulate paths until the local time at the pivot first reaches the
    level; l(pivot) == level exactly on every path.

    The local time at the pivot is a Poisson clock of rate q_b for leaving
    it, so a path makes ``N = 1 + Poisson(q_b * level)`` pivot visits and
    stops during the N-th; an absorbing pivot stops every path at its first
    visit.  A path that reaches an absorbing state other than the pivot
    raises :class:`BudgetExceededError`, as does a batch with paths still
    running after ``_MAX_ROUNDS`` rounds (one jump each) and, before any
    draw, a batch whose q_b * level is twice that budget or more.
    """
    if not (math.isfinite(level) and level > 0):
        raise ValueError("need finite level > 0")
    n_paths = _path_count(n_paths)
    table = jump_table(gen)
    exit_rates = table.exit_rates
    n = gen.n_states
    s0 = gen.index(start)
    b = gen.index(pivot)
    trap = (exit_rates <= 0) & (np.arange(n) != b)

    def check_absorbed(state):
        if trap[state].any():
            x = gen.states[int(state[np.argmax(trap[state])])]
            raise BudgetExceededError(
                f"absorbed in {x!r} before reaching level at the pivot")

    _refuse_hopeless(n_paths, float(exit_rates[b]) * level,
                     f"level {level!r} at the pivot {pivot!r}")
    pivot_visits_left = 1 + rng.poisson(exit_rates[b] * level, n_paths)
    visits = np.zeros(n * n_paths, dtype=np.int32)
    state = np.full(n_paths, s0, dtype=np.int64)
    alive = np.arange(n_paths)
    check_absorbed(state[:1])
    check_traps = bool(trap.any())

    rounds = 0
    while alive.size:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise BudgetExceededError(
                f"{alive.size} paths still running after {_MAX_ROUNDS} rounds; "
                "pivot likely unreachable"
            )
        visits[state * n_paths + alive] += 1
        pivot_visits_left -= state == b
        keep = pivot_visits_left > 0
        if not keep.all():
            alive = alive[keep]
            state = state[keep]
            pivot_visits_left = pivot_visits_left[keep]
            if alive.size == 0:
                break
        state = table.step(state, rng.random(alive.size))
        if check_traps:
            check_absorbed(state)

    visits = visits.reshape(n, n_paths)
    local = np.zeros((n, n_paths))
    for x in range(n):
        if x == b:
            local[x] = level
        elif exit_rates[x] > 0:
            # Gamma(v, 1/q) is (1/q) Gamma(v, 1) per draw: the same values from
            # the same draws, without the two-argument broadcast
            rng.standard_gamma(visits[x], out=local[x])
            local[x] *= 1.0 / exit_rates[x]
    return BatchPaths(
        local_times=local.T,
        endpoints=np.full(n_paths, b, dtype=np.int64),
        jumps=visits.sum(axis=0, dtype=np.int64) - 1,
        horizons=local.sum(axis=0),
    )
