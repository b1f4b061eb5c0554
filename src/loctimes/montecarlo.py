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
  indices.  Only the kept paths draw a uniform and jump.
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

All draws come from one stream in a fixed order (for the fixed horizon,
block after block), so a seed reproduces every emitted number bit for bit.
Both samplers raise ``ValueError`` on an ``n_paths`` that is negative or not
an integer.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .chain import Generator
from .errors import BudgetExceededError

# paths per block of the fixed-time sampler: a block's working arrays and its
# slice of the accumulator stay near a core's L2 cache, whereas one pass over a
# million paths streams each of them through memory every round.  A batch of at
# most this many paths is one block, drawn exactly as an unblocked run.
_BLOCK = 1 << 16


@dataclass
class BatchPaths:
    """Local times (one row per path), endpoints and jump counts.

    ``local_times`` is C-ordered from the fixed-time sampler and the
    Fortran-ordered transpose of a site-major buffer from the inverse
    sampler; reductions over it that must not depend on the sampler should
    run on ``np.ascontiguousarray(local_times)``.
    """

    states: tuple
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
    ``name`` if it is negative or not integral (any integer type, numpy's
    included, is accepted)."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {count}")
    return count


def sample_paths_fixed_time(
    gen: Generator, start, T: float, n_paths: int, rng: np.random.Generator
) -> BatchPaths:
    """Simulate ``n_paths`` trajectories on [0, T], in blocks of ``_BLOCK``
    paths run one after another from the one ``rng``."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("need finite T > 0")
    n_paths = _path_count(n_paths)
    table = jump_table(gen)
    n = gen.n_states
    s0 = gen.index(start)

    local = np.zeros(n_paths * n)
    endpoints = np.full(n_paths, s0, dtype=np.int64)
    jumps = np.zeros(n_paths, dtype=np.int64)
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        _fixed_time_block(table, s0, T, rng,
                          local[lo * n:hi * n], endpoints[lo:hi], jumps[lo:hi])
    return BatchPaths(
        states=gen.states,
        local_times=local.reshape(n_paths, n),
        endpoints=endpoints,
        jumps=jumps,
        horizons=np.full(n_paths, float(T)),
    )


def _fixed_time_block(table: JumpTable, s0: int, T: float, rng: np.random.Generator,
                      local: np.ndarray, endpoints: np.ndarray,
                      jumps: np.ndarray) -> None:
    """Run the paths of one block, all started in ``s0``, to the horizon,
    writing into the block's views of the flat accumulator, the endpoints
    and the jump counts."""
    exit_rates = table.exit_rates
    absorbing = bool(np.any(exit_rates <= 0))
    n = exit_rates.size
    alive = np.arange(endpoints.size)
    state = np.full(alive.size, s0, dtype=np.int64)
    elapsed = np.zeros(alive.size)

    rounds = 0
    while alive.size:
        hold = rng.standard_exponential(alive.size)
        rate = exit_rates[state]
        if absorbing:
            with np.errstate(divide="ignore"):
                hold = np.where(rate > 0, hold / rate, np.inf)
        else:
            hold /= rate
        remaining = T - elapsed
        done = hold >= remaining
        np.minimum(hold, remaining, out=hold)
        np.add.at(local, alive * n + state, hold)
        elapsed += hold
        ended = np.flatnonzero(done)
        if ended.size:
            who = alive[ended]
            endpoints[who] = state[ended]
            jumps[who] = rounds
            kept = np.flatnonzero(~done)
            alive = alive[kept]
            state = state[kept]
            elapsed = elapsed[kept]
            if alive.size == 0:
                break
        state = table.step(state, rng.random(alive.size))
        rounds += 1


def sample_paths_inverse_local_time(
    gen: Generator,
    start,
    pivot,
    level: float,
    n_paths: int,
    rng: np.random.Generator,
    max_rounds: int = 2_000_000,
) -> BatchPaths:
    """Simulate paths until the local time at the pivot first reaches the
    level; l(pivot) == level exactly on every path.

    The local time at the pivot is a Poisson clock of rate q_b for leaving
    it, so a path makes ``N = 1 + Poisson(q_b * level)`` pivot visits and
    stops during the N-th; an absorbing pivot stops every path at its first
    visit.  A path that reaches an absorbing state other than the pivot
    raises :class:`BudgetExceededError`, as does a batch with paths still
    running after ``max_rounds`` rounds (one jump each).
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

    pivot_visits_left = 1 + rng.poisson(exit_rates[b] * level, n_paths)
    visits = np.zeros(n * n_paths, dtype=np.int32)
    state = np.full(n_paths, s0, dtype=np.int64)
    alive = np.arange(n_paths)
    check_absorbed(state[:1])
    check_traps = bool(trap.any())

    rounds = 0
    while alive.size:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceededError(
                f"{alive.size} paths still running after {max_rounds} rounds; "
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
            local[x] = rng.gamma(visits[x], 1.0 / exit_rates[x])
    return BatchPaths(
        states=gen.states,
        local_times=local.T,
        endpoints=np.full(n_paths, b, dtype=np.int64),
        jumps=visits.sum(axis=0, dtype=np.int64) - 1,
        horizons=local.sum(axis=0),
    )
