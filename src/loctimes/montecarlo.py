"""Vectorized exact-path sampling for Monte Carlo verification runs.

Same event-driven construction as the scalar simulators in :mod:`chain`
(exponential holding times, categorical jumps), but advanced for a whole
batch of paths per round with the finished paths dropped from the working
set.  All draws come from one stream in a fixed round order, so a seed
reproduces every emitted number bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .chain import Generator, _jump_distributions
from .errors import BudgetExceededError


@dataclass
class BatchPaths:
    """Local times (one row per path), endpoints and jump counts."""

    states: tuple
    local_times: np.ndarray    # (n_paths, n_states)
    endpoints: np.ndarray      # (n_paths,) state indices
    jumps: np.ndarray          # (n_paths,)
    horizons: np.ndarray       # (n_paths,) elapsed time at stop


def spawn_rngs(seed, n: int):
    """n independent substreams, deterministically derived from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def sample_paths_fixed_time(
    gen: Generator, start, T: float, n_paths: int, rng: np.random.Generator
) -> BatchPaths:
    """Simulate ``n_paths`` trajectories on [0, T]."""
    if T <= 0:
        raise ValueError("need T > 0")
    exit_rates, cum = _jump_distributions(gen)
    n = gen.n_states
    s0 = gen.index(start)

    local = np.zeros((n_paths, n))
    state = np.full(n_paths, s0, dtype=np.int64)
    elapsed = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    final_state = np.full(n_paths, s0, dtype=np.int64)
    alive = np.arange(n_paths)

    while alive.size:
        rate = exit_rates[state]
        with np.errstate(divide="ignore"):
            hold = np.where(rate > 0, rng.exponential(1.0, alive.size) / rate, np.inf)
        remaining = T - elapsed
        add = np.minimum(hold, remaining)
        local[alive, state] += add
        elapsed += add
        done = hold >= remaining
        if np.any(done):
            final_state[alive[done]] = state[done]
        keep = ~done
        alive = alive[keep]
        state = state[keep]
        elapsed = elapsed[keep]
        if alive.size == 0:
            break
        u = rng.random(alive.size)
        state = (u[:, None] >= cum[state]).sum(axis=1).astype(np.int64)
        jumps[alive] += 1
    return BatchPaths(
        states=gen.states,
        local_times=local,
        endpoints=final_state,
        jumps=jumps,
        horizons=np.full(n_paths, float(T)),
    )


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
    level; the crossing sojourn is clipped so l(pivot) == level exactly."""
    if level <= 0:
        raise ValueError("need level > 0")
    exit_rates, cum = _jump_distributions(gen)
    n = gen.n_states
    s0 = gen.index(start)
    b = gen.index(pivot)

    local = np.zeros((n_paths, n))
    state = np.full(n_paths, s0, dtype=np.int64)
    elapsed = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    horizons = np.zeros(n_paths)
    alive = np.arange(n_paths)

    rounds = 0
    while alive.size:
        rounds += 1
        if rounds > max_rounds:
            raise BudgetExceededError(
                f"{alive.size} paths still running after {max_rounds} rounds; "
                "pivot likely unreachable"
            )
        rate = exit_rates[state]
        if np.any(rate <= 0):
            raise BudgetExceededError("a path was absorbed away from the pivot")
        hold = rng.exponential(1.0, alive.size) / rate
        at_pivot = state == b
        remaining = np.where(at_pivot, level - local[alive, b], np.inf)
        done = hold >= remaining
        add = np.where(done, remaining, hold)
        local[alive, state] += add
        elapsed += add
        if np.any(done):
            horizons[alive[done]] = elapsed[done]
        keep = ~done
        alive = alive[keep]
        state = state[keep]
        elapsed = elapsed[keep]
        if alive.size == 0:
            break
        u = rng.random(alive.size)
        state = (u[:, None] >= cum[state]).sum(axis=1).astype(np.int64)
        jumps[alive] += 1
    return BatchPaths(
        states=gen.states,
        local_times=local,
        endpoints=np.full(n_paths, b, dtype=np.int64),
        jumps=jumps,
        horizons=horizons,
    )
