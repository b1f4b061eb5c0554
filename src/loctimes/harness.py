"""Experiment orchestration: Monte Carlo law checks, bound-dominance runs,
and bit-stable result emission.

Every experiment draws from a generator seeded by the config, records the
seed and a hash of the fully resolved config in each emitted file, and keeps
all reductions in fixed order, so replaying a config reproduces each number
exactly.

The two fixed-time checks (the density law and the LDP probability bound)
reduce their paths chunk by chunk through :func:`montecarlo.fixed_time_chunks`:
chunk k holds paths k * 2^16 onward and draws from its own stream, child k of
``SeedSequence(seed)``, and each chunk is reduced to integer counts as it is
drawn, so memory is two blocks' worth (one per lane), whatever the sample
count.  The chunks run on two lanes where the process may use two CPUs, and
the counts are summed in chunk order, so a seed gives the same bytes
whatever the lane count or the schedule.
The Ray-Knight check keeps its whole batches: its moments are reductions
over all samples at once, whose bits depend on that.  Its two sides run at
once on independent streams spawned from the seed, the profile side on one
worker thread per call (joined before the call returns), the direct side on
the calling thread; each reduces its own samples before the two are
compared, so the results do not depend on how the threads are scheduled.

Integer config fields (counts, the pivot, the seed) are checked, not
truncated: a fraction or a boolean is a ``ValueError`` naming the field.
"""

import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.special import chdtrc

from .chain import Generator, generator_from_triples, srw_generator, validate_generator
from .density import density_rows, range_rates
from .errors import ConfigParseError, InsufficientConditionedError, NotSymmetricError
from .montecarlo import (
    BatchPaths,
    _path_count,
    fixed_time_chunks,
    sample_paths_inverse_local_time,
)
from .rates import ldp_probability_bound, ldp_varadhan_bound
from .rayknight import _profile_arguments, sample_rk_profile_batch


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Read a JSON config document, which must be an object at the top level."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config {path} is not valid JSON at line {exc.lineno}, column {exc.colno}"
        ) from None
    if not isinstance(config, dict):
        raise ConfigParseError(
            f"config {path} must be a JSON object, got {type(config).__name__}")
    return config


def generator_from_config(spec) -> Generator:
    """Build a generator from a config object or a path to one (a relative
    path is read from the working directory).

    Accepted forms: {"srw": [lo, hi]}, {"states": [...], "rates":
    [[from, to, rate], ...], "diagonal": {...}} (diagonal optional), or
    {"states": [...], "matrix": [[...], ...]}.
    """
    if isinstance(spec, str):
        spec = load_config(spec)
    if not isinstance(spec, dict):
        raise ConfigParseError(f"generator spec must be an object, got {type(spec).__name__}")
    try:
        if "srw" in spec:
            lo, hi = spec["srw"]
            return srw_generator(int(lo), int(hi))
        states = spec["states"]
        if "matrix" in spec:
            return validate_generator(spec["matrix"], states)
        triples = spec["rates"]
        diagonal = spec.get("diagonal")
        if diagonal is not None:
            diagonal = {_match_label(states, k): v for k, v in diagonal.items()}
        return generator_from_triples(states, triples, diagonal)
    except ConfigParseError:
        raise
    except KeyError as exc:
        raise ConfigParseError(f"generator spec is missing field {exc}") from None
    except Exception as exc:
        raise ConfigParseError(f"generator spec: {exc}") from None


def _match_label(states, key):
    """JSON object keys are strings; map them back onto the label set."""
    if key in states:
        return key
    for s in states:
        if str(s) == key:
            return s
    raise ConfigParseError(f"key {key!r} is not a state label")


def config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_csv(path: str, meta: Dict, columns: Sequence[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    meta_line = ", ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w") as fh:
        fh.write(f"# {meta_line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# shared statistics helpers
# ---------------------------------------------------------------------------

# the chi-square validity floor on the expected count of a merged cell
_MIN_EXPECTED = 5.0


def merge_cells(observed: np.ndarray, expected: np.ndarray):
    """Merge scan-order neighbors until every expected count reaches the
    chi-square validity floor _MIN_EXPECTED."""
    obs_m: List[float] = []
    exp_m: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += float(o)
        acc_e += float(e)
        if acc_e >= _MIN_EXPECTED:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if exp_m:
            obs_m[-1] += acc_o
            exp_m[-1] += acc_e
        else:
            obs_m, exp_m = [acc_o], [acc_e]
    return np.array(obs_m), np.array(exp_m)


def chi_square_shape_test(observed: np.ndarray, expected_masses: np.ndarray):
    """Chi-square of observed counts against expected masses, normalized to
    the observed total (a pure shape comparison).  Returns (stat, dof,
    p-value, worst-cell z)."""
    observed = np.asarray(observed, dtype=float)
    expected_masses = np.asarray(expected_masses, dtype=float)
    # normalize to expected counts before merging so the validity floor
    # applies to counts, not to raw masses
    expected = expected_masses * (observed.sum() / expected_masses.sum())
    obs, exp = merge_cells(observed, expected)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(obs) - 1, 1)
    worst = float(np.max(np.abs(obs - exp) / np.sqrt(exp)))
    return stat, dof, _chi2_sf(stat, dof), worst


def _chi2_sf(stat: float, dof: int) -> float:
    """P(chi-square with ``dof`` degrees of freedom > ``stat``): the function
    that scipy.stats.chi2.sf calls, without importing scipy.stats."""
    return float(chdtrc(dof, stat))


def wilson_upper(successes: int, total: int, z: float = 2.3263478740408408) -> float:
    """One-sided 99% upper confidence limit for a binomial proportion."""
    if total == 0:
        return 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = p + z * z / (2 * total)
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
    return min(1.0, (center + half) / denom)


def conditioning_mask(gen: Generator, R: Sequence, b) -> Callable[[BatchPaths], np.ndarray]:
    """The conditioning event of a request as a test of a batch: the mask of
    the paths whose visited set equals R exactly and whose endpoint is b.
    The state indices it needs are worked out once, here, for every batch
    it is applied to."""
    idx_R = gen.indices(R)
    b_idx = gen.index(b)
    others = np.setdiff1d(np.arange(gen.n_states), idx_R)

    def mask(batch: BatchPaths) -> np.ndarray:
        visited = batch.local_times > 0.0
        hit = visited[:, idx_R].all(axis=1) & ~visited[:, others].any(axis=1)
        return hit & (batch.endpoints == b_idx)

    return mask


def _killed_exponential(gen: Generator, S: Sequence, T: float, V=None) -> np.ndarray:
    """expm(T (A_S + diag V)) of ``gen`` killed outside S; V in S's order, or None."""
    from scipy.linalg import expm

    A = range_rates(gen, S).A
    return expm(T * (A if V is None else A + np.diag(V)))


def range_probability(gen: Generator, a, b, R: Sequence, T: float) -> float:
    """P_a(range up to T is R, X_T = b), the density's mass on {sum of l = T}:
    inclusion-exclusion over the S with {a, b} within S within R of the (a, b)
    entries of :func:`_killed_exponential` on S.  R, a and b are checked as
    in a density request."""
    R = tuple(R)
    density_rows(gen, R, a, b, np.empty((0, len(R))))  # checks R, a and b
    others = [x for x in R if x not in (a, b)]
    total = 0.0
    for k in range(len(others) + 1):
        for dropped in combinations(others, k):
            S = tuple(x for x in R if x not in dropped)
            total += (-1) ** k * _killed_exponential(gen, S, T)[S.index(a), S.index(b)]
    return float(total)


# ---------------------------------------------------------------------------
# simplex cell integration
# ---------------------------------------------------------------------------

def _grid_counts(columns: Sequence[np.ndarray], edges: List[np.ndarray]) -> np.ndarray:
    """Counts of the points (one coordinate array per axis, finite values)
    in the cells of a grid of equal-width bins: ``np.histogramdd(
    np.stack(columns, axis=1), bins=edges)[0]``, without its sort-based search.

    The bin of a value is guessed from the bin width and corrected against
    the edges themselves, so a value on an edge lands where histogramdd puts
    it: in the bin above an interior edge, the top edge in the last bin, and
    a value outside the grid in none.
    """
    flat = np.zeros(len(columns[0]), dtype=np.intp)
    inside = np.ones(len(flat), dtype=bool)
    for v, e in zip(columns, edges):
        n = len(e) - 1
        k = np.floor((v - e[0]) * (n / (e[-1] - e[0]))).astype(np.intp)
        np.clip(k, 0, n - 1, out=k)
        k -= (v < e[k]) & (k > 0)          # the guess is one bin too high
        k += (v >= e[k + 1]) & (k < n - 1)  # or one bin too low
        inside &= (v >= e[0]) & (v <= e[-1])
        flat *= n
        flat += k
    shape = tuple(len(e) - 1 for e in edges)
    return np.bincount(flat[inside], minlength=int(np.prod(shape))).astype(float).reshape(shape)


# Gauss-Legendre points per axis of the two cell rules; the mass comes from
# the finer one, and a cell whose two masses differ by more than _FLAG_REL of
# it is flagged
_CELL_ORDERS = (6, 8)
_FLAG_REL = 1e-6


@functools.lru_cache(maxsize=None)
def _unit_rule(n: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule with n points per axis on [0, 1]^dim,
    built once per (n, dim) and shared, so its arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * dim), indexing="ij")], axis=1)
    weights = np.prod([g.ravel() for g in np.meshgrid(*([w] * dim), indexing="ij")], axis=0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _collapsed_coordinates(columns: Sequence[np.ndarray], total: float) -> List[np.ndarray]:
    """The collapsed coordinates (s, v_1 .. v_{d-1}) of points given by their
    free local times l_1 .. l_d (one array per coordinate, all positive):
    s = l_1 + ... + l_d, clipped at ``total``, and v_k = l_k / (l_k + ... +
    l_d).  Each denominator is the suffix sum l_k + (l_{k+1} + ...), which
    rounds to at least l_k, so every fraction lies in [0, 1] and every point
    lands in a cell of the collapsed grid."""
    suffix = columns[-1]
    fractions = []
    for l in reversed(columns[:-1]):
        suffix = l + suffix
        fractions.append(l / suffix)
    return [np.minimum(suffix, total), *reversed(fractions)]


def _collapsed_rule(lo: np.ndarray, hi: np.ndarray, n: int):
    """Nodes (free local times) and weights of the n-point-per-axis tensor
    rule on the collapsed cell [lo, hi] of (s, v_1 .. v_{d-1}).

    The cell's points map to l_k = s v_k prod_{j<k} (1 - v_j), with v_d = 1,
    whose Jacobian s^{d-1} prod_{k<=d-2} (1 - v_k)^{d-1-k} is a polynomial
    the rule integrates exactly.  In one dimension l_1 = s and the rule is
    the plain Gauss-Legendre rule on the interval.

    ``lo`` and ``hi`` are one cell's corners, (d,), or those of many cells,
    (cells, d); the nodes are then (n^d, d) or (cells, n^d, d), and the
    weights (n^d,) or (cells, n^d), each cell's the same bits either way.
    """
    dim = lo.shape[-1]
    unit_x, unit_w = _unit_rule(n, dim)
    lo, hi = lo[..., None, :], hi[..., None, :]
    y = lo + (hi - lo) * unit_x
    s, v = y[..., :1], y[..., 1:]
    ones = np.ones_like(s)
    prefix = np.concatenate([ones, np.cumprod(1.0 - v, axis=-1)], axis=-1)
    jacobian = s[..., 0] ** (dim - 1) * np.prod(prefix[..., :-1], axis=-1)
    nodes = s * prefix * np.concatenate([v, ones], axis=-1)
    return nodes, unit_w * np.prod(hi - lo, axis=-1) * jacobian


def expected_cell_masses(rho, edges: List[np.ndarray]):
    """Integrate the density over every cell of the collapsed grid.

    ``edges`` are the cell edges of s (on [0, T]) and of each fraction v
    (on [0, 1]); every cell lies inside the simplex.  ``rho`` maps a (P, d)
    array of free local times to the P density values; it is called once,
    on the nodes of every cell.  Each cell is integrated by two fixed rules
    (:func:`_collapsed_rule` with _CELL_ORDERS points per axis); the density
    is entire in l, so the rules converge spectrally, and a cell is flagged
    when the two masses differ by more than _FLAG_REL of the finer one.
    Returns (masses, flagged).

    The rules are built for all cells at once, their nodes in the order
    (cell, rule, node), so the per-rule sums add the same rows in the same
    order as a loop over the cells would.
    """
    shape = tuple(len(e) - 1 for e in edges)
    lo, hi = (np.stack([g.ravel() for g in np.meshgrid(*ends, indexing="ij")], axis=1)
              for ends in ([e[:-1] for e in edges], [e[1:] for e in edges]))
    rules = [_collapsed_rule(lo, hi, n) for n in _CELL_ORDERS]
    n_cells = len(lo)
    nodes = np.concatenate([x for x, _ in rules], axis=1).reshape(-1, len(edges))
    weights = np.concatenate([w for _, w in rules], axis=1).ravel()
    slots = np.repeat(np.arange(len(_CELL_ORDERS) * n_cells),
                      np.tile([w.shape[1] for _, w in rules], n_cells))
    values = np.asarray(rho(nodes))
    per_rule = np.bincount(slots, weights=weights * values,
                           minlength=len(_CELL_ORDERS) * n_cells)
    per_rule = per_rule.reshape(n_cells, len(_CELL_ORDERS))
    coarse, fine = per_rule[:, 0], per_rule[:, -1]
    flagged = int(np.sum(np.abs(fine - coarse) > _FLAG_REL * np.abs(fine)))
    return fine.reshape(shape), flagged


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float


def _z_check(name: str, z: float, threshold: float) -> CheckResult:
    """A check that passes when |z| is below the threshold."""
    return CheckResult(name, abs(z) < threshold, z, threshold)


@dataclass
class Report:
    """What an experiment returns: its acceptance checks, its CSV rows under
    ``columns``, and the diagnostics its summary entry carries."""

    checks: List[CheckResult]
    columns: Tuple[str, ...]
    rows: List[tuple]
    diagnostics: Dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# experiment: Monte Carlo law of the local times
# ---------------------------------------------------------------------------

# tolerance of the cell-integrated density, and the chi-square p-value below
# which the law check fails
_DENSITY_TOL = 1e-9
_P_THRESHOLD = 1e-3


def verify_density_mc(
    gen: Generator,
    start,
    endpoint,
    range_: Sequence,
    T: float,
    n_samples: int,
    cells_per_axis: int = 7,
    seed: int = 0,
) -> Report:
    """Bin conditioned local times and compare with cell integrals of the
    density by a chi-square shape test; also compare the conditioning frequency
    with the cells' total mass and with the exact :func:`range_probability`.

    The free coordinates are the local times l_1 .. l_d off the endpoint,
    in the order of ``range_``.  They are binned in collapsed coordinates
    (:func:`_collapsed_coordinates`): their sum s on ``cells_per_axis``
    equal cells of [0, T], and each fraction v_k = l_k / (l_k + ... + l_d),
    k < d, on as many of [0, 1].  So every cell lies inside the simplex and
    every conditioned path lands in one.  The report's ``cell`` is the flat
    index over (s, v_1, ...); with d = 1 it is the local time's own cell.

    The paths are conditioned and binned one chunk of 2^16 at a time, each
    chunk from its own stream spawned from ``seed``
    (:func:`montecarlo.fixed_time_chunks`), on two lanes where the process
    may use two CPUs: memory is two blocks' worth, not O(``n_samples``), and
    the counts (integers) are summed in chunk order, so they do not depend
    on the lane count or the schedule.  ``ValueError``, before any path is
    drawn, on an ``n_samples`` that is negative or not an integer,
    a ``cells_per_axis`` that is not an integer >= 1, and on a ``range_``
    that repeats a state, misses the start or the endpoint, or has fewer
    than 2 or more than 4 states: the density rows the cells need grow as
    ``cells_per_axis ** (|R| - 1)``, about 13 million at |R| = 5 with the
    default 7 cells.  The cells' rows go through :func:`density.density_rows`:
    a tree range integrates the exact product, any other the series."""
    R = tuple(range_)
    try:
        density_rows(gen, R, start, endpoint, np.empty((0, len(R))))
    except ValueError as exc:
        raise ValueError(f"range_: {exc}") from None
    if not 2 <= len(R) <= 4:
        raise ValueError(f"range_ must have 2 to 4 states (|R| <= 4), got {R!r}")
    n_samples = _path_count(n_samples, "n_samples")
    cells_per_axis = _path_count(cells_per_axis, "cells_per_axis")
    if cells_per_axis < 1:
        raise ValueError(f"cells_per_axis must be at least 1, got {cells_per_axis}")
    conditioned = conditioning_mask(gen, R, endpoint)
    free_states = [x for x in R if x != endpoint]
    free_idx = gen.indices(free_states)
    edges = [np.linspace(0.0, T, cells_per_axis + 1)]
    edges += [np.linspace(0.0, 1.0, cells_per_axis + 1) for _ in free_states[1:]]

    def bin_chunk(batch: BatchPaths) -> Tuple[int, np.ndarray]:
        rows = np.flatnonzero(conditioned(batch))
        free = [batch.local_times[rows, j] for j in free_idx]
        return rows.size, _grid_counts(_collapsed_coordinates(free, T), edges)

    counts = np.zeros(tuple(len(e) - 1 for e in edges))
    n_cond = 0
    for chunk_cond, chunk_counts in fixed_time_chunks(gen, start, T, n_samples, seed,
                                                      bin_chunk):
        n_cond += chunk_cond
        counts += chunk_counts
    if n_cond < 1000:
        raise InsufficientConditionedError(
            f"only {n_cond} of {n_samples} samples hit the conditioning event"
        )

    free_pos = [R.index(x) for x in free_states]

    def rho(free: np.ndarray) -> np.ndarray:
        L = np.empty((len(free), len(R)))
        L[:, free_pos] = free
        L[:, R.index(endpoint)] = T - free.sum(axis=1)
        return density_rows(gen, R, start, endpoint, L, _DENSITY_TOL)[0]

    masses, flagged = expected_cell_masses(rho, edges)

    stat, dof, p_value, worst = chi_square_shape_test(counts.ravel(), masses.ravel())

    p_mc = n_cond / n_samples
    p_quad = float(masses.sum())
    z_cond = (p_mc - p_quad) / math.sqrt(max(p_quad * (1 - p_quad), 1e-300) / n_samples)
    p_exact = range_probability(gen, start, endpoint, R, T)
    z_exact = _z(p_mc - p_exact, math.sqrt(p_exact * (1 - p_exact) / n_samples))

    diagnostics = {
        "p_value": p_value, "conditioning_z": z_cond,
        "n_samples": n_samples, "n_conditioned": n_cond, "chi2": stat, "dof": dof,
        "worst_cell_z": worst, "conditioning_mc": p_mc, "conditioning_quadrature": p_quad,
        "conditioning_exact": p_exact, "flagged_cells": flagged, "z_analytic": z_exact,
    }
    checks = [
        CheckResult("chi_square_p_value", p_value > _P_THRESHOLD, p_value, _P_THRESHOLD),
        _z_check("conditioning_probability_z", z_cond, 4.0),
        _z_check("conditioning_vs_analytic_z", z_exact, 4.0),
    ]

    cells = enumerate(zip(counts.ravel(), masses.ravel()))
    return Report(checks, ("cell", "observed", "expected_mass"),
                  [(i, int(c), float(e)) for i, (c, e) in cells], diagnostics)


# ---------------------------------------------------------------------------
# experiment: Ray-Knight distributional equivalence
# ---------------------------------------------------------------------------

# relative size, against m4, below which m4 - m2^2 is rounding error: the
# pairwise sums behind both moments err by a few ulp, far below this
_MOMENT_ROUNDING = 1e-12


class _Moments(NamedTuple):
    """Size, mean, sample variance and the moment-based standard error of
    the sample variance of one sample."""

    n: int
    mean: float
    var: float
    var_se: float


def _moments(v: np.ndarray) -> _Moments:
    """The :class:`_Moments` of ``v`` from one centring pass; ``mean`` and
    ``var`` are bit for bit ``v.mean()`` and ``v.var(ddof=1)``.

    ``var_se`` is sqrt((m4 - m2^2) / n), and 0 where m4 - m2^2 is within
    _MOMENT_ROUNDING of m4: that excess is 0 exactly for two samples, or
    for any sample of two values taken equally often, and what is left of it
    after rounding would turn the variance z into numbers such as 1e150
    instead of the 0 or infinite z (:func:`_z`) of a zero standard error."""
    n = len(v)
    mean = v.mean()
    c2 = v - mean
    c2 *= c2
    s2 = c2.sum()
    m2 = s2 / n
    m4 = (c2 * c2).mean()
    excess = m4 - m2 * m2
    var_se = math.sqrt(excess / n) if excess > _MOMENT_ROUNDING * m4 else 0.0
    return _Moments(n, float(mean), float(s2 / (n - 1)), var_se)


def _z(diff: float, se: float) -> float:
    """``diff / se``; with a zero standard error, 0 when the two statistics
    are equal and an infinite z, whose check fails, when they are not."""
    if se == 0:
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return diff / se


def _mean_var_z(x: _Moments, y: _Moments) -> Tuple[float, float]:
    """z-scores of the differences in mean and in variance of two samples."""
    mz = _z(x.mean - y.mean, math.sqrt(x.var / x.n + y.var / y.n))
    vz = _z(x.var - y.var, math.sqrt(x.var_se ** 2 + y.var_se ** 2))
    return mz, vz


# the sites whose moments are compared, and the |z| below which a moment and
# an absorption-atom comparison pass
_COMPARE_SITES = (0, 1, 3)
_MOMENT_Z = 3.0
_ATOM_Z = 4.0


class _RayKnightSide(NamedTuple):
    """What the Ray-Knight checks read of one side's samples: the moments at
    _COMPARE_SITES, the frequencies of the absorption atom at ``pivot + 1``
    and at -1, and the independence correlation."""

    moments: Tuple[_Moments, ...]
    atom_right: float
    atom_left: float
    corr: float


def _rayknight_side(columns: Dict[int, np.ndarray], pivot: int, level: float) -> _RayKnightSide:
    """Reduce one side's samples, one column per site, to a :class:`_RayKnightSide`."""

    def atom(site):
        return float((columns[site] == 0.0).mean())

    # residual of the inner step at site pivot-1 given the pivot value, against
    # the first right outer value; the pivot value is exactly the level.  A
    # constant side is independent of the other: correlation 0
    proxy = columns[pivot - 1] - (level + 1.0)
    outer = columns[pivot + 1]
    corr = 0.0
    if np.ptp(proxy) != 0 and np.ptp(outer) != 0:
        corr = float(np.corrcoef(proxy, outer)[0, 1])
    return _RayKnightSide(tuple(_moments(columns[site]) for site in _COMPARE_SITES),
                          atom(pivot + 1), atom(-1), corr)


def _direct_side(pivot, level, window, n_samples, rng) -> _RayKnightSide:
    """Inverse-local-time simulation of the reflected walk on the window."""
    gen = srw_generator(-window, pivot + window)
    batch = sample_paths_inverse_local_time(gen, 0, pivot, level, n_samples, rng)
    return _rayknight_side({x: batch.local_times[:, gen.index(x)] for x in gen.states},
                           pivot, level)


def _profile_side(pivot, level, window, n_samples, rng, out) -> _RayKnightSide:
    """The spatial Markov-chain profiles on the window, written into ``out``."""
    sites, values = sample_rk_profile_batch(pivot, level, window, n_samples, rng, out)
    return _rayknight_side({int(s): values[:, i] for i, s in enumerate(sites)}, pivot, level)


def verify_rayknight_mc(
    pivot: int = 2,
    level: float = 1.0,
    n_samples: int = 200_000,
    seed: int = 0,
) -> Report:
    """Compare direct inverse-local-time simulation against the spatial
    Markov-chain profile sampler: per-site means and variances, absorption
    atom frequencies, and the independence of inner and outer randomness.

    The checks read the sites _COMPARE_SITES (moments), ``pivot + 1``
    and ``-1`` (absorption atoms) and ``pivot - 1`` (independence).  Both
    sides run on the smallest window -w..pivot+w that covers those sites and
    no further (sites -1 to 3 with the defaults).  Each profile chain draws
    one step at a time from its own substream, so a shorter profile is a
    prefix of a longer one.  The direct side is the reflected walk
    ``srw_generator(-w, pivot + w)``: this is exactly the trace of the walk
    on Z on the window, because the walk on Z always comes back from outside
    it, so the local times on the window at the pivot's inverse local time
    have the same joint law, atoms included.

    The two sides run at once: the profile side on one worker thread, started
    for this call and joined before it returns, the direct side on the
    calling thread.  Each draws from its own stream spawned from ``seed`` and
    reduces its samples to what the checks read before the two are compared,
    so the results do not depend on how the threads are scheduled, and every
    error is the one the sides give run one after the other, profile first.

    A z whose standard error is zero reads 0 where the two statistics are
    equal and is infinite, so that its check fails, where they are not; a
    side that is constant has correlation 0 with anything.  So a compared
    site equal to the pivot, which holds the level exactly on both sides,
    reports z = 0 and its checks pass.  ``ValueError`` on an ``n_samples``
    that is not an integer of at least 2, and on a ``pivot`` or ``level``
    that :func:`rayknight.sample_rk_profile_batch` rejects, before any
    sample is drawn.
    """
    n_samples = _path_count(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    rng_direct, rng_profile = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    read = [*_COMPARE_SITES, pivot - 1, pivot + 1, -1]
    window = max(0, -min(read), max(read) - pivot)
    b, window, n_samples = _profile_arguments(pivot, level, window, n_samples)
    # the profile buffer comes from the calling thread's heap, which reuses
    # it from call to call; glibc keeps a worker thread's freed memory in
    # that thread's own arena, so a buffer taken there would stay resident
    out = np.empty((b + 2 * window + 1, n_samples))
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(_profile_side, pivot, level, window, n_samples, rng_profile, out)
        del out                     # the profile side frees it once reduced
        try:
            direct = _direct_side(pivot, level, window, n_samples, rng_direct)
        except BaseException:
            pending.result()        # a profile side's error comes first
            raise
        profile = pending.result()

    rows = []
    checks = []
    for site, d, p in zip(_COMPARE_SITES, direct.moments, profile.moments):
        mz, vz = _mean_var_z(d, p)
        rows.append((site, d.mean, p.mean, mz, d.var, p.var, vz))
        checks.append(_z_check(f"mean_z_site_{site}", mz, _MOMENT_Z))
        checks.append(_z_check(f"var_z_site_{site}", vz, _MOMENT_Z))

    def atom_z(d, p):
        return _z(d - p, math.sqrt(d * (1 - d) / n_samples + p * (1 - p) / n_samples))

    exact = math.exp(-level)
    se_exact = math.sqrt(exact * (1 - exact) / n_samples)
    checks.append(_z_check("atom_right_z", atom_z(direct.atom_right, profile.atom_right),
                           _ATOM_Z))
    checks.append(_z_check("atom_right_vs_exact_z",
                           _z(direct.atom_right - exact, se_exact), _ATOM_Z))
    checks.append(_z_check("atom_left_z", atom_z(direct.atom_left, profile.atom_left),
                           _ATOM_Z))
    corr_threshold = _ATOM_Z / math.sqrt(n_samples)
    checks.append(_z_check("independence_corr_direct", direct.corr, corr_threshold))
    checks.append(_z_check("independence_corr_profile", profile.corr, corr_threshold))

    diagnostics = {
        "n_samples": n_samples,
        "atom_right_direct": direct.atom_right, "atom_right_profile": profile.atom_right,
        "atom_left_direct": direct.atom_left, "atom_left_profile": profile.atom_left,
    }
    return Report(checks, ("site", "mean_direct", "mean_profile", "mean_z",
                           "var_direct", "var_profile", "var_z"), rows, diagnostics)


# ---------------------------------------------------------------------------
# experiment: finite-time LDP bounds
# ---------------------------------------------------------------------------

def _dirichlet_block(gen: Generator, S: Tuple) -> np.ndarray:
    """Q = -A on S x S, killed outside S: the Dirichlet form of mu is <psi, Q psi>
    with psi = sqrt(mu), and as Q has no positive off-diagonal entry, |psi|
    does as well as psi, so psi may range over all unit vectors."""
    rates = range_rates(gen, S)
    if not rates.symmetric:
        raise NotSymmetricError(f"the rates on {S!r} are not symmetric")
    return -rates.A


def halfspace_rate_infimum(gen: Generator, S: Sequence, state, threshold: float) -> float:
    """inf of the Dirichlet form over {mu on S : mu(state) >= threshold}: the
    least psi^T Q psi over unit psi with psi_j^2 >= threshold.  Its Lagrange
    dual, the max over lam >= 0 of the concave
    d(lam) = lambda_min(Q - lam e_j e_j^T) + lam threshold, is exact for one
    quadratic constraint (S-lemma).  As d(lam) <= Q_jj - lam (1 - threshold),
    one bounded search over [0, (Q_jj - d(0)) / (1 - threshold)] finds it, and
    each d(lam) is a lower bound, so search error only loosens an LDP bound."""
    S = tuple(S)
    density_rows(gen, S, state, state, np.empty((0, len(S))))  # checks S and the state
    Q = _dirichlet_block(gen, S)
    j = S.index(state)
    if not math.isfinite(threshold):
        raise ValueError(f"the threshold must be finite, got {threshold!r}")
    if threshold > 1.0:
        return math.inf
    if threshold == 1.0:
        return float(Q[j, j])

    def dual(lam: float) -> float:
        shifted = Q.copy()
        shifted[j, j] -= lam
        return float(np.linalg.eigvalsh(shifted)[0]) + lam * threshold

    best = dual(0.0)
    hi = (Q[j, j] - best) / (1.0 - threshold)
    if hi > 0.0:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda lam: -dual(lam), bounds=(0.0, hi), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def _functional_on(S: Tuple, V) -> np.ndarray:
    """A linear functional on S, given as a list in the order of S or as a
    dict keyed by state (string keys of a JSON object are matched to the
    labels), as a vector."""
    if isinstance(V, dict):
        V = {_match_label(S, k): v for k, v in V.items()}
    else:
        if len(V) != len(S):
            raise ValueError(f"V has {len(V)} entries but S has {len(S)} states")
        V = dict(zip(S, V))
    return np.array([float(V[x]) for x in S])


def linear_varadhan_supremum(gen: Generator, S: Sequence, V) -> float:
    """sup over mu on S of <V, mu> - Dirichlet(mu) for a linear functional:
    the top eigenvalue of diag(V) - Q, reached at psi = sqrt(mu)."""
    S = tuple(S)
    v = _functional_on(S, V)
    return float(np.linalg.eigvalsh(np.diag(v) - _dirichlet_block(gen, S))[-1])


def log_mgf_exact(gen: Generator, start, S: Sequence, V, T: float) -> float:
    """log E[exp(<V, local times>); range within S], by the matrix exponential
    of the killed generator A|SxS + diag(V) (:func:`_killed_exponential`)."""
    S = tuple(S)
    M = _killed_exponential(gen, S, T, _functional_on(S, V))
    return float(np.log(M[S.index(start), :].sum()))


def ldp_probability_experiment(
    gen: Generator, start, S: Sequence, state, threshold: float, T: float,
    n_samples: int, seed: int = 0,
) -> Report:
    """Monte Carlo estimate of P(normalized local time at ``state`` >=
    ``threshold``, range within S) against the closed-form upper bound.

    The hits are counted one chunk of 2^16 paths at a time, each chunk from
    its own stream spawned from ``seed`` (:func:`montecarlo.fixed_time_chunks`),
    on two lanes where the process may use two CPUs: memory is two blocks'
    worth, not O(``n_samples``), and the per-chunk counts are summed in
    chunk order, so the total does not depend on the lane count or the
    schedule.  ``ValueError`` on an ``n_samples`` that is negative or not
    an integer, and ``NotSymmetricError`` where the rates on S (those
    outside S may be anything) are not symmetric, both before any path is
    drawn."""
    S = tuple(S)
    n_samples = _path_count(n_samples, "n_samples")
    inf_rate = halfspace_rate_infimum(gen, S, state, threshold)
    bound = ldp_probability_bound(gen, S, inf_rate, T)
    others = np.setdiff1d(np.arange(gen.n_states), gen.indices(S))
    j = gen.index(state)

    def count_hits(batch: BatchPaths) -> int:
        local = batch.local_times
        return int((~(local[:, others] > 0).any(axis=1) & (local[:, j] / T >= threshold)).sum())

    n_hits = sum(fixed_time_chunks(gen, start, T, n_samples, seed, count_hits))
    p_upper = wilson_upper(n_hits, n_samples)
    log_p_hat = math.log(n_hits / n_samples) if n_hits else -math.inf
    log_p_upper = math.log(p_upper)
    checks = [CheckResult("log_upper_ci_below_bound", log_p_upper <= bound,
                          log_p_upper, bound)]
    diagnostics = {"T": T, "inf_rate": inf_rate, "bound": bound, "n_samples": n_samples,
                   "n_hits": n_hits, "log_p_hat": log_p_hat, "log_p_upper": log_p_upper}
    columns = ("T", "inf_rate", "bound", "n_hits", "log_p_hat", "log_p_upper")
    return Report(checks, columns, [tuple(diagnostics[c] for c in columns)], diagnostics)


def ldp_varadhan_experiment(gen: Generator, start, S: Sequence, V, T: float) -> Report:
    """Exact exponential-functional value (matrix exponential) against the
    closed-form upper bound for a linear functional; ``NotSymmetricError``
    where the rates on S (not outside it) are not symmetric."""
    S = tuple(S)
    sup_value = linear_varadhan_supremum(gen, S, V)
    bound = ldp_varadhan_bound(gen, S, sup_value, T)
    value = log_mgf_exact(gen, start, S, V, T)
    checks = [CheckResult("log_mgf_below_bound", value <= bound, value, bound)]
    diagnostics = {"T": T, "sup_value": sup_value, "bound": bound, "log_mgf": value}
    columns = ("T", "sup_value", "bound", "log_mgf")
    return Report(checks, columns, [tuple(diagnostics[c] for c in columns)], diagnostics)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _integer(exp: dict, field: str, default: int) -> int:
    """The integer config field ``field`` of an experiment: ``ValueError``
    naming the field for a boolean or a number that is not integral (a JSON
    number such as ``2e5`` that is a whole number is accepted)."""
    value = exp.get(field, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    return value


def _count(exp: dict, field: str, default: int, least: int = 1) -> int:
    """The integer config field ``field`` of an experiment, at least ``least``."""
    value = _integer(exp, field, default)
    if value < least:
        raise ValueError(f"{field!r} must be at least {least}, got {value}")
    return value


# experiment kind -> runner(experiment object, seed): the runner
# parses the experiment's own fields and returns its report
EXPERIMENTS: Dict[str, Callable[[dict, int], Report]] = {
    "verify-density": lambda exp, seed: verify_density_mc(
        generator_from_config(exp["generator"]),
        _label(exp["start"]), _label(exp["endpoint"]), [_label(x) for x in exp["range"]],
        float(exp["T"]), _count(exp, "samples", 1_000_000),
        cells_per_axis=_count(exp, "cells", 7), seed=seed),
    "verify-rayknight": lambda exp, seed: verify_rayknight_mc(
        pivot=_integer(exp, "pivot", 2), level=float(exp.get("level", 1.0)),
        n_samples=_count(exp, "samples", 200_000, least=2), seed=seed),
    "ldp-probability": lambda exp, seed: ldp_probability_experiment(
        generator_from_config(exp["generator"]),
        _label(exp["start"]), [_label(x) for x in exp["S"]], _label(exp["state"]),
        float(exp["threshold"]), float(exp["T"]), _count(exp, "samples", 1_000_000), seed=seed),
    "ldp-varadhan": lambda exp, seed: ldp_varadhan_experiment(
        generator_from_config(exp["generator"]),
        _label(exp["start"]), [_label(x) for x in exp["S"]], exp["V"], float(exp["T"])),
}


def _experiment_names(config: dict) -> List[str]:
    """Check every experiment's kind and name before any of them runs; return
    the names, which are also the CSV file stems."""
    if not isinstance(config, dict) or not isinstance(config.get("experiments"), list):
        raise ConfigParseError("config must contain an 'experiments' list")
    names: List[str] = []
    for k, exp in enumerate(config["experiments"]):
        kind = exp.get("kind") if isinstance(exp, dict) else None
        if not isinstance(kind, str) or kind not in EXPERIMENTS:
            raise ConfigParseError(
                f"experiment #{k}: kind {kind!r} is not one of {', '.join(EXPERIMENTS)}")
        name = str(exp.get("name", f"{kind}-{k}"))
        if not name or os.path.basename(name) != name:
            raise ConfigParseError(f"experiment #{k}: name {name!r} is not a plain file name")
        if name in names:
            raise ConfigParseError(f"experiment #{k}: name {name!r} is already used")
        names.append(name)
    return names


def run_suite(config: dict, out_dir: str) -> int:
    """Run the experiments in a config document; write one CSV per experiment
    and a machine-readable summary.  Exit status 0 when every acceptance
    check passes, 1 otherwise (2 is reserved for config errors and raised as
    ConfigParseError by the callers)."""
    names = _experiment_names(config)
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(config)
    # the summary carries the fully resolved config so a run can be replayed
    summary = {"config_hash": chash, "config": config, "experiments": []}

    for name, exp in zip(names, config["experiments"]):
        kind = exp["kind"]
        try:
            seed = _integer(exp, "seed", config.get("seed", 0))
            report = EXPERIMENTS[kind](exp, seed)
        except KeyError as exc:
            raise ConfigParseError(f"experiment {name!r} is missing field {exc}") from None
        except ValueError as exc:
            raise ConfigParseError(f"experiment {name!r}: {exc}") from None
        write_csv(os.path.join(out_dir, f"{name}.csv"),
                  {"config_hash": chash, "seed": seed, "kind": kind},
                  report.columns, report.rows)
        summary["experiments"].append({
            "name": name, "kind": kind, "passed": report.passed,
            **report.diagnostics, "checks": [c.__dict__ for c in report.checks],
        })

    summary["all_passed"] = all(e["passed"] for e in summary["experiments"])
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
    return 0 if summary["all_passed"] else 1


def _label(x):
    """Config labels: keep ints as ints, everything else as given."""
    if isinstance(x, bool):
        raise ConfigParseError(f"invalid state label {x!r}")
    return x
