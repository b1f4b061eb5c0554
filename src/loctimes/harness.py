"""Experiment orchestration: Monte Carlo law checks, bound-dominance runs,
and bit-stable result emission.

Every experiment draws from a generator seeded by the config, records the
seed and a hash of the fully resolved config in each emitted file, and keeps
all reductions in fixed order, so replaying a config reproduces each number
exactly.
"""

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.special import chdtrc

from .chain import Generator, generator_from_triples, srw_generator, validate_generator
from .density import MIN_LOCAL_TIME, _range_positions, density_batch, range_rates
from .errors import ConfigParseError, InsufficientConditionedError, NotSymmetricError
from .montecarlo import (
    BatchPaths,
    sample_paths_fixed_time,
    sample_paths_inverse_local_time,
)
from .rates import ldp_probability_bound, ldp_varadhan_bound
from .rayknight import sample_rk_profile_batch


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


def generator_from_config(spec, base_dir: str = ".") -> Generator:
    """Build a generator from a config object or a path to one.

    Accepted forms: {"srw": [lo, hi]}, {"states": [...], "rates":
    [[from, to, rate], ...], "diagonal": {...}} (diagonal optional), or
    {"states": [...], "matrix": [[...], ...]}.
    """
    if isinstance(spec, str):
        spec = load_config(os.path.join(base_dir, spec) if not os.path.isabs(spec) else spec)
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


def two_state_event_probabilities(T: float) -> Tuple[float, float, float]:
    """Exact (no-jump, range-full-and-switched, range-full-and-returned)
    probabilities for the canonical two-state unit-rate chain."""
    return (
        math.exp(-T),
        math.exp(-T) * math.sinh(T),
        math.exp(-T) * (math.cosh(T) - 1.0),
    )


def is_canonical_two_state(gen: Generator) -> bool:
    return gen.n_states == 2 and np.allclose(
        gen.off_diagonal(), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def conditioning_mask(batch: BatchPaths, gen: Generator, R: Sequence, b) -> np.ndarray:
    """Paths whose visited set equals R exactly and whose endpoint is b."""
    idx_R = gen.indices(R)
    b_idx = gen.index(b)
    others = np.setdiff1d(np.arange(gen.n_states), idx_R)
    visited = batch.local_times > 0.0
    mask = visited[:, idx_R].all(axis=1) & ~visited[:, others].any(axis=1)
    return mask & (batch.endpoints == b_idx)


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


def _clip_to_simplex(poly: np.ndarray, total: float) -> np.ndarray:
    """The convex polygon ``poly`` (vertices in order) cut to sum(v) <= total."""
    excess = poly.sum(axis=1) - total
    out = []
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        if excess[i] <= 0.0:
            out.append(poly[i])
        if (excess[i] < 0.0 < excess[j]) or (excess[j] < 0.0 < excess[i]):
            s = excess[i] / (excess[i] - excess[j])
            out.append(poly[i] + s * (poly[j] - poly[i]))
    return np.array(out)


def _cell_rule(lo: np.ndarray, hi: np.ndarray, total: float, n: int):
    """Nodes and weights of an n-point-per-axis rule on the part of the cell
    [lo, hi] inside the open simplex {sum(l) < total}.

    A cell inside the simplex gets the tensor rule.  In one dimension a cut
    cell is the interval clipped at the total.  In two, the cut cell is a
    convex polygon, fanned into triangles from its first vertex; each
    triangle (v0, v1, v2) carries the tensor rule through the collapsed
    (Duffy) map v0 + u (v1 - v0) + u t (v2 - v1), Jacobian u * 2 * area.
    """
    dim = len(lo)
    unit_x, unit_w = _unit_rule(n, dim)
    if hi.sum() <= total or dim == 1:
        top = np.minimum(hi, total)
        return lo + (top - lo) * unit_x, unit_w * float(np.prod(top - lo))
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    poly = _clip_to_simplex(corners, total)
    u, t = unit_x[:, :1], unit_x[:, 1:]
    min_area = 1e-12 * float(np.prod(hi - lo))
    nodes, weights = [], []
    for k in range(1, len(poly) - 1):
        e1, e2 = poly[k] - poly[0], poly[k + 1] - poly[k]
        twice_area = abs(e1[0] * e2[1] - e1[1] * e2[0])
        if twice_area <= min_area:  # a sliver left by a vertex on the boundary
            continue
        nodes.append(poly[0] + u * e1 + u * t * e2)
        weights.append(unit_w * unit_x[:, 0] * twice_area)
    return np.concatenate(nodes), np.concatenate(weights)


def expected_cell_masses(rho, edges: List[np.ndarray], total: float):
    """Integrate the density over every cell of the free-coordinate grid.

    ``rho`` maps a (P, dim) array of free coordinates to the P density
    values; it is called once, on the nodes of every cell.  Cells wholly
    outside the open simplex are excluded (mass 0).  Every other cell is
    integrated by two fixed rules (:func:`_cell_rule` with _CELL_ORDERS
    points per axis); the density is entire in l, so the rules converge
    spectrally, and a cell is flagged when the two masses differ by more
    than _FLAG_REL of the finer one.  Returns (masses, excluded, flagged).
    """
    dim = len(edges)
    if dim > 2:
        raise ValueError("cell integration supports at most 2 free coordinates")
    shape = tuple(len(e) - 1 for e in edges)
    excluded = 0
    nodes, weights, slots = [], [], []
    for flat, idx in enumerate(np.ndindex(*shape)):
        lo = np.array([edges[k][idx[k]] for k in range(dim)])
        hi = np.array([edges[k][idx[k] + 1] for k in range(dim)])
        if lo.sum() >= total - MIN_LOCAL_TIME:
            excluded += 1
            continue
        for level, n in enumerate(_CELL_ORDERS):
            x, w = _cell_rule(lo, hi, total, n)
            nodes.append(x)
            weights.append(w)
            slots.append(np.full(len(w), len(_CELL_ORDERS) * flat + level))
    n_cells = int(np.prod(shape))
    values = np.asarray(rho(np.concatenate(nodes)))
    per_rule = np.bincount(np.concatenate(slots), weights=np.concatenate(weights) * values,
                           minlength=len(_CELL_ORDERS) * n_cells)
    per_rule = per_rule.reshape(n_cells, len(_CELL_ORDERS))
    coarse, fine = per_rule[:, 0], per_rule[:, -1]
    flagged = int(np.sum(np.abs(fine - coarse) > _FLAG_REL * np.abs(fine)))
    return fine.reshape(shape), excluded, flagged


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
    density by a chi-square shape test; also compare the conditioning
    probability with the density normalization (and with the closed-form
    values for the canonical two-state chain).  The free coordinates are the
    local times off the endpoint."""
    R = tuple(range_)
    if len(R) - 1 > 2:
        raise ValueError("default cell grid supports |R| <= 3")
    rng = np.random.default_rng(seed)
    batch = sample_paths_fixed_time(gen, start, T, n_samples, rng)
    mask = conditioning_mask(batch, gen, R, endpoint)
    n_cond = int(mask.sum())
    if n_cond < 1000:
        raise InsufficientConditionedError(
            f"only {n_cond} of {n_samples} samples hit the conditioning event"
        )

    free_states = [x for x in R if x != endpoint]
    rows = np.flatnonzero(mask)
    columns = [batch.local_times[rows, j] for j in gen.indices(free_states)]

    edges = [np.linspace(0.0, T, cells_per_axis + 1) for _ in free_states]
    counts = _grid_counts(columns, edges)

    free_pos = [R.index(x) for x in free_states]
    elim_pos = R.index(endpoint)

    def rho(free: np.ndarray) -> np.ndarray:
        L = np.empty((len(free), len(R)))
        L[:, free_pos] = free
        L[:, elim_pos] = T - free.sum(axis=1)
        return density_batch(gen, R, start, endpoint, L, _DENSITY_TOL)[0]

    masses, excluded, flagged = expected_cell_masses(rho, edges, T)

    stat, dof, p_value, worst = chi_square_shape_test(counts.ravel(), masses.ravel())

    p_mc = n_cond / n_samples
    p_quad = float(masses.sum())
    se = math.sqrt(max(p_quad * (1 - p_quad), 1e-300) / n_samples)
    z_cond = (p_mc - p_quad) / se

    diagnostics = {
        "p_value": p_value, "conditioning_z": z_cond,
        "n_samples": int(n_samples), "n_conditioned": n_cond, "chi2": stat, "dof": dof,
        "worst_cell_z": worst, "conditioning_mc": p_mc, "conditioning_quadrature": p_quad,
        "excluded_cells": excluded, "flagged_cells": flagged,
    }
    checks = [
        CheckResult("chi_square_p_value", p_value > _P_THRESHOLD, p_value, _P_THRESHOLD),
        _z_check("conditioning_probability_z", z_cond, 4.0),
    ]
    if is_canonical_two_state(gen):
        no_jump, switched, returned = two_state_event_probabilities(T)
        target = switched if endpoint != start else returned
        se_t = math.sqrt(target * (1 - target) / n_samples)
        z_t = (p_mc - target) / se_t
        diagnostics.update(no_jump=no_jump, switched=switched, returned=returned, z_analytic=z_t)
        checks.append(_z_check("conditioning_vs_analytic_z", z_t, 4.0))

    cells = enumerate(zip(counts.ravel(), masses.ravel()))
    return Report(checks, ("cell", "observed", "expected_mass"),
                  [(i, int(c), float(e)) for i, (c, e) in cells], diagnostics)


# ---------------------------------------------------------------------------
# experiment: Ray-Knight distributional equivalence
# ---------------------------------------------------------------------------

class _Moments(NamedTuple):
    """Size, mean, sample variance and the moment-based standard error of
    the sample variance of one sample."""

    n: int
    mean: float
    var: float
    var_se: float


def _moments(v: np.ndarray) -> _Moments:
    """The :class:`_Moments` of ``v`` from one centring pass; ``mean`` and
    ``var`` are bit for bit ``v.mean()`` and ``v.var(ddof=1)``."""
    n = len(v)
    mean = v.mean()
    c2 = v - mean
    c2 *= c2
    s2 = c2.sum()
    m2 = s2 / n
    m4 = (c2 * c2).mean()
    return _Moments(n, float(mean), float(s2 / (n - 1)),
                    math.sqrt(max(m4 - m2 * m2, 1e-300) / n))


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

    A z whose standard error is zero reads 0 where the two statistics are
    equal and is infinite, so that its check fails, where they are not; a
    side that is constant has correlation 0 with anything.  So a compared
    site equal to the pivot, which holds the level exactly on both sides,
    reports z = 0 and its checks pass.
    """
    rng_direct, rng_profile = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    ]
    read = [*_COMPARE_SITES, pivot - 1, pivot + 1, -1]
    window = max(0, -min(read), max(read) - pivot)
    sites, values = sample_rk_profile_batch(pivot, level, window, n_samples, rng_profile)
    profile = {int(s): values[:, i] for i, s in enumerate(sites)}

    gen = srw_generator(-window, pivot + window)
    batch = sample_paths_inverse_local_time(gen, 0, pivot, level, n_samples, rng_direct)
    direct = {x: batch.local_times[:, gen.index(x)] for x in gen.states}

    rows = []
    checks = []
    for site in _COMPARE_SITES:
        d, p = _moments(direct[site]), _moments(profile[site])
        mz, vz = _mean_var_z(d, p)
        rows.append((site, d.mean, p.mean, mz, d.var, p.var, vz))
        checks.append(_z_check(f"mean_z_site_{site}", mz, _MOMENT_Z))
        checks.append(_z_check(f"var_z_site_{site}", vz, _MOMENT_Z))

    def atom_freqs(site):
        d = float((direct[site] == 0.0).mean())
        p = float((profile[site] == 0.0).mean())
        se = math.sqrt(d * (1 - d) / n_samples + p * (1 - p) / n_samples)
        return d, p, _z(d - p, se)

    right = pivot + 1
    a_d, a_p, a_z = atom_freqs(right)
    exact = math.exp(-level)
    se_exact = math.sqrt(exact * (1 - exact) / n_samples)
    l_d, l_p, l_z = atom_freqs(-1)
    checks.append(_z_check("atom_right_z", a_z, _ATOM_Z))
    checks.append(_z_check("atom_right_vs_exact_z", _z(a_d - exact, se_exact), _ATOM_Z))
    checks.append(_z_check("atom_left_z", l_z, _ATOM_Z))

    def indep_corr(data):
        # residual of the inner step at site pivot-1 given the pivot value,
        # against the first right outer value; the pivot value is exactly h.
        # A constant side is independent of the other: correlation 0.
        proxy = data[pivot - 1] - (level + 1.0)
        outer = data[right]
        if np.ptp(proxy) == 0 or np.ptp(outer) == 0:
            return 0.0
        return float(np.corrcoef(proxy, outer)[0, 1])

    corr_threshold = _ATOM_Z / math.sqrt(n_samples)
    checks.append(_z_check("independence_corr_direct", indep_corr(direct), corr_threshold))
    checks.append(_z_check("independence_corr_profile", indep_corr(profile), corr_threshold))

    diagnostics = {
        "n_samples": int(n_samples),
        "atom_right_direct": a_d, "atom_right_profile": a_p,
        "atom_left_direct": l_d, "atom_left_profile": l_p,
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
    S, j, _ = _range_positions(S, state, state)
    Q = _dirichlet_block(gen, S)
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
    of the killed generator A|SxS + diag(V)."""
    from scipy.linalg import expm

    S = tuple(S)
    A = range_rates(gen, S).A  # killed outside S: no re-conservation
    M = expm(T * (A + np.diag(_functional_on(S, V))))
    return float(np.log(M[S.index(start), :].sum()))


def ldp_probability_experiment(
    gen: Generator, start, S: Sequence, state, threshold: float, T: float,
    n_samples: int, seed: int = 0,
) -> Report:
    """Monte Carlo estimate of P(normalized local time at ``state`` >=
    ``threshold``, range within S) against the closed-form upper bound."""
    if not gen.is_symmetric():
        raise NotSymmetricError("the probability bound requires a symmetric generator")
    S = tuple(S)
    rng = np.random.default_rng(seed)
    batch = sample_paths_fixed_time(gen, start, T, n_samples, rng)
    others = np.setdiff1d(np.arange(gen.n_states), gen.indices(S))
    hits = ~(batch.local_times[:, others] > 0).any(axis=1) & (batch.local_times[:, gen.index(state)] / T >= threshold)
    n_hits = int(hits.sum())

    inf_rate = halfspace_rate_infimum(gen, S, state, threshold)
    bound = ldp_probability_bound(gen, S, inf_rate, T)
    p_upper = wilson_upper(n_hits, n_samples)
    log_p_hat = math.log(n_hits / n_samples) if n_hits else -math.inf
    log_p_upper = math.log(p_upper)
    checks = [CheckResult("log_upper_ci_below_bound", log_p_upper <= bound,
                          log_p_upper, bound)]
    diagnostics = {"T": T, "inf_rate": inf_rate, "bound": bound, "n_samples": int(n_samples),
                   "n_hits": n_hits, "log_p_hat": log_p_hat, "log_p_upper": log_p_upper}
    columns = ("T", "inf_rate", "bound", "n_hits", "log_p_hat", "log_p_upper")
    return Report(checks, columns, [tuple(diagnostics[c] for c in columns)], diagnostics)


def ldp_varadhan_experiment(gen: Generator, start, S: Sequence, V, T: float) -> Report:
    """Exact exponential-functional value (matrix exponential) against the
    closed-form upper bound for a linear functional."""
    if not gen.is_symmetric():
        raise NotSymmetricError("the exponential bound requires a symmetric generator")
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

def _count(exp: dict, field: str, default: int, least: int = 1) -> int:
    """The integer config field ``field`` of an experiment, at least ``least``."""
    value = int(exp.get(field, default))
    if value < least:
        raise ValueError(f"{field!r} must be at least {least}, got {value}")
    return value


# experiment kind -> runner(experiment object, seed, base_dir): the runner
# parses the experiment's own fields and returns its report
EXPERIMENTS: Dict[str, Callable[[dict, int, str], Report]] = {
    "verify-density": lambda exp, seed, base_dir: verify_density_mc(
        generator_from_config(exp["generator"], base_dir),
        _label(exp["start"]), _label(exp["endpoint"]), [_label(x) for x in exp["range"]],
        float(exp["T"]), _count(exp, "samples", 1_000_000),
        cells_per_axis=_count(exp, "cells", 7), seed=seed),
    "verify-rayknight": lambda exp, seed, base_dir: verify_rayknight_mc(
        pivot=int(exp.get("pivot", 2)), level=float(exp.get("level", 1.0)),
        n_samples=_count(exp, "samples", 200_000, least=2), seed=seed),
    "ldp-probability": lambda exp, seed, base_dir: ldp_probability_experiment(
        generator_from_config(exp["generator"], base_dir),
        _label(exp["start"]), [_label(x) for x in exp["S"]], _label(exp["state"]),
        float(exp["threshold"]), float(exp["T"]), _count(exp, "samples", 1_000_000), seed=seed),
    "ldp-varadhan": lambda exp, seed, base_dir: ldp_varadhan_experiment(
        generator_from_config(exp["generator"], base_dir),
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


def run_suite(config: dict, out_dir: str, base_dir: str = ".") -> int:
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
            seed = int(exp.get("seed", config.get("seed", 0)))
            report = EXPERIMENTS[kind](exp, seed, base_dir)
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
