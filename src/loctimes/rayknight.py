"""Spatial Markov description of local-time profiles at inverse local times.

For unit-rate nearest-neighbor walk on the integers stopped when the local
time at a pivot site b first reaches h, the profile of local times is, in the
spatial variable, a Markov chain: inward from the pivot it steps with the
transition density

    f(h1, h2) = exp(-h1 - h2) I0(2 sqrt(h1 h2)),

and outward (beyond the pivot, and below the start) with the kernel

    P*(h1, .) = exp(-h1) delta_0 + exp(-h1 - h2) sqrt(h1/h2) I1(2 sqrt(h1 h2)) dh2,

absorbed at zero.  Both kernels are Poisson mixtures of Gamma laws:
f(h1, .) is Gamma(K+1, 1) and P*(h1, .) is Gamma(K, 1) with K ~ Poisson(h1)
(Gamma(0, 1) read as the point mass at 0), which is how the samplers draw
exactly.
"""

import math
from typing import Optional, Tuple

import numpy as np

from .bessel import scaled_edge_kernel
from .chain import Generator, srw_generator
from .density import (_integer_interval, _range_positions, _read_request, density_certified,
                      range_rates)
from .errors import DomainError, NotSRWError
from .montecarlo import _path_count


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _gap_factor(h1: float, h2: float) -> float:
    """exp(-h1 - h2 + z) = exp(-(sqrt(h1) - sqrt(h2))^2) for z = 2 sqrt(h1 h2),
    so exp(-h1 - h2) I_k(z) = (I_k(z) / e^z) * factor never overflows."""
    return math.exp(-((math.sqrt(h1) - math.sqrt(h2)) ** 2))


def _check_kernel_argument(name: str, h: float, positive: bool = False) -> None:
    """Raise ``DomainError``, naming the argument, unless ``h`` is finite and
    nonnegative (positive if ``positive``)."""
    if not (math.isfinite(h) and (h > 0 if positive else h >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"kernel argument {name} must be finite and {sign}; got {h!r}")


def rk_inner_density(h1: float, h2: float) -> float:
    """Transition density of the inner (pivot-to-start) profile chain."""
    _check_kernel_argument("h1", h1)
    _check_kernel_argument("h2", h2)
    return scaled_edge_kernel(0, 1.0, h1, h2)[1] * _gap_factor(h1, h2)


def rk_outer_atom(h1: float) -> float:
    """Mass of the absorbing atom at zero of the outer kernel."""
    _check_kernel_argument("h1", h1)
    return math.exp(-h1)


def rk_outer_density(h1: float, h2: float) -> float:
    """Absolutely continuous part of the outer kernel on (0, infinity): the
    edge kernel's derivative in h2, h1 I1(z) / (z/2) = sqrt(h1/h2) I1(z)."""
    _check_kernel_argument("h1", h1)
    _check_kernel_argument("h2", h2, positive=True)
    return scaled_edge_kernel(1, 1.0, h2, h1)[1] * _gap_factor(h1, h2)


# ---------------------------------------------------------------------------
# exact samplers (Poisson-Gamma mixtures)
# ---------------------------------------------------------------------------

def _step(cur: np.ndarray, shift: float, rng: np.random.Generator) -> np.ndarray:
    """One step of a profile chain: Gamma(K + shift, 1) with K ~ Poisson(cur).
    Shift 1 is the inner kernel f, shift 0 the outer kernel P*, whose
    Gamma(0, 1) is the point mass at 0 where the chain is absorbed.  The
    one-parameter ``standard_gamma`` draws what ``gamma(shape)`` draws, bit
    for bit, without its broadcast against the scale."""
    return rng.standard_gamma(rng.poisson(cur) + shift)


def _profile_arguments(b, h: float, window, n) -> Tuple[int, int, int]:
    """``b``, ``window`` and ``n`` as Python ints after the checks of
    :func:`sample_rk_profile_batch`, which raise the ``ValueError`` it
    documents; a caller that runs the sampler later (on another thread, say)
    can raise its argument errors first."""
    b = _path_count(b, "b")
    window = _path_count(window, "window")
    n = _path_count(n, "n")
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    return b, window, n


def sample_rk_profile_batch(
    b: int, h: float, window: int, n: int, rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """n independent profiles on sites -window..b+window, one row each.

    The inner chain runs from the pivot down to 0; the right outer chain
    starts at the pivot value h, the left outer chain at the inner chain's
    endpoint; the three chains use independent substreams.  Each step draws
    one site's values for all n profiles at once, so they are written into
    one contiguous row per site and the ``(n, sites)`` array returned is the
    transpose of that buffer (Fortran-ordered): a site's column reads as
    fast as a contiguous vector.  Raises ``ValueError`` naming the argument
    on a ``b``, ``window`` or ``n`` that is not an integer, on ``b < 1`` or a
    negative ``window`` or ``n``, and on an ``h`` that is not finite and
    positive.

    ``out``, if given, is the buffer the profiles are written into: a
    C-ordered float64 array of shape ``(b + 2 * window + 1, n)``, every entry
    of which is overwritten; the array returned is its transpose.  A caller
    that runs the sampler on a worker thread passes one of its own, so that
    the buffer is not taken from the worker's heap, which glibc keeps apart
    per thread and which holds on to what is freed in it.  ``ValueError``
    naming ``out`` for any other array.
    """
    b, window, n = _profile_arguments(b, h, window, n)
    sites = np.arange(-window, b + window + 1)
    shape = (len(sites), n)                # row x + window holds site x
    if out is None:
        values = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered float64 array of shape {shape}")
    else:
        values = out
    inner_rng, right_rng, left_rng = rng.spawn(3)

    cur = np.full(n, float(h))
    values[b + window] = cur
    for x in range(b - 1, -1, -1):
        cur = _step(cur, 1.0, inner_rng)
        values[x + window] = cur

    cur = np.full(n, float(h))
    for x in range(b + 1, b + window + 1):
        cur = _step(cur, 0.0, right_rng)
        values[x + window] = cur

    cur = values[window]
    for x in range(-1, -window - 1, -1):
        cur = _step(cur, 0.0, left_rng)
        values[x + window] = cur
    return sites, values.T


# ---------------------------------------------------------------------------
# fixed-time product identity
# ---------------------------------------------------------------------------

def _check_srw_on_interval(gen: Generator, R: Tuple[int, ...]) -> np.ndarray:
    """Escape rates (0 or 1) of a unit-rate nearest-neighbor generator on
    interval R, read from :func:`density.range_rates`; ``NotSRWError`` names
    the first offending rate (row-major), else the first escape rate."""
    rates = range_rates(gen, R)
    bad = np.argwhere(np.abs(rates.B - np.eye(len(R), k=1) - np.eye(len(R), k=-1)) > 1e-12)
    if bad.size:
        i, j = bad[0]
        raise NotSRWError(
            f"rate {rates.B[i, j]} from {R[i]} to {R[j]} is not unit nearest-neighbor")
    escape = -rates.diag - rates.B.sum(axis=1)
    # the distance to the allowed values: 0 inside, 0 or 1 at the two ends
    miss = np.abs(escape)
    miss[[0, -1]] = np.minimum(miss[[0, -1]], np.abs(escape[[0, -1]] - 1.0))
    if np.any(miss > 1e-12):
        i = int(np.argmax(miss > 1e-12))
        raise NotSRWError(
            f"escape rate {escape[i]} at {R[i]} is not unit-rate nearest-neighbor")
    return np.where(np.abs(escape) < 1e-12, 0.0, 1.0)


def rk_fixed_time_check(
    R, a: int, b: int, l, generator: Optional[Generator] = None
) -> Tuple[float, float]:
    """Evaluate both sides of the fixed-time product identity.

    Returns (certified-series value, kernel-product value).  The walk is
    reversible, so with lo <= hi the ends a, b in either order, the kernel
    product chains outer density factors from lo down and from hi up, inner
    factors between them, and an absorption atom exp(-l_end) for each interval
    end the walk can escape from (escape rates are read off the generator;
    the default is the escape-free walk on R itself).
    """
    R, _, _ = _range_positions(R, a, b)
    R_sorted = _integer_interval(R)
    a, b = int(a), int(b)
    lo, hi = sorted((a, b))
    if generator is None:
        if len(R_sorted) == 1:
            raise ValueError("the default generator needs |R| >= 2")
        generator = srw_generator(R_sorted[0], R_sorted[-1])
    escape = _check_srw_on_interval(generator, R_sorted)

    lvec = dict(zip(R, _read_request(generator, R, a, b, l).l))
    # the series, not the routed density: on an interval that would be the
    # tree product, which is this kernel product again
    rho = density_certified(generator, R_sorted, a, b, lvec, tol=1e-13).value

    kernel = math.exp(-float(sum(escape[i] * lvec[x] for i, x in enumerate(R_sorted))))
    for x in range(R_sorted[0] + 1, lo + 1):         # left outer chain
        kernel *= rk_outer_density(lvec[x], lvec[x - 1])
    for x in range(lo, hi):                          # inner block
        kernel *= rk_inner_density(lvec[x], lvec[x + 1])
    for x in range(hi, R_sorted[-1]):                # right outer chain
        kernel *= rk_outer_density(lvec[x], lvec[x + 1])
    return rho, kernel
