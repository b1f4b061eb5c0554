"""Modified Bessel functions I0, I1 and the scalar edge kernels built on them.

All series are summed directly with term-ratio stopping; arguments at desk
scale (|x| <= ~60) stay well inside double precision because every term is
positive.  The edge kernels raise NonConvergedTruncationError rather than
return a truncated or infinite sum.
"""

import math

from .errors import DomainError, NonConvergedTruncationError

_REL_TOL = 1e-16
_MAX_TERMS = 400


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0.

    Power series sum_k (x/2)^(2k) / (k!)^2, summed until the next term falls
    below 1e-16 of the accumulated value.
    """
    if x < 0:
        raise DomainError(f"bessel_i0 requires x >= 0, got {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= q / (k * k)
        total += term
        if term <= _REL_TOL * total:
            return total
        k += 1


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1 (= I0').

    Power series (x/2) * sum_k (x^2/4)^k / (k! (k+1)!).
    """
    if x < 0:
        raise DomainError(f"bessel_i1 requires x >= 0, got {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= q / (k * (k + 1))
        total += term
        if term <= _REL_TOL * total:
            return 0.5 * x * total
        k += 1


def _edge_series(z: float, shift: int) -> float:
    """sum_k z^k / (k! (k+shift)!) for shift 0 or 1, with term-ratio stopping.

    Raises NonConvergedTruncationError when _MAX_TERMS terms do not meet the
    stop test or the sum is not finite (the exact value overflows a double).
    """
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= z / (k * (k + shift))
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            if not math.isfinite(total):
                raise NonConvergedTruncationError(
                    f"edge kernel series at z = {z!r} is not finite")
            return total
        if k >= _MAX_TERMS:
            raise NonConvergedTruncationError(
                f"edge kernel series at z = {z!r} not converged in {_MAX_TERMS} terms")
        k += 1


def edge_kernel(c: float, lx: float, ly: float) -> float:
    """Scalar kernel of one nearest-neighbor edge.

    Value of the circle average of exp(t(B_xy e^{i th} + B_yx e^{-i th})) at
    t = sqrt(lx*ly), which collapses to the series

        sum_k c^k (lx*ly)^k / (k!)^2,      c = B_xy * B_yx.

    For c >= 0 this equals I0(2*sqrt(c*lx*ly)); kernel value at t=0 is 1.
    """
    return _edge_series(c * lx * ly, 0)


def edge_kernel_d(c: float, lx: float, ly: float) -> float:
    """Derivative of :func:`edge_kernel` with respect to its first local time.

    d/dlx sum_k c^k (lx*ly)^k / (k!)^2 = c*ly * sum_k (c*lx*ly)^k / (k!(k+1)!).
    The kernel is symmetric in (lx, ly), so the derivative in ly is obtained
    by swapping the arguments.
    """
    return c * ly * _edge_series(c * lx * ly, 1)
