"""Scalar edge kernels of the tridiagonal density route.

Each kernel is a modified-Bessel power series summed directly with
term-ratio stopping.  It raises NonConvergedTruncationError rather than
return a truncated or infinite sum.
"""

import math

from .errors import NonConvergedTruncationError

_REL_TOL = 1e-16
_MAX_TERMS = 400


def _edge_series(z: float, shift: int) -> float:
    """sum_k z^k / (k! (k+shift)!) for shift 0 or 1, with term-ratio stopping.

    Raises NonConvergedTruncationError when _MAX_TERMS terms do not meet the
    stop test or the sum is not finite (the exact value overflows a double).
    """
    z = float(z)  # Python floats overflow to inf quietly, which the test below catches
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
