"""Edge kernels, the one place a Bessel function is evaluated.

For c = B_xy * B_yx >= 0 the kernel of one nearest-neighbor edge is I0(z),
with z = 2*sqrt(c*lx*ly), and its derivative in lx is c*ly * I1(z) / (z/2).
Both are read from scipy's exponentially scaled ``ive``:
:func:`scaled_edge_kernel` returns z and the kernel divided by e^z, which is
a double at every z, so a product of kernels can apply its exponent once.
It takes scalars, for the Ray-Knight transition kernels, or arrays; the
tree route of the density calls the array form, :func:`_scaled_kernels`,
directly (every edge at every row of local times at once), since its rate
products are nonnegative by construction.
:func:`edge_kernel` multiplies by e^z and raises
NonConvergedTruncationError rather than return inf.
"""

import math
from typing import Optional, Tuple

import numpy as np
from scipy.special import ive

from .errors import NonConvergedTruncationError


def scaled_edge_kernel(order, c, lx, ly) -> Tuple:
    """(z, K / e^z) for the edge kernel K (order 0) or its derivative in lx
    (order 1), with z = 2*sqrt(c*lx*ly).

    Order 0 is ive(0, z); order 1 is c*ly * ive(1, z) / (z/2), and exactly
    c*ly at z = 0.  ``c``, ``lx`` and ``ly`` are floats, or arrays that
    broadcast with an ``order`` of 0s and 1s, giving the scalar bits entry
    by entry.  A rate product c < 0 raises ``ValueError``.
    """
    if isinstance(c, np.ndarray) or isinstance(lx, np.ndarray) or isinstance(ly, np.ndarray):
        c = np.asarray(c, dtype=float)
        if c.size and c.min() < 0:
            raise ValueError(f"edge kernel rate product must be >= 0; got {c.min()!r}")
        return _scaled_kernels(order, c, lx, ly)
    c, lx, ly = float(c), float(lx), float(ly)  # Python floats do not warn
    if c < 0:
        raise ValueError(f"edge kernel rate product must be >= 0; got {c!r}")
    z = 2.0 * math.sqrt(c * lx * ly)
    if order == 0:
        return z, float(ive(0, z))
    if z == 0.0:
        return z, c * ly
    return z, c * ly * float(ive(1, z)) / (z / 2)


def _scaled_kernels(order, c: np.ndarray, lx, ly,
                    z: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`scaled_edge_kernel` on arrays, for rate products ``c`` already
    known to be >= 0; z is written into ``z`` where one is given (it must
    have the broadcast shape).  An ``order`` of the int 0 is order 0 at
    every entry, and no derivative is computed."""
    half = np.sqrt(c * lx * ly)
    z = np.add(half, half, out=z)
    scaled = ive(order, z)
    if isinstance(order, int) and order == 0:
        return z, scaled
    derivative = c * ly  # the kernel where z = 0
    np.divide(derivative * scaled, half, out=derivative, where=half != 0.0)
    return z, np.where(order, derivative, scaled)


def edge_kernel(c: float, lx: float, ly: float) -> float:
    """Scalar kernel of one nearest-neighbor edge.

    Value of the circle average of exp(t(B_xy e^{i th} + B_yx e^{-i th})) at
    t = sqrt(lx*ly), which collapses to the series

        sum_k c^k (lx*ly)^k / (k!)^2 = I0(2*sqrt(c*lx*ly)),   c = B_xy * B_yx.

    The kernel value at t = 0 is 1.  Where I0 or e^z is not a double
    (z > 709.78), NonConvergedTruncationError is raised.
    """
    z, scaled = scaled_edge_kernel(0, c, lx, ly)
    try:
        value = scaled * math.exp(z)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonConvergedTruncationError(f"edge kernel at z = {z!r} is not finite")
    return value
