"""Modified Bessel functions I0, I1 and the scalar edge kernels built on them.

All series are summed directly with term-ratio stopping; arguments at desk
scale (|x| <= ~60) stay well inside double precision because every term is
positive.
"""

from .errors import DomainError

_REL_TOL = 1e-16


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


def edge_kernel(c: float, lx: float, ly: float) -> float:
    """Scalar kernel of one nearest-neighbor edge.

    Value of the circle average of exp(t(B_xy e^{i th} + B_yx e^{-i th})) at
    t = sqrt(lx*ly), which collapses to the series

        sum_k c^k (lx*ly)^k / (k!)^2,      c = B_xy * B_yx.

    For c >= 0 this equals I0(2*sqrt(c*lx*ly)); kernel value at t=0 is 1.
    """
    z = c * lx * ly
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= z / (k * k)
        total += term
        if abs(term) <= _REL_TOL * abs(total) or k > 400:
            return total
        k += 1


def edge_kernel_d(c: float, lx: float, ly: float) -> float:
    """Derivative of :func:`edge_kernel` with respect to its first local time.

    d/dlx sum_k c^k (lx*ly)^k / (k!)^2 = c*ly * sum_k (c*lx*ly)^k / (k!(k+1)!).
    The kernel is symmetric in (lx, ly), so the derivative in ly is obtained
    by swapping the arguments.
    """
    z = c * lx * ly
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= z / (k * (k + 1))
        total += term
        if abs(term) <= _REL_TOL * abs(total) or k > 400:
            return c * ly * total
        k += 1
