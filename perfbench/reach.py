"""Reach set: inputs on which loctimes is known to fail today (ROADMAP items
4a and 4b, and a rate_general stall found by the density sweep), evaluated
once per benchmark run outside the timed operations.

Each input passes when the library answers it correctly: a finite value that
agrees with a second route where one exists, or a typed ``LoctimesError``
where the exact value is not representable in double precision.  Anything
else is recorded by name with its typed error or its wrong value.

    python3 perfbench/reach.py [--short]

prints one JSON list of ``{"name", "ok", "outcome", "seconds"}`` as its last
line; ``--short`` skips the inputs that take seconds each.
"""

import json
import math
import sys
import time

from worker import _import_library

AGREEMENT_REL = 1e-8


def _complete_graph(loctimes, n):
    import numpy as np

    rates = np.ones((n, n))
    np.fill_diagonal(rates, 0.0)
    return loctimes.validate_generator(rates)


def _density_case(loctimes, gen, l, second_route):
    R = gen.states
    value = loctimes.density(gen, R, R[0], R[-1], l)
    if not math.isfinite(value):
        return False, repr(value)
    try:
        other = second_route(gen, R, R[0], R[-1], l)
    except ValueError:
        return value > 0.0, f"value {value!r} (no second route)"
    if abs(value - other) <= AGREEMENT_REL * abs(other):
        return True, f"value {value!r}"
    return False, f"value {value!r} against {other!r}"


def cases(loctimes, short: bool):
    from scipy import special

    def kn(n):
        return lambda: _density_case(loctimes, _complete_graph(loctimes, n), [0.5] * n,
                                     loctimes.density_quadrature)

    def srw(sites, T):
        gen = loctimes.srw_generator(0, sites - 1)
        return lambda: _density_case(loctimes, gen, [T / sites] * sites,
                                     loctimes.density_tridiagonal)

    def rk_inner():
        value = loctimes.rk_inner_density(400.0, 400.0)
        exact = float(special.i0e(800.0))    # exp(-800) I0(800)
        ok = math.isfinite(value) and abs(value - exact) <= AGREEMENT_REL * exact
        return ok, repr(value)

    def edge_kernel_overflow():
        # I0(2000) exceeds the double range: the right answer is a typed error
        value = loctimes.edge_kernel(1.0, 1e3, 1e3)
        return False, repr(value)

    def rate_general_stall():
        # a density-sweep chain on which rate_general stops at gradient norm
        # 6e-9 against its tolerance 1e-10 (rounding the inputs hides it)
        gen = loctimes.validate_generator(
            [[0.0, 0.5636063111895461, 0.9765317145717166],
             [0.655292623786009, 0.0, 1.3225417834995046],
             [1.2011180219474644, 0.847351218183209, 0.0]])
        l = [0.6143422337787182, 0.7872411077413165, 0.01792064514420062]
        bound = loctimes.density_upper_bound(gen, gen.states, 0, 1, l)
        value = loctimes.density(gen, gen.states, 0, 1, l)
        return math.isfinite(bound) and bound >= value, f"bound {bound!r}"

    # (name, evaluation, whether a typed error is the correct answer)
    out = [("srw3-T60", srw(3, 60.0), False),
           ("rate_general-stall", rate_general_stall, False),
           ("rk_inner_density(400,400)", rk_inner, False),
           ("edge_kernel(1,1e3,1e3)", edge_kernel_overflow, True)]
    if not short:
        out += [("K4-l0.5", kn(4), False), ("K5-l0.5", kn(5), False),
                ("srw7-T10", srw(7, 10.0), False)]
    return out


def evaluate(loctimes, short: bool = False):
    results = []
    for name, fn, typed_error_ok in cases(loctimes, short):
        t0 = time.perf_counter()
        try:
            ok, outcome = fn()
        except loctimes.errors.LoctimesError as exc:
            ok, outcome = typed_error_ok, type(exc).__name__
        except Exception as exc:  # an untyped failure is recorded, not fatal
            ok, outcome = False, f"untyped {type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": bool(ok), "outcome": outcome,
                        "seconds": time.perf_counter() - t0})
    return results


if __name__ == "__main__":
    lib = _import_library()
    print(json.dumps(evaluate(lib, short="--short" in sys.argv[1:])))
