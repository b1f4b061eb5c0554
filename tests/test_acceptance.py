"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here; seeds are pinned so each run
reproduces the same numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from loctimes.chain import srw_generator, validate_generator
from loctimes.density import (
    _replaced_matrix,
    density,
    density_certified,
    density_quadrature,
    density_tridiagonal,
)
from loctimes.harness import (
    ldp_probability_experiment,
    ldp_varadhan_experiment,
    verify_density_mc,
    verify_rayknight_mc,
)
from loctimes.montecarlo import sample_paths_fixed_time
from loctimes.rates import (
    density_upper_bound,
    eta,
    rate_general,
    rate_symmetric,
)
from loctimes.rayknight import (
    rk_fixed_time_check,
    rk_inner_density,
    rk_outer_atom,
    rk_outer_density,
)

TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def gauss_nodes(T: float, n: int = 120):
    """Gauss-Legendre nodes for integrating over (0, T) with the substitution
    l = T sin^2(u), which removes the inverse-square-root edge behavior."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    u = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    l = T * np.sin(u) ** 2
    jac = 2.0 * T * np.sin(u) * np.cos(u)
    return l, w * jac


# ---------------------------------------------------------------------------
# 1. two-state partition of unity
# ---------------------------------------------------------------------------

def test_criterion_01_partition_of_unity():
    t_start = time.time()
    worst = 0.0
    for T in (0.1, 1.0, 5.0):
        l2, w = gauss_nodes(T)
        rho12 = np.array([
            density(TWO_STATE, (1, 2), 1, 2, [T - x, x], tol=1e-12) for x in l2])
        rho11 = np.array([
            density(TWO_STATE, (1, 2), 1, 1, [T - x, x], tol=1e-12) for x in l2])
        q12 = float(w @ rho12)
        q11 = float(w @ rho11)
        # the Bessel integrals collapse to sinh and cosh - 1
        worst = max(worst, abs(q12 - math.exp(-T) * math.sinh(T)))
        worst = max(worst, abs(q11 - math.exp(-T) * (math.cosh(T) - 1.0)))
        total = math.exp(-T) + q12 + q11
        worst = max(worst, abs(total - 1.0))
    elapsed = time.time() - t_start
    report(1, worst < 1e-8,
           f"partition of unity at T in (0.1, 1, 5); worst residual "
           f"{worst:.2e} (tol 1e-8), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. oracle triangle
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_triangle():
    t_start = time.time()
    rng = np.random.default_rng(20240802)
    window = srw_generator(-1, 6)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 5))
        lo = int(rng.integers(-1, 7 - size))
        R = tuple(range(lo, lo + size))
        a = int(rng.choice(R))
        b = int(rng.choice([x for x in R if x >= a]))
        T = rng.uniform(0.4, 2.0)
        l = rng.dirichlet(np.ones(size)) * T
        l = np.maximum(l, 0.03 * T)
        v_series = density_certified(window, R, a, b, l, tol=1e-12).value
        v_quad = density_quadrature(window, R, a, b, l)
        v_tri = density_tridiagonal(window, R, a, b, l)
        scale = max(abs(v_series), 1e-300)
        worst = max(worst, abs(v_series - v_quad) / scale,
                    abs(v_series - v_tri) / scale, abs(v_quad - v_tri) / scale)
    elapsed = time.time() - t_start
    report(2, worst < 1e-8,
           f"series/quadrature/tridiagonal pairwise within 1e-8 relative on "
           f"100 walk intervals; worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. r-invariance of the density
# ---------------------------------------------------------------------------

def test_criterion_03_r_invariance():
    t_start = time.time()
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for _ in range(100):
        tridiagonal = bool(rng.integers(0, 2))
        n = int(rng.integers(2, 5 if tridiagonal else 4))
        B = rng.uniform(0.3, 1.3, (n, n))
        if tridiagonal:
            mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
            B = np.where(mask, B, 0.0)
        else:
            np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n)))
        T = rng.uniform(0.4, 1.5)
        l = np.maximum(rng.dirichlet(np.ones(n)), 0.03) * T
        a, b = (int(v) for v in rng.integers(0, n, 2))
        R = tuple(range(n))
        base = density_certified(g, R, a, b, l, tol=1e-11).value
        r = rng.uniform(0.5, 2.0, n)
        conj = density_certified(g, R, a, b, l, tol=1e-11, conjugation=r).value
        worst = max(worst, abs(conj - base) / max(1.0, abs(base)))
    elapsed = time.time() - t_start
    report(3, worst < 1e-9,
           f"conjugated-weight density matches r=1 within 1e-9 on 100 random "
           f"positive r; worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Monte Carlo law of the local times
# ---------------------------------------------------------------------------

def test_criterion_04_monte_carlo_law():
    t_start = time.time()
    g3 = srw_generator(0, 2)
    rep = verify_density_mc(g3, 0, 2, (0, 1, 2), 2.0, 1_000_000,
                            cells_per_axis=7, seed=20240804)
    diag = rep.diagnostics
    ok = diag["p_value"] > 1e-3 and abs(diag["conditioning_z"]) < 4.0

    details = [f"3-state chi-square p={diag['p_value']:.4f} over {diag['dof'] + 1} merged "
               f"cells (threshold 0.001)"]
    rep12 = verify_density_mc(TWO_STATE, 1, 2, (1, 2), 1.0, 1_000_000,
                              cells_per_axis=40, seed=20240805)
    z12 = rep12.diagnostics["z_analytic"]
    rep11 = verify_density_mc(TWO_STATE, 1, 1, (1, 2), 1.0, 1_000_000,
                              cells_per_axis=40, seed=20240806)
    z11 = rep11.diagnostics["z_analytic"]
    ok = ok and abs(z12) < 4.0 and abs(z11) < 4.0 \
        and rep12.diagnostics["p_value"] > 1e-3 and rep11.diagnostics["p_value"] > 1e-3
    details.append(f"two-state conditioning z(switch)={z12:.2f}, "
                   f"z(return)={z11:.2f} (|z|<4)")
    elapsed = time.time() - t_start
    report(4, ok, "; ".join(details) + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Hadamard bound and eta monotonicity
# ---------------------------------------------------------------------------

def test_criterion_05_hadamard_and_eta():
    t_start = time.time()
    rng = np.random.default_rng(20240807)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        B = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n)))
        eta_R = eta(g, tuple(range(n)))
        k = int(rng.integers(2, n + 1))
        X = sorted(map(int, rng.choice(n, size=k, replace=False)))
        a, b = rng.choice(X, 2)
        value = abs(np.linalg.det(_replaced_matrix(-B[np.ix_(X, X)], X.index(a), X.index(b))))
        if value > eta_R ** (len(X) - 1) * (1 + 1e-12) + 1e-12:
            violations += 1
    mono_violations = 0
    for _ in range(1_000):
        n = int(rng.integers(2, 8))
        B = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n)))
        size_small = int(rng.integers(1, n))
        small = tuple(map(int, rng.choice(n, size=size_small, replace=False)))
        extra = [x for x in range(n) if x not in small]
        rng.shuffle(extra)
        big = small + tuple(extra[: int(rng.integers(1, len(extra) + 1))])
        if eta(g, big) < eta(g, small):
            mono_violations += 1
    elapsed = time.time() - t_start
    report(5, violations == 0 and mono_violations == 0,
           f"Hadamard bound violations {violations}/10000, eta monotonicity "
           f"violations {mono_violations}/1000, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. pointwise dominance of the density bound
# ---------------------------------------------------------------------------

def _support_matrix(rng, kind, n):
    B = np.zeros((n, n))
    pairs = []
    if kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle" and n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star" and n >= 3:
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j) in pairs:
        B[i, j] = B[j, i] = 1.0
    return B


def test_criterion_06_pointwise_dominance():
    t_start = time.time()
    rng = np.random.default_rng(20240808)
    kinds = ("path", "cycle", "star", "complete")
    worst_margin = math.inf

    def run_instance(symmetric, dense4=False):
        if dense4:
            n = n_eff = 4
            support = _support_matrix(rng, "complete", 4)
            rate_lo, rate_hi, t_hi = 0.2, 0.5, 1.0  # keep the flow budget sane
        else:
            n = int(rng.integers(1, 5))
            n_eff = max(n, 2)
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "complete" and n_eff == 4:
                kind = "path"  # dense-4 handled by the dedicated instances
            support = _support_matrix(rng, kind if n > 1 else "path", n_eff)
            rate_lo, rate_hi, t_hi = 0.3, 1.3, 1.6
        rates = rng.uniform(rate_lo, rate_hi, (n_eff, n_eff))
        B = support * rates
        if symmetric:
            B = np.where(support > 0, 0.5 * (B + B.T), 0.0)
        else:
            B = np.where(support > 0, rng.uniform(rate_lo, rate_hi, B.shape), 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n_eff)))
        R = tuple(range(n))
        T = rng.uniform(0.4, t_hi)
        l = np.maximum(rng.dirichlet(np.ones(n)), 0.04) * T
        a, b = (int(v) for v in rng.integers(0, n, 2))
        rho = density(g, R, a, b, l, tol=1e-10)
        bound = density_upper_bound(g, R, a, b, l)
        return bound - rho

    violations = 0
    for k in range(1000):
        margin = run_instance(symmetric=True, dense4=k % 100 == 50)
        worst_margin = min(worst_margin, margin)
        violations += margin < -1e-12
    for k in range(100):
        margin = run_instance(symmetric=False, dense4=k % 25 == 12)
        worst_margin = min(worst_margin, margin)
        violations += margin < -1e-12
    elapsed = time.time() - t_start
    report(6, violations == 0,
           f"density <= bound + 1e-12 on 1000 symmetric and 100 asymmetric "
           f"instances; smallest margin {worst_margin:.3e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. finite-time LDP dominance
# ---------------------------------------------------------------------------

def test_criterion_07_ldp_dominance():
    t_start = time.time()
    details = []
    ok = True
    three = srw_generator(0, 2)
    for T in (5.0, 10.0):
        rep = ldp_probability_experiment(TWO_STATE, 1, (1, 2), 2, 0.8, T,
                                         1_000_000, seed=20240809 + int(T))
        ok &= rep.passed
        details.append(f"2-state T={T:g}: logP_up={rep.diagnostics['log_p_upper']:.2f} <= "
                       f"bound={rep.diagnostics['bound']:.2f}")
        rep = ldp_probability_experiment(three, 0, (0, 1), 1, 0.7, T,
                                         1_000_000, seed=20240819 + int(T))
        ok &= rep.passed
        details.append(f"3-state T={T:g}: logP_up={rep.diagnostics['log_p_upper']:.2f} <= "
                       f"bound={rep.diagnostics['bound']:.2f}")
    for T in (1.0, 5.0, 20.0):
        rep = ldp_varadhan_experiment(TWO_STATE, 1, (1, 2), [0.0, 0.5], T)
        ok &= rep.passed
        details.append(f"varadhan T={T:g}: logE={rep.diagnostics['log_mgf']:.2f} <= "
                       f"bound={rep.diagnostics['bound']:.2f}")
        rep = ldp_varadhan_experiment(three, 0, (0, 1, 2), [0.0, 0.3, 0.1], T)
        ok &= rep.passed
    elapsed = time.time() - t_start
    report(7, ok, "; ".join(details) + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. rate function cross-checks
# ---------------------------------------------------------------------------

def test_criterion_08_rate_function():
    t_start = time.time()
    rng = np.random.default_rng(20240810)
    worst_value = 0.0
    worst_minimizer = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        B = rng.uniform(0.3, 1.3, (n, n))
        B = 0.5 * (B + B.T)
        np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n)))
        mu = np.maximum(rng.dirichlet(np.ones(n)), 1e-3)
        mu /= mu.sum()
        sol = rate_general(g, mu, tol=1e-11)
        worst_value = max(worst_value, abs(sol.value - rate_symmetric(g, mu)))
        gvec = np.array([sol.minimizer[x] for x in g.states])
        ref = np.sqrt(mu) / math.sqrt(mu[0])
        worst_minimizer = max(worst_minimizer, float(np.max(np.abs(gvec - ref))))

    asym = validate_generator([[-2.0, 2.0], [1.0, -1.0]], (1, 2))
    mu = np.array([0.5, 0.5])
    ts = np.linspace(-2.0, 2.0, 400_001)
    J = -0.5 * (-2.0 + 2.0 * np.exp(ts)) - 0.5 * (np.exp(-ts) - 1.0)
    k = int(np.argmax(J))
    t0, t1, t2 = ts[k - 1 : k + 2]
    j0, j1, j2 = J[k - 1 : k + 2]
    t_star = t1 - 0.5 * (j2 - j0) / (j0 - 2 * j1 + j2) * (t1 - t0)
    j_star = -0.5 * (-2.0 + 2.0 * math.exp(t_star)) - 0.5 * (math.exp(-t_star) - 1.0)
    sol = rate_general(asym, mu, tol=1e-12)
    asym_err = abs(sol.value - j_star)

    ok = worst_value < 1e-6 and worst_minimizer < 1e-4 and asym_err < 1e-8
    elapsed = time.time() - t_start
    report(8, ok,
           f"symmetric value err {worst_value:.2e} (<1e-6), minimizer err "
           f"{worst_minimizer:.2e} (<1e-4), asymmetric grid-oracle err "
           f"{asym_err:.2e} (<1e-8), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Ray-Knight kernels and the fixed-time identity
# ---------------------------------------------------------------------------

def test_criterion_09_rayknight_kernels():
    t_start = time.time()
    worst_norm = 0.0
    for h1 in (0.1, 1.0, 5.0):
        total, _ = integrate.quad(lambda h2: rk_inner_density(h1, h2), 0, np.inf,
                                  limit=300, epsabs=1e-13, epsrel=1e-12)
        worst_norm = max(worst_norm, abs(total - 1.0))
        total, _ = integrate.quad(lambda h2: rk_outer_density(h1, h2), 0, np.inf,
                                  limit=300, epsabs=1e-13, epsrel=1e-12)
        worst_norm = max(worst_norm, abs(rk_outer_atom(h1) + total - 1.0))

    from scipy import stats
    hs = np.linspace(0.25, 5.0, 20)
    ks = np.arange(221)
    worst_mix = 0.0
    for h1 in hs:
        pois = stats.poisson.pmf(ks, h1)
        for h2 in hs:
            inner = float((pois * stats.gamma.pdf(h2, ks + 1.0)).sum())
            outer = float((pois[1:] * stats.gamma.pdf(h2, ks[1:])).sum())
            worst_mix = max(worst_mix, abs(inner - rk_inner_density(h1, h2)),
                            abs(outer - rk_outer_density(h1, h2)))

    rng = np.random.default_rng(20240811)
    worst_fixed = 0.0
    for lo, hi in ((0, 1), (0, 2), (-1, 2), (1, 4)):
        R = tuple(range(lo, hi + 1))
        for a in R:
            for b in R:
                if a > b:
                    continue
                l = rng.dirichlet(np.ones(len(R))) + 0.05
                for gen in (None, srw_generator(lo - 3, hi + 3)):
                    rho, kernel = rk_fixed_time_check(R, a, b, l, generator=gen)
                    worst_fixed = max(
                        worst_fixed, abs(rho - kernel) / max(abs(rho), 1e-300))
    ok = worst_norm < 1e-10 and worst_mix < 1e-10 and worst_fixed < 1e-10
    elapsed = time.time() - t_start
    report(9, ok,
           f"kernel normalization err {worst_norm:.1e}, mixture err "
           f"{worst_mix:.1e}, fixed-time identity rel err {worst_fixed:.1e} "
           f"(all < 1e-10), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. Ray-Knight distributional equivalence
# ---------------------------------------------------------------------------

def test_criterion_10_rayknight_equivalence():
    t_start = time.time()
    rep = verify_rayknight_mc(pivot=2, level=1.0, n_samples=200_000,
                              seed=20240812)
    moment_zs = [(row[0], row[3], row[6]) for row in rep.rows]
    z = {c.name: c.value for c in rep.checks}
    ok = rep.passed
    elapsed = time.time() - t_start
    report(10, ok,
           f"moment z-scores {moment_zs} (|z|<3), atom z right "
           f"{z['atom_right_z']:.2f}, vs exact {z['atom_right_vs_exact_z']:.2f}, "
           f"left {z['atom_left_z']:.2f} (|z|<4), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. boundary vanishing at interval endpoints
# ---------------------------------------------------------------------------

def test_criterion_11_boundary_vanishing():
    t_start = time.time()
    ok = True
    details = []
    for V, c in (((0, 1, 2), 0), ((0, 1, 2), 2), ((0, 1, 2, 3), 0),
                 ((0, 1, 2, 3), 3)):
        g = srw_generator(min(V), max(V))
        values = []
        for lc in (1e-2, 1e-3, 1e-4):
            rest = [0.5] * (len(V) - 1)
            l = {x: (lc if x == c else rest.pop()) for x in V}
            v_tri = density_tridiagonal(g, V, c, c, l)
            v_ser = density_certified(g, V, c, c, l, tol=1e-13).value
            ok &= abs(v_tri - v_ser) <= 1e-10 * max(1.0, abs(v_ser))
            values.append(v_tri)
        ok &= values[0] > values[1] > values[2] > 0.0
        details.append(f"V={V}, c={c}: " + " > ".join(f"{v:.2e}" for v in values))
    elapsed = time.time() - t_start
    report(11, ok, "; ".join(details) + f" (monotone to 0), {elapsed:.0f}s")
