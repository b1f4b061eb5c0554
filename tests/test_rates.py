import itertools
import math
import warnings

import numpy as np
import pytest

from loctimes.chain import Generator, generator_from_triples, srw_generator, validate_generator
from loctimes.density import _replaced_matrix, density, range_probability, range_rates
from loctimes.errors import (
    NegativeRateError,
    NonConvergedTruncationError,
    NotConvergedError,
    NotSymmetricError,
    TooEarlyError,
    UnboundedRateError,
)
from loctimes.rates import (
    _box_edges,
    density_upper_bound,
    eta,
    halfspace_rate_infimum,
    ldp_probability_bound,
    ldp_varadhan_bound,
    linear_varadhan_supremum,
    log_mgf_exact,
    rate_general,
    rate_symmetric,
    rescaled_chi_discrete,
)

TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


def random_symmetric_generator(rng, n):
    B = rng.uniform(0.3, 1.3, (n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0.0)
    A = B.copy()
    np.fill_diagonal(A, -B.sum(axis=1))
    return validate_generator(A, tuple(range(n)))


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def test_eta_floor_at_one():
    g = validate_generator([[0.0, 0.0], [0.0, 0.0]], (0, 1))
    assert eta(g, (0, 1)) == 1.0


def test_eta_single_entry():
    g = validate_generator([[0.0, 3.0], [0.0, 0.0]], (1, 2))
    assert eta(g, (1, 2)) == 3.0


def test_eta_srw_box_with_interior_point():
    # unit-rate walk on an integer box: eta equals twice the dimension
    g = srw_generator(-3, 3)
    assert eta(g, (-1, 0, 1)) == 2.0
    # two-dimensional lattice box
    sites = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]
    triples = []
    for (i, j) in sites:
        for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            t = (i + di, j + dj)
            if t in sites:
                triples.append(((i, j), t, 1.0))
    g2 = generator_from_triples(tuple(sites), triples)
    assert eta(g2, tuple(sites)) == 4.0


def test_eta_monotone_in_R():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = random_symmetric_generator(rng, n)
        size_small = int(rng.integers(1, n))
        small = tuple(map(int, rng.choice(n, size=size_small, replace=False)))
        extra = [x for x in range(n) if x not in small]
        rng.shuffle(extra)
        big = small + tuple(extra[: int(rng.integers(1, len(extra) + 1))])
        assert eta(g, big) >= eta(g, small)


def test_hadamard_bound_spot_check():
    rng = np.random.default_rng(1)
    for _ in range(500):
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
        sub = -B[np.ix_(X, X)]
        val = abs(np.linalg.det(_replaced_matrix(sub, X.index(a), X.index(b))))
        assert val <= eta_R ** (len(X) - 1) * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_rate_symmetric_examples():
    assert rate_symmetric(TWO_STATE, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)
    assert rate_symmetric(TWO_STATE, [1.0, 0.0]) == pytest.approx(1.0)
    assert rate_symmetric(TWO_STATE, [0.75, 0.25]) == pytest.approx(
        (math.sqrt(0.75) - math.sqrt(0.25)) ** 2)
    assert rate_symmetric(TWO_STATE, [0.75, 0.25]) == pytest.approx(0.1339746, abs=5e-8)


def test_rate_symmetric_requires_symmetry():
    g = validate_generator([[-2.0, 2.0], [1.0, -1.0]], (1, 2))
    with pytest.raises(NotSymmetricError):
        rate_symmetric(g, [0.5, 0.5])


def test_rate_general_matches_dirichlet_form_when_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        g = random_symmetric_generator(rng, n)
        mu = rng.dirichlet(np.ones(n))
        mu = np.maximum(mu, 1e-3)
        mu /= mu.sum()
        sol = rate_general(g, mu, tol=1e-11)
        assert sol.value == pytest.approx(rate_symmetric(g, mu), abs=1e-6)
        gvec = np.array([sol.minimizer[x] for x in g.states])
        ref = np.sqrt(mu) / math.sqrt(mu[0])
        assert np.max(np.abs(gvec - ref)) < 1e-4
        assert sol.final_gradient_norm <= 1e-11


def test_rate_general_uniform_symmetric_is_zero():
    g = srw_generator(0, 3)
    n = g.n_states
    sol = rate_general(g, np.full(n, 1.0 / n))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(list(sol.minimizer.values()), 1.0, atol=1e-8)


def test_rate_general_asymmetric_matches_grid_oracle():
    g = validate_generator([[-2.0, 2.0], [1.0, -1.0]], (1, 2))
    mu = np.array([0.5, 0.5])
    # one gauge-free variable t = u2 - u1
    ts = np.linspace(-3, 3, 200_001)
    J = -0.5 * (-2.0 + 2.0 * np.exp(ts)) - 0.5 * (np.exp(-ts) - 1.0)
    k = int(np.argmax(J))
    # quadratic refinement around the best grid node
    t0, t1, t2 = ts[k - 1 : k + 2]
    j0, j1, j2 = J[k - 1 : k + 2]
    denom = j0 - 2 * j1 + j2
    t_star = t1 - 0.5 * (j2 - j0) / denom * (t1 - t0)
    j_star = -0.5 * (-2.0 + 2.0 * math.exp(t_star)) - 0.5 * (math.exp(-t_star) - 1.0)
    sol = rate_general(g, mu, tol=1e-12)
    assert sol.value == pytest.approx(j_star, abs=1e-8)
    assert sol.value == pytest.approx(0.5 * (3.0 - 2.0 * math.sqrt(2.0)), abs=1e-10)


def test_rate_general_objective_is_gauge_invariant():
    # scaling the returned minimizer leaves the evaluated objective unchanged
    g = validate_generator([[-2.0, 2.0], [1.0, -1.0]], (1, 2))
    mu = np.array([0.3, 0.7])
    sol = rate_general(g, mu, tol=1e-12)

    def objective(gvec):
        return -sum(
            mu[i] * sum(g.rates[i, j] * gvec[j] / gvec[i] for j in range(2))
            for i in range(2)
        )

    gvec = np.array([sol.minimizer[x] for x in g.states])
    assert objective(gvec) == pytest.approx(objective(7.3 * gvec), abs=1e-12)
    assert objective(gvec) == pytest.approx(sol.value, abs=1e-12)


def test_rate_general_zero_entries_restrict_support():
    g = srw_generator(0, 2)
    sol = rate_general(g, {0: 0.5, 1: 0.5, 2: 0.0})
    assert set(sol.minimizer) == {0, 1}
    assert sol.value > 0.0


def test_rate_general_singleton_support():
    sol = rate_general(TWO_STATE, [1.0, 0.0])
    assert sol.value == pytest.approx(1.0)
    assert sol.minimizer == {1: 1.0}


def test_rate_general_reducible_support_is_unbounded():
    g = validate_generator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                           (0, 1, 2))
    # support {0, 1} only connects 0 -> 1; no return path inside the support
    with pytest.raises(UnboundedRateError):
        rate_general(g, [0.5, 0.5, 0.0])


def test_rate_general_answers_a_symmetric_support_in_components():
    # mu on {0, 1} and {3} of the walk on 0..3: two components of a
    # symmetric support, where sqrt(mu) is the optimum on each
    g = srw_generator(0, 3)
    mu = [0.3, 0.3, 0.0, 0.4]
    sol = rate_general(g, mu)
    assert sol.iterations == 1 and sol.final_gradient_norm <= 1e-10
    assert sol.value == pytest.approx(rate_symmetric(g, mu), rel=1e-14)
    assert sol.value == pytest.approx(0.7, rel=1e-14)


def test_rate_general_irreducibility_needs_every_jump_of_a_cycle():
    # a directed 5-cycle connects its states only through paths of up to 4
    # jumps; sending the last state back instead of around leaves it one-way
    n = 5
    A = np.zeros((n, n))
    for k in range(n):
        A[k, (k + 1) % n] = 1.0
    mu = np.full(n, 1.0 / n)
    # uniform mu is the stationary law of the cycle, so its rate is 0
    assert rate_general(validate_generator(A), mu).value == pytest.approx(0.0, abs=1e-12)
    A[n - 1, 0], A[n - 1, n - 2] = 0.0, 1.0
    with pytest.raises(UnboundedRateError):
        rate_general(validate_generator(A), mu)


def test_rate_general_refuses_a_negative_rate_in_the_support():
    # a complete block with one rate of -0.2, and a block where that rate is
    # the only way out of state 0: the same error whatever the support's shape
    A = np.ones((3, 3))
    A[0, 1] = -0.2
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=1))
    with pytest.raises(NegativeRateError, match="negative rate -0.2 from position 0"):
        rate_general(Generator((0, 1, 2), A), np.full(3, 1.0 / 3.0))
    B = np.array([[0.0, -0.2, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    np.fill_diagonal(B, -B.sum(axis=1))
    with pytest.raises(NegativeRateError, match="negative rate -0.2 from position 0"):
        rate_general(Generator((0, 1, 2), B), np.full(3, 1.0 / 3.0))
    # outside the support of mu the rate is not read
    positive = A.copy()
    positive[0, 1], positive[0, 0] = 0.2, -1.2
    sol = rate_general(Generator((0, 1, 2), A), [0.0, 0.5, 0.5])
    assert sol.value == rate_general(validate_generator(positive), [0.0, 0.5, 0.5]).value


def test_rate_general_rejects_bad_mu():
    with pytest.raises(ValueError):
        rate_general(TWO_STATE, [0.7, 0.7])
    with pytest.raises(ValueError):
        rate_general(TWO_STATE, [-0.1, 1.1])


def test_rate_functions_reject_a_mu_that_is_not_finite():
    # nan fails both `vec < 0` and `|sum - 1| > 1e-9`; rate_general dropped
    # the state (value 0.5) and rate_symmetric returned nan
    g = srw_generator(0, 2)
    for mu, shown in (([math.nan, 0.5, 0.5], "nan at state 0"),
                      ([0.5, math.inf, 0.5], "inf at state 1"),
                      ({0: 0.5, 2: -math.inf}, "-inf at state 2")):
        for rate in (rate_general, rate_symmetric):
            with pytest.raises(ValueError, match=f"mu must be finite; got {shown}"):
                rate(g, mu)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_rate_general_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # with tol = nan the final check `gnorm > tol` never fires
    with pytest.raises(ValueError, match="finite tol > 0"):
        rate_general(TWO_STATE, [0.75, 0.25], tol=tol)


def _newton_from_sqrt_mu(A: np.ndarray, mu: np.ndarray, tol: float = 1e-10):
    """(value, minimizer, iterations) of the rate function of the block A
    at a mu positive on all of it: the damped Newton iteration of
    rate_general as it was before its reversible warm start, from g =
    sqrt(mu), kept as a reference."""
    B = A - np.diag(np.diag(A))
    const = -float(mu @ np.diag(A))

    def pieces(u):
        W = mu[:, None] * B * np.exp(u[None, :] - u[:, None])
        C = W + W.T
        return const - W.sum(), W.sum(axis=1) - W.sum(axis=0), C - np.diag(C.sum(axis=1))

    rounding = 16.0 * np.finfo(float).eps * float(mu @ -np.diag(A))
    u = 0.5 * (np.log(mu) - np.log(mu[0]))
    J, grad, H = pieces(u)
    for iterations in range(1, 201):
        gnorm = float(np.linalg.norm(grad[1:]))
        if gnorm <= tol:
            break
        step = np.linalg.solve(-H[1:, 1:], grad[1:])
        alpha = 1.0
        while alpha > 1e-14:
            u_try = u.copy()
            u_try[1:] += alpha * step
            J_try, grad_try, H_try = pieces(u_try)
            if (J_try >= J + 1e-4 * alpha * float(grad[1:] @ step)
                    or (J_try >= J - rounding
                        and float(np.linalg.norm(grad_try[1:])) < gnorm)):
                u, J, grad, H = u_try, J_try, grad_try, H_try
                break
            alpha *= 0.5
    assert float(np.linalg.norm(grad[1:])) <= tol
    return J, np.exp(u - u[0]), iterations


def _random_reversible(rng, shape: str, n: int):
    """A chain on n states with pi_x B_xy = pi_y B_yx for a random pi: a
    random tree, or an n-cycle (n = 3 or 4), with random symmetric
    conductances s_xy and rates B_xy = s_xy / pi_x."""
    if shape == "tree":
        pairs = [(int(rng.integers(0, x)), x) for x in range(1, n)]
    else:
        pairs = [(x, (x + 1) % n) for x in range(n)]
    pi = rng.uniform(0.2, 3.0, n)
    A = np.zeros((n, n))
    for x, y in pairs:
        s = rng.uniform(0.3, 1.5)
        A[x, y], A[y, x] = s / pi[x], s / pi[y]
    return validate_generator(A)


def test_reversible_ranges_take_the_closed_form():
    # trees with two-way edges and Kolmogorov-balanced 3- and 4-cycles:
    # rate_general starts at the optimum sqrt(mu / pi) and stops at its
    # first gradient check, with the value of Newton from sqrt(mu), and the
    # bound reads the symmetrized block without solving
    rng = np.random.default_rng(3600)
    shapes = [("tree", n) for n in (2, 3, 4, 5, 6)] + [("cycle", 3), ("cycle", 4)]
    checked = 0
    for k in range(140):
        shape, n = shapes[k % len(shapes)]
        g = _random_reversible(rng, shape, n)
        rates = range_rates(g, g.states)
        assert rates.reversible is not None and not rates.symmetric
        mu = rng.dirichlet(np.full(n, 2.0))
        mu = np.maximum(mu, 1e-3) / np.maximum(mu, 1e-3).sum()
        sol = rate_general(g, mu)
        value, minimizer, iterations = _newton_from_sqrt_mu(rates.A, mu)
        assert sol.iterations == 1
        assert sol.value == pytest.approx(value, rel=1e-10, abs=0)
        g_sol = np.array([sol.minimizer[x] for x in g.states])
        assert np.allclose(g_sol, minimizer, rtol=1e-6)
        # the bound: the formula with the minimizer Newton finds
        T = rng.uniform(0.5, 3.0)
        l = T * mu
        a, b = (int(x) for x in rng.integers(0, n, 2))
        sq = np.sqrt(l)
        btilde = rates.B * (sq[:, None] / sq[None, :]) * (minimizer[None, :] / minimizer[:, None])
        log_bound = (-T * value
                     + 0.5 * sum(math.log(T / l[i]) for i in range(n) if i not in (a, b))
                     + (n - 1) * math.log(rates.eta)
                     + (1.0 / rates.eta + 1.0 / (4.0 * rates.eta**2 * T)) * btilde.sum())
        bound = density_upper_bound(g, g.states, a, b, l)
        assert bound == pytest.approx(math.exp(log_bound), rel=1e-9)
        assert bound >= density(g, g.states, a, b, l)
        checked += 1
    assert checked >= 100


def _symmetric_bound_reference(g, R, a, b, l):
    """The bound's symmetric branch as written before the reversible one:
    the Dirichlet form of A and the weights B themselves."""
    rates = range_rates(g, R)
    l = np.asarray(l, dtype=float)
    T = float(l.sum())
    log_prefactor = 0.5 * sum(math.log(T / l[i]) for i in range(len(R))
                              if i not in (R.index(a), R.index(b)))
    log_prefactor += (len(R) - 1) * math.log(rates.eta)
    s = np.sqrt(l / T)
    rate = float(s @ (-rates.A) @ s)
    correction = (1.0 / rates.eta + 1.0 / (4.0 * rates.eta**2 * T)) * float(rates.B.sum())
    return math.exp(-T * rate + log_prefactor + correction)


def _newton_bound_reference(g, R, a, b, l):
    """The bound's general branch: the minimizer of rate_general."""
    rates = range_rates(g, R)
    l = np.asarray(l, dtype=float)
    T = float(l.sum())
    log_prefactor = 0.5 * sum(math.log(T / l[i]) for i in range(len(R))
                              if i not in (R.index(a), R.index(b)))
    log_prefactor += (len(R) - 1) * math.log(rates.eta)
    sol = rate_general(g, {x: v / T for x, v in zip(R, l)})
    gvec = np.array([sol.minimizer[x] for x in R])
    sq = np.sqrt(l)
    btilde = rates.B * (sq[:, None] / sq[None, :]) * (gvec[None, :] / gvec[:, None])
    correction = (1.0 / rates.eta + 1.0 / (4.0 * rates.eta**2 * T)) * float(btilde.sum())
    return math.exp(-T * sol.value + log_prefactor + correction), sol.iterations


def test_symmetric_ranges_keep_their_bound_bits():
    rng = np.random.default_rng(3601)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        g = random_symmetric_generator(rng, max(n, 2))
        R = tuple(range(n))
        l = rng.uniform(0.05, 2.0, n)
        a, b = (int(x) for x in rng.integers(0, n, 2))
        assert range_rates(g, R).reversible.A is range_rates(g, R).A
        assert (density_upper_bound(g, R, a, b, l).hex()
                == _symmetric_bound_reference(g, R, a, b, l).hex())
    # a symmetric support that is not connected keeps its bound too
    g = srw_generator(0, 2)
    assert (density_upper_bound(g, (0, 2), 0, 2, [0.4, 0.6]).hex()
            == _symmetric_bound_reference(g, (0, 2), 0, 2, [0.4, 0.6]).hex())


def test_ranges_without_detailed_balance_keep_the_newton_path():
    rng = np.random.default_rng(3602)
    l = [0.6, 0.9, 0.4, 0.7]
    # a one-way 4-cycle with a chord: strongly connected, one-way edges
    A = np.zeros((4, 4))
    for k in range(4):
        A[k, (k + 1) % 4] = rng.uniform(0.5, 1.5)
    A[0, 2] = 0.8
    # a two-way 4-cycle whose rates fail Kolmogorov's condition
    C = np.zeros((4, 4))
    for k in range(4):
        C[k, (k + 1) % 4], C[(k + 1) % 4, k] = rng.uniform(0.5, 1.5, 2)
    for rates_matrix in (A, C):
        g = validate_generator(rates_matrix)
        assert range_rates(g, g.states).reversible is None
        want, iterations = _newton_bound_reference(g, g.states, 0, 2, l)
        assert iterations > 1
        assert density_upper_bound(g, g.states, 0, 2, l).hex() == want.hex()
    # a one-way edge on a path, and two two-way components: the optimum
    # escapes to infinity, as before
    P = np.zeros((3, 3))
    P[0, 1], P[1, 0], P[1, 2] = 1.0, 2.0, 0.5
    D = np.zeros((4, 4))
    D[0, 1], D[1, 0], D[2, 3], D[3, 2] = 1.0, 2.0, 0.5, 1.5
    for rates_matrix in (P, D):
        g = validate_generator(rates_matrix)
        assert range_rates(g, g.states).reversible is None
        with pytest.raises(UnboundedRateError):
            density_upper_bound(g, g.states, 0, 1, l[:len(g.states)])


@pytest.mark.parametrize("rate_tol", [math.nan, math.inf, 0.0, -1.0])
def test_upper_bound_checks_rate_tol_on_every_branch(rate_tol):
    # the symmetric walk, a reversible path and a one-way cycle: only the
    # last one reaches rate_general, yet all three refuse the tolerance
    path = np.zeros((3, 3))
    path[0, 1], path[1, 0], path[1, 2], path[2, 1] = 2.0, 1.0, 0.5, 3.0
    cycle = np.roll(np.eye(3), 1, axis=1)
    for g in (srw_generator(0, 2), validate_generator(path), validate_generator(cycle)):
        with pytest.raises(ValueError, match="density_upper_bound needs a finite tol > 0"):
            density_upper_bound(g, (0, 1, 2), 0, 2, [0.5, 0.7, 0.8], rate_tol=rate_tol)


# ---------------------------------------------------------------------------
# pointwise density bound
# ---------------------------------------------------------------------------

def test_upper_bound_two_state_value():
    bound = density_upper_bound(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5])
    assert bound == pytest.approx(math.exp(2.5), rel=1e-12)
    rho = density(TWO_STATE, (1, 2), 1, 2, [0.5, 0.5])
    assert rho <= bound


def test_upper_bound_singleton_reduces_to_rate_term():
    g = srw_generator(0, 3)
    T = 1.3
    bound = density_upper_bound(g, (1,), 1, 1, [T])
    # the Dirichlet form of the point mass at 1 is its exit rate -A[1, 1]
    x = g.index(1)
    assert bound == pytest.approx(math.exp(-T * -g.rates[x, x]), rel=1e-12)


def test_upper_bound_dominates_density_symmetric_sweep():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g = random_symmetric_generator(rng, max(n, 2))
        R = tuple(range(n))
        T = rng.uniform(0.4, 1.6)
        l = rng.dirichlet(np.ones(n)) * T
        l = np.maximum(l, 0.02 * T)
        a, b = rng.integers(0, n, 2)
        rho = density(g, R, a, b, l, tol=1e-10)
        bound = density_upper_bound(g, R, a, b, l)
        assert rho <= bound + 1e-12


def test_upper_bound_dominates_density_asymmetric():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        B = rng.uniform(0.3, 1.3, (n, n))
        np.fill_diagonal(B, 0.0)
        A = B.copy()
        np.fill_diagonal(A, -B.sum(axis=1))
        g = validate_generator(A, tuple(range(n)))
        R = tuple(range(n))
        T = rng.uniform(0.4, 1.6)
        l = rng.dirichlet(np.ones(n)) * T
        l = np.maximum(l, 0.02 * T)
        a, b = rng.integers(0, n, 2)
        rho = density(g, R, a, b, l, tol=1e-10)
        bound = density_upper_bound(g, R, a, b, l)
        assert rho <= bound + 1e-12


def test_upper_bound_survives_newton_step_hidden_by_rounding():
    # on this chain the full Newton step at iteration 2 drops the gradient
    # norm from 7e-9 to 1e-16 while J falls by one ulp, which the
    # sufficient-increase test alone rejects (the solver then stalled)
    g = validate_generator(
        [[0.0, 0.5636063111895461, 0.9765317145717166],
         [0.655292623786009, 0.0, 1.3225417834995046],
         [1.2011180219474644, 0.847351218183209, 0.0]])
    l = [0.6143422337787182, 0.7872411077413165, 0.01792064514420062]
    bound = density_upper_bound(g, g.states, 0, 1, l)
    rho = density(g, g.states, 0, 1, l)
    assert math.isfinite(bound) and bound >= rho
    sol = rate_general(g, np.array(l) / sum(l))
    assert sol.final_gradient_norm <= 1e-10 and sol.iterations < 10


# ---------------------------------------------------------------------------
# finite-time LDP bounds
# ---------------------------------------------------------------------------

def test_ldp_probability_bound_arithmetic():
    bound = ldp_probability_bound(TWO_STATE, (1, 2), 0.0, 10.0)
    expected = 2 * math.log(math.sqrt(8 * math.e) * 10.0) + math.log(2.0) + 2 / 40.0
    assert bound == pytest.approx(expected, rel=1e-14)


def test_ldp_bound_linear_in_inf_rate():
    T = 7.0
    b1 = ldp_probability_bound(TWO_STATE, (1, 2), 0.3, T)
    b2 = ldp_probability_bound(TWO_STATE, (1, 2), 0.8, T)
    assert (b2 - b1) / (0.8 - 0.3) == pytest.approx(-T, rel=1e-12)


def test_ldp_varadhan_matches_probability_bound_at_zero():
    assert ldp_varadhan_bound(TWO_STATE, (1, 2), 0.0, 5.0) == pytest.approx(
        ldp_probability_bound(TWO_STATE, (1, 2), 0.0, 5.0))


def test_ldp_bounds_reject_early_times():
    with pytest.raises(TooEarlyError):
        ldp_probability_bound(TWO_STATE, (1, 2), 0.0, 0.5)
    with pytest.raises(TooEarlyError):
        ldp_varadhan_bound(TWO_STATE, (1, 2), 0.0, 0.99)


# the reversible path 0 <-> 1 at 2 / 1, 1 <-> 2 at 0.5 / 3: not symmetric
REVERSIBLE_PATH = generator_from_triples([0, 1, 2], [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 0.5),
                                                     (2, 1, 3.0)])


def test_ldp_probability_bound_refuses_a_non_symmetric_block():
    with pytest.raises(NotSymmetricError, match="not symmetric"):
        ldp_probability_bound(REVERSIBLE_PATH, (0, 1, 2), 0.3, 5.0)
    # the symmetric block of a non-symmetric generator is answered
    g = validate_generator([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.5, 0.0]])
    assert ldp_probability_bound(g, (0, 1), 0.3, 5.0) == ldp_probability_bound(
        srw_generator(0, 1), (0, 1), 0.3, 5.0)


def test_ldp_varadhan_bound_refuses_a_non_symmetric_block():
    with pytest.raises(NotSymmetricError, match="not symmetric"):
        ldp_varadhan_bound(REVERSIBLE_PATH, (0, 1, 2), 0.1, 5.0)
    with pytest.raises(NotSymmetricError):
        ldp_varadhan_bound(REVERSIBLE_PATH, (1, 2), 0.1, 5.0)
    assert math.isfinite(ldp_varadhan_bound(srw_generator(0, 2), (0, 1, 2), 0.1, 5.0))


def test_an_empty_range_is_named():
    for call in (lambda: eta(TWO_STATE, ()), lambda: range_rates(TWO_STATE, []),
                 lambda: ldp_probability_bound(TWO_STATE, (), 0.0, 2.0)):
        with pytest.raises(ValueError, match="the range is empty"):
            call()


# ---------------------------------------------------------------------------
# the LDP layer's front door
# ---------------------------------------------------------------------------

# every LDP value, exact side and bound as a call on one request: the chain,
# S, the site (a start or a state), V, T and the scalar (the threshold,
# inf_rate or sup_value), and the parts of it that each entry reads, "gen"
# where it needs the rates on S symmetric
LDP_ENTRIES = {
    "halfspace_rate_infimum": (lambda r: halfspace_rate_infimum(r["gen"], r["S"], r["site"],
                                                                r["value"]),
                               {"S", "site", "value", "gen"}),
    "linear_varadhan_supremum": (lambda r: linear_varadhan_supremum(r["gen"], r["S"], r["V"]),
                                 {"S", "V", "gen"}),
    "log_mgf_exact": (lambda r: log_mgf_exact(r["gen"], r["site"], r["S"], r["V"], r["T"]),
                      {"S", "site", "V", "T"}),
    "ldp_probability_bound": (lambda r: ldp_probability_bound(r["gen"], r["S"], r["value"],
                                                              r["T"]),
                              {"S", "T", "value", "gen"}),
    "ldp_varadhan_bound": (lambda r: ldp_varadhan_bound(r["gen"], r["S"], r["value"], r["T"]),
                           {"S", "T", "value", "gen"}),
    "range_probability": (lambda r: range_probability(r["gen"], r["site"], r["site"], r["S"],
                                                      r["T"]),
                          {"S", "site", "T"}),
}
GOOD_REQUEST = {"gen": srw_generator(0, 2), "S": (0, 1, 2), "site": 1, "V": [0.0, 0.3, 0.1],
                "T": 5.0, "value": 0.4}
VALUE_NAMES = {"halfspace_rate_infimum": "the threshold must be finite",
               "ldp_probability_bound": "inf_rate must be a number",
               "ldp_varadhan_bound": "sup_value must be a number"}


def _time_error(entry):
    if entry.endswith("bound"):
        return TooEarlyError, "requires T >= 1, got -1.0"
    return ValueError, "T must be finite and >= 0, got -1.0"


# in the front door's order: (the part of the request, its wrong value, the
# error of an entry that reads it)
LDP_FAULTS = {
    "repeated-label": ("S", (0, 1, 1), lambda e: (ValueError, "repeats the label 1")),
    "site-outside-S": ("site", 7, lambda e: (ValueError, "site 7 is not in the range")),
    "short-V": ("V", [0.0, 0.3], lambda e: (ValueError, "V has 2 entries but S has 3")),
    "nan-V": ("V", [0.0, math.nan, 0.1],
              lambda e: (ValueError, "V must be finite; got nan at state 1")),
    "infinite-V": ("V", [0.0, 0.3, math.inf],
                   lambda e: (ValueError, "V must be finite; got inf at state 2")),
    "nan-T": ("T", math.nan, lambda e: (ValueError, "T must be finite")),
    "negative-T": ("T", -1.0, _time_error),
    "infinite-T": ("T", math.inf, lambda e: (ValueError, "T must be finite")),
    "nan-value": ("value", math.nan, lambda e: (ValueError, VALUE_NAMES[e])),
    "not-symmetric": ("gen", REVERSIBLE_PATH,
                      lambda e: (NotSymmetricError, r"rates on \(0, 1, 2\) are not symmetric")),
}


def test_the_good_request_is_answered_by_every_entry():
    for entry, (call, _) in LDP_ENTRIES.items():
        assert math.isfinite(call(GOOD_REQUEST)), entry


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry, (_, reads) in LDP_ENTRIES.items()
    for fault, (part, _, _) in LDP_FAULTS.items() if part in reads])
def test_every_ldp_entry_names_a_malformed_argument(entry, fault):
    call, _ = LDP_ENTRIES[entry]
    part, wrong, error = LDP_FAULTS[fault]
    kind, message = error(entry)
    with pytest.raises(kind, match=message):
        call(dict(GOOD_REQUEST, **{part: wrong}))


def test_a_request_wrong_in_two_ways_names_the_first_error_everywhere():
    # the front door reads S, the site, V, T, the scalar and the rates in
    # that order, in every entry
    faults = list(LDP_FAULTS.items())
    for (first, (p1, w1, e1)), (second, (p2, w2, e2)) in itertools.combinations(faults, 2):
        if p1 == p2:
            continue
        request = dict(GOOD_REQUEST, **{p1: w1, p2: w2})
        for entry, (call, reads) in LDP_ENTRIES.items():
            named = [error for part, error in ((p1, e1), (p2, e2)) if part in reads]
            if named:
                kind, message = named[0](entry)
                with pytest.raises(kind, match=message):
                    call(request)


def test_the_exact_side_takes_rates_that_are_not_symmetric():
    assert math.isfinite(log_mgf_exact(REVERSIBLE_PATH, 1, (0, 1, 2), [0.0, 0.3, 0.1], 5.0))
    assert 0.0 < range_probability(REVERSIBLE_PATH, 1, 1, (0, 1, 2), 5.0) < 1.0


@pytest.mark.parametrize("V, sign", [([0.0, 0.3, 0.1], "inf"), ([0.0, -300.0, -300.0], "-inf")])
def test_log_mgf_exact_outside_double_range_raises(V, sign):
    # at T = 1e4 the expectation overflows, or its mass underflows to 0,
    # and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergedTruncationError, match=f"is not a double: {sign}"):
            log_mgf_exact(srw_generator(0, 2), 0, (0, 1, 2), V, 1e4)
        assert math.isfinite(log_mgf_exact(srw_generator(0, 2), 0, (0, 1, 2), V, 300.0))


# ---------------------------------------------------------------------------
# discrete rescaled variational quantity
# ---------------------------------------------------------------------------

def test_chi_discrete_zero_functional():
    # a constant V = c is a constant functional on the simplex: chi = -alpha^d c
    for alpha in (1.0, 2.5):
        assert abs(rescaled_chi_discrete(2, alpha, np.zeros(5))) < 1e-10
        value = rescaled_chi_discrete(1, alpha, np.full(3, 0.3 * alpha))
        assert value == pytest.approx(-0.3 * alpha**2, abs=1e-12)


def test_chi_discrete_linear_delta_matches_dense_grid():
    alpha = 1.5
    weight = 0.8
    value = rescaled_chi_discrete(1, alpha, [0.0, weight, 0.0])  # delta at the origin

    # exhaustive oracle over the 2-simplex
    grid = np.linspace(0.0, 1.0, 501)
    best = np.inf
    for m0 in grid:
        for m1 in grid:
            m2 = 1.0 - m0 - m1
            if m2 < 0:
                continue
            dirichlet = (math.sqrt(m0) - math.sqrt(m1)) ** 2 + (
                math.sqrt(m1) - math.sqrt(m2)) ** 2
            best = min(best, alpha**2 * dirichlet - weight * alpha * m1)
    assert value == pytest.approx(best, abs=2e-5)


@pytest.mark.parametrize("dim, radius", [(1, 3), (2, 2), (3, 1)])
def test_chi_discrete_is_minus_the_varadhan_supremum_of_the_box_walk(dim, radius):
    # the box walk with rates alpha^2 has Dirichlet form alpha^2 D, and
    # functional alpha^d V
    alpha = 1.3
    m = (2 * radius + 1) ** dim
    V = np.random.default_rng(dim).uniform(-1.0, 1.0, m)
    A = np.zeros((m, m))
    for i, j in _box_edges(radius, dim):
        A[i, j] = A[j, i] = alpha**2
    walk = validate_generator(A)
    expected = -linear_varadhan_supremum(walk, range(m), alpha**dim * V)
    assert rescaled_chi_discrete(radius, alpha, V, dim=dim) == pytest.approx(
        expected, abs=1e-12)


@pytest.mark.parametrize("args, name", [
    ((-1, 1.0, [0.0]), "box_radius"),
    ((1.5, 1.0, [0.0] * 3), "box_radius"),
    ((True, 1.0, [0.0] * 3), "box_radius"),
    ((1, 1.0, [0.0] * 3, 0), "dim"),
    ((1, math.nan, [0.0] * 3), "alpha"),
    ((1, -1.0, [0.0] * 3), "alpha"),
    ((1, 1.0, [0.0] * 2), "V"),
    ((1, 1.0, [0.0, math.inf, 0.0]), "V")],
    ids=["negative-radius", "fractional-radius", "bool-radius", "zero-dim",
         "nan-alpha", "negative-alpha", "short-V", "infinite-V"])
def test_chi_discrete_rejects_bad_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        rescaled_chi_discrete(*args)
