"""Rate functions, the pointwise density bound, and the LDP layer: the
variational values, the exact side and the finite-time bounds, each reading
its request through one front door, :func:`_read_ldp`.

The occupation-measure rate function of a chain with generator A is

    I_A(mu) = -inf { <A g, mu/g> : g positive }.

Where A is reversible with measure pi (pi_x A_xy = pi_y A_yx), the infimum
is attained at g = sqrt(mu/pi), and I_A(mu) is the Dirichlet form
<sqrt(mu), (-A~) sqrt(mu)> of the symmetrized block A~_xy = sqrt(A_xy A_yx)
(Donsker and Varadhan, CPAM 28, 1975); a symmetric A is its own A~.  The
measure and A~ are computed once per rate block
(:class:`density.RangeRates`), so the density bound reads the closed form
directly.  Only where detailed balance fails is the rate solved: the
substitution g = e^u makes the objective concave in u, and a damped Newton
iteration with the gauge u = 0 pinned at the first support state finds the
optimum.  It starts from sqrt(mu/pi) where the rates are reversible, which is
the optimum, and from sqrt(mu) elsewhere.

The discrete rescaled quantity chi of a box of Z^d takes a linear
functional V, so it is one eigenvalue: the smallest of
alpha^2 L - alpha^d diag(V), L the box's graph Laplacian.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, Sequence, Tuple

import numpy as np

from .chain import Generator, _match_label, _reach
from .density import (_check_horizon, _distinct_labels, _killed_exponential, _range_positions,
                      _read_request, range_rates)
from .errors import (
    NonConvergedTruncationError,
    NotConvergedError,
    NotSymmetricError,
    TooEarlyError,
    UnboundedRateError,
)
from .montecarlo import _path_count

_NEWTON_MAX_ITER = 200  # Newton iterations of rate_general before it gives up


# ---------------------------------------------------------------------------
# eta: the Hadamard-bound constant
# ---------------------------------------------------------------------------

def eta(gen: Generator, R: Sequence) -> float:
    """Maximum absolute row/column sum of the off-diagonal part over R,
    floored at 1.  Nondecreasing in R.  An empty R raises ``ValueError``."""
    return range_rates(gen, R).eta


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def _coerce_probability(gen: Generator, mu) -> np.ndarray:
    if isinstance(mu, dict):
        vec = np.array([float(mu.get(x, 0.0)) for x in gen.states])
    else:
        vec = np.asarray(mu, dtype=float)
        if vec.shape != (gen.n_states,):
            raise ValueError("mu does not match the state set")
    finite = np.isfinite(vec)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"mu must be finite; got {float(vec[i])!r} at state {gen.states[i]!r}")
    if np.any(vec < 0):
        raise ValueError("mu must be nonnegative")
    if abs(vec.sum() - 1.0) > 1e-9:
        raise ValueError(f"mu must sum to 1, got {vec.sum():.12f}")
    return vec


def rate_symmetric(gen: Generator, mu) -> float:
    """Dirichlet-form value <sqrt(mu), (-A) sqrt(mu)> for symmetric A."""
    if not gen.is_symmetric():
        raise NotSymmetricError("rate_symmetric needs a symmetric generator")
    vec = _coerce_probability(gen, mu)
    s = np.sqrt(vec)
    return float(s @ (-gen.rates) @ s)


@dataclass
class RateSolution:
    """Value and gauge-fixed minimizer of the occupation rate function."""

    value: float
    minimizer: Dict
    iterations: int
    final_gradient_norm: float


def _support_objective(B: np.ndarray, diag: np.ndarray, mu_sub: np.ndarray):
    """Concave objective J(u) = -sum_x mu_x sum_y A[x,y] e^{u_y - u_x} and its
    derivatives, on the support's off-diagonal rates ``B`` and diagonal
    ``diag``."""
    const = -float(np.dot(mu_sub, diag))

    def pieces(u: np.ndarray):
        W = mu_sub[:, None] * B * np.exp(u[None, :] - u[:, None])
        J = const - W.sum()
        grad = W.sum(axis=1) - W.sum(axis=0)  # out minus in at each state
        C = W + W.T
        H = C - np.diag(C.sum(axis=1))
        return J, grad, H

    return pieces


def _check_tol(tol: float, caller: str) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{caller} needs a finite tol > 0, got {tol!r}")


def rate_general(gen: Generator, mu, tol: float = 1e-10) -> RateSolution:
    """Variational rate function for a general conservative generator.

    Maximizes the concave objective in u = log g over the support of mu with
    u pinned to 0 at the first support state; a damped Newton iteration with
    backtracking converges to the global value.  The rates on the support of
    mu (:func:`density.range_rates`, so a negative one raises
    ``NegativeRateError``) must be irreducible (strongly connected through
    positive rates) or symmetric, otherwise the optimum escapes to infinity
    and ``UnboundedRateError`` is raised.  Where they are reversible (a
    symmetric support may split into components), the iteration starts at
    the optimum sqrt(mu/pi), on every component, and stops at its first
    gradient check.  A ``mu`` that is not finite, negative or does not sum
    to 1 raises ``ValueError``.
    """
    _check_tol(tol, "rate_general")
    vec = _coerce_probability(gen, mu)
    support = np.nonzero(vec > 0)[0]
    labels = [gen.states[i] for i in support]
    rates = range_rates(gen, labels)
    mu_sub = vec[support]
    m = len(support)
    if m == 1:
        return RateSolution(
            value=float(-rates.A[0, 0] * mu_sub[0]),
            minimizer={labels[0]: 1.0},
            iterations=0,
            final_gradient_norm=0.0,
        )
    if rates.reversible is None and (None in _reach(rates.B > 0, [0])
                                     or None in _reach(rates.B.T > 0, [0])):
        raise UnboundedRateError(
            "support of mu is not irreducible under the generator"
        )

    pieces = _support_objective(rates.B, rates.diag, mu_sub)
    # J is a difference of terms of the size of the mean exit rate, so near
    # the optimum a step can lower J by a few ulps of that size and still be
    # the exact Newton step; the sufficient-increase test cannot see it then
    rounding = 16.0 * np.finfo(float).eps * float(np.dot(mu_sub, -rates.diag))
    # warm start g = sqrt(mu / pi), the optimum where the rates are
    # reversible (log pi is 0 at the first state, and 0 everywhere on a
    # symmetric block); g = sqrt(mu) where they are not
    log_mu = np.log(mu_sub)
    if rates.reversible is not None:
        log_mu = log_mu - rates.reversible.log_pi
    u = 0.5 * (log_mu - np.log(mu_sub[0]))
    J, grad, H = pieces(u)
    iterations = 0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        g_red = grad[1:]
        gnorm = float(np.linalg.norm(g_red))
        if gnorm <= tol:
            break
        H_red = H[1:, 1:]
        try:
            step = np.linalg.solve(-H_red, g_red)
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(1.0, float(np.trace(-H_red)))
            step = np.linalg.solve(-H_red + ridge * np.eye(m - 1), g_red)
        alpha = 1.0
        while alpha > 1e-14:
            u_try = u.copy()
            u_try[1:] += alpha * step
            J_try, grad_try, H_try = pieces(u_try)
            # a step whose change in J is below rounding is judged by the
            # gradient instead
            if (J_try >= J + 1e-4 * alpha * float(g_red @ step)
                    or (J_try >= J - rounding
                        and float(np.linalg.norm(grad_try[1:])) < gnorm)):
                u, J, grad, H = u_try, J_try, grad_try, H_try
                break
            alpha *= 0.5
        else:
            break
    gnorm = float(np.linalg.norm(grad[1:]))
    if gnorm > tol:
        raise NotConvergedError(
            f"rate_general: gradient norm {gnorm:.3e} above tol after {iterations} iterations"
        )
    g = np.exp(u - u[0])
    return RateSolution(
        value=float(J),
        minimizer={lab: float(gx) for lab, gx in zip(labels, g)},
        iterations=iterations,
        final_gradient_norm=gnorm,
    )


# ---------------------------------------------------------------------------
# pointwise density bound
# ---------------------------------------------------------------------------

def density_upper_bound(
    gen: Generator, R: Sequence, a, b, l, rate_tol: float = 1e-10
) -> float:
    """Pointwise upper bound on the joint local-time density.

    With T the total mass, mu = l/T and g the rate-function minimizer,

        bound = e^{-T I_A(mu)} * prod_{x in R minus {a,b}} sqrt(T/l_x)
                * eta^{|R|-1} * exp(correction),

    where the correction exponent is [1/eta + 1/(4 eta^2 T)] times
    sum_{x,y} sqrt(l_x) g_y B[x,y] / (sqrt(l_y) g_x).  Where the rates on R
    are reversible (:class:`density.Reversible`), the minimizer is
    g = sqrt(mu/pi), the rate is the Dirichlet form of the symmetrized block
    A~ at sqrt(mu) and the conjugated weights are its off-diagonal part
    sqrt(B_xy B_yx), all in closed form; on a symmetric block A~ is A, and the
    exponent is bounded by the coarser |R| [1 + 1/(4 eta T)] (equality for
    unit-rate complete supports).  Only where detailed balance fails is the
    minimizer solved by :func:`rate_general` with ``rate_tol``.  ``rate_tol``
    is checked on every request: one that is not finite and positive raises
    ``ValueError``.
    """
    _check_tol(rate_tol, "density_upper_bound")
    R, a_pos, b_pos, lvec, rates = _read_request(gen, R, a, b, l)
    T = float(lvec.sum())
    B, eta_R = rates.B, rates.eta

    log_prefactor = 0.5 * sum(
        math.log(T / lvec[i]) for i in range(len(R)) if i not in (a_pos, b_pos)
    )
    log_prefactor += (len(R) - 1) * math.log(eta_R)

    reversible = rates.reversible
    if reversible is not None:
        s = np.sqrt(lvec / T)
        rate = float(s @ (-reversible.A) @ s)
        btilde = reversible.B
    else:
        sol = rate_general(gen, {x: v / T for x, v in zip(R, lvec)}, tol=rate_tol)
        rate = sol.value
        g = np.array([sol.minimizer[x] for x in R])
        sq = np.sqrt(lvec)
        btilde = B * (sq[:, None] / sq[None, :]) * (g[None, :] / g[:, None])
    correction = (1.0 / eta_R + 1.0 / (4.0 * eta_R**2 * T)) * float(btilde.sum())
    return math.exp(-T * rate + log_prefactor + correction)


# ---------------------------------------------------------------------------
# the LDP layer: variational values, the exact side and finite-time bounds
# ---------------------------------------------------------------------------

def _read_ldp(gen: Generator, S: Sequence, sites=(), V=None, T=None, bound=False,
              value=None, finite=False, symmetric=False):
    """The front door of every LDP entry, which reads, in this order so that a
    request wrong in two ways names one first error everywhere: S, the
    ``sites`` (a start or state) in S, V (:func:`_functional_on`), T (finite
    and >= 0; >= 1 for a ``bound``, else ``TooEarlyError``), the (name,
    number) ``value`` (not nan, nor infinite if ``finite``), and the rates on
    S, ``symmetric`` where a spectral value or a bound needs it.  Returns S,
    the sites' positions, V as a vector and the rates."""
    S = _distinct_labels(S)
    positions = [_range_positions(S, x, x)[1] for x in sites]
    v = None if V is None else _functional_on(S, V)
    if T is not None:
        if bound and math.isfinite(T) and T < 1.0:
            raise TooEarlyError(f"the finite-time bound requires T >= 1, got {T!r}")
        _check_horizon(T)
    if value is not None and (math.isnan(value[1]) or (finite and math.isinf(value[1]))):
        raise ValueError(f"{value[0]} must be {'finite' if finite else 'a number'}, "
                         f"got {value[1]!r}")
    rates = range_rates(gen, S)
    if symmetric and not rates.symmetric:
        raise NotSymmetricError(f"the rates on {S!r} are not symmetric")
    return S, positions, v, rates


def _functional_on(S: Tuple, V) -> np.ndarray:
    """A linear functional on S, given as a list in the order of S or as a
    dict keyed by state (string keys of a JSON object are matched to the
    labels), as a vector of finite values, else ``ValueError`` naming V."""
    if isinstance(V, dict):
        V = {_match_label(S, k): v for k, v in V.items()}
        if len(V) != len(S):
            raise ValueError(f"V misses the state {next(x for x in S if x not in V)!r} of S")
    else:
        if len(V) != len(S):
            raise ValueError(f"V has {len(V)} entries but S has {len(S)} states")
        V = dict(zip(S, V))
    v = np.array([float(V[x]) for x in S])
    for x, vx in zip(S, v.tolist()):
        if not math.isfinite(vx):
            raise ValueError(f"V must be finite; got {vx!r} at state {x!r}")
    return v


def halfspace_rate_infimum(gen: Generator, S: Sequence, state, threshold: float) -> float:
    """inf of the Dirichlet form over {mu on S : mu(state) >= threshold}: the
    least psi^T Q psi over unit psi with psi_j^2 >= threshold, Q = -A on S x S
    killed outside S (|psi| does as well as psi).  Its Lagrange dual, the max
    over lam >= 0 of the concave
    d(lam) = lambda_min(Q - lam e_j e_j^T) + lam threshold, is exact for one
    quadratic constraint (S-lemma).  As d(lam) <= Q_jj - lam (1 - threshold),
    one bounded search over [0, (Q_jj - d(0)) / (1 - threshold)] finds it, and
    each d(lam) is a lower bound, so search error only loosens an LDP bound."""
    _, (j,), _, rates = _read_ldp(gen, S, (state,), value=("the threshold", threshold),
                                  finite=True, symmetric=True)
    Q = -rates.A
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


def linear_varadhan_supremum(gen: Generator, S: Sequence, V) -> float:
    """sup over mu on S of <V, mu> - Dirichlet(mu) for a linear functional:
    the top eigenvalue of diag(V) - Q, reached at psi = sqrt(mu)."""
    _, _, v, rates = _read_ldp(gen, S, V=V, symmetric=True)
    return float(np.linalg.eigvalsh(np.diag(v) + rates.A)[-1])


def log_mgf_exact(gen: Generator, start, S: Sequence, V, T: float) -> float:
    """log E[exp(<V, local times>); range within S], by the matrix exponential
    of the killed generator A|SxS + diag(V), for any rates on S;
    ``NonConvergedTruncationError`` where that value is not a double."""
    _, (i,), v, rates = _read_ldp(gen, S, (start,), V=V, T=T)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = float(np.log(_killed_exponential(rates, T, v)[i, :].sum()))
    if not math.isfinite(value):
        raise NonConvergedTruncationError(
            f"log E[exp(<V, l>)] at T = {T!r} is not a double: {value!r}")
    return value


def _ldp_error_terms(gen: Generator, S: Sequence, T: float, value) -> float:
    """The terms the finite-time bounds add to T times the rate ``value``,
    from the rates on S: the bounds are proved for the Dirichlet form, and
    that of a non-symmetric block is no rate function."""
    rates = _read_ldp(gen, S, T=T, bound=True, value=value, symmetric=True)[3]
    s = len(rates.diag)
    return s * math.log(rates.eta * math.sqrt(8.0 * math.e) * T) + math.log(s) + s / (4.0 * T)


def ldp_probability_bound(gen: Generator, S: Sequence, inf_rate: float, T: float) -> float:
    """Upper bound on log P(normalized local times in Gamma, range within S)
    for rates symmetric on S:

        -T * inf_rate + |S| log(eta_S sqrt(8e) T) + log|S| + |S|/(4T),

    with inf_rate the infimum of the Dirichlet form over Gamma (supplied by
    the caller).  Valid for T >= 1; rates on S that are not symmetric raise
    ``NotSymmetricError``.
    """
    return -T * inf_rate + _ldp_error_terms(gen, S, T, ("inf_rate", inf_rate))


def ldp_varadhan_bound(gen: Generator, S: Sequence, sup_value: float, T: float) -> float:
    """Upper bound on log E[e^{T F(local times / T)}; range within S]:

        T * sup_value + |S| log(eta_S sqrt(8e) T) + log|S| + |S|/(4T),

    with sup_value = sup_mu [F(mu) - Dirichlet(mu)] supplied by the caller.
    Valid for T >= 1 and rates symmetric on S, as
    :func:`ldp_probability_bound`.
    """
    return T * sup_value + _ldp_error_terms(gen, S, T, ("sup_value", sup_value))


# ---------------------------------------------------------------------------
# discrete variational quantity for rescaled local times
# ---------------------------------------------------------------------------

def _box_edges(radius: int, dim: int):
    """The nearest-neighbor pairs (i, j) of the box [-radius, radius]^dim,
    its sites indexed in lexicographic order."""
    sites = list(product(range(-radius, radius + 1), repeat=dim))
    index = {s: i for i, s in enumerate(sites)}
    edges = []
    for s in sites:
        for axis in range(dim):
            t = tuple(s[k] + (1 if k == axis else 0) for k in range(dim))
            if t in index:
                edges.append((index[s], index[t]))
    return edges


def rescaled_chi_discrete(box_radius: int, alpha: float, V, dim: int = 1) -> float:
    """The infimum of the discrete rescaled functional over the probability
    simplex of the box [-box_radius, box_radius]^dim:

        alpha^2 * (1/2) sum over ordered neighbor pairs (sqrt(mu_x)-sqrt(mu_y))^2
        - <V, alpha^dim * mu>,

    with ``V`` indexed like the box sites (lexicographic site order).  As
    psi = sqrt(mu) ranges over unit vectors, the infimum is the smallest
    eigenvalue of alpha^2 L - alpha^dim diag(V), L the box's graph Laplacian.

    ``ValueError`` for a ``box_radius`` that is not an integer >= 0, a
    ``dim`` that is not an integer >= 1, an ``alpha`` that is not finite and
    positive, or a ``V`` that is not finite or has not (2 box_radius + 1)^dim
    entries.
    """
    box_radius = _path_count(box_radius, "box_radius")
    dim = _path_count(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    m = (2 * box_radius + 1) ** dim
    V = np.asarray(V, dtype=float)
    if V.shape != (m,) or not np.all(np.isfinite(V)):
        raise ValueError(f"V must be {m} finite values, one per box site")
    i, j = np.array(_box_edges(box_radius, dim), dtype=int).reshape(-1, 2).T
    L = np.zeros((m, m))
    L[i, j] = L[j, i] = -1.0
    L[np.diag_indices(m)] = -L.sum(axis=1)
    return float(np.linalg.eigvalsh(alpha**2 * L - alpha**dim * np.diag(V))[0])
