"""The joint local-time density of a finite-range Markov chain.

For a conservative generator A, a finite subset R, sites a, b in R and a
strictly positive local-time vector l on R, the density of the local times on
the event {range = R, endpoint = b} factors as

    rho(l) = exp(sum_x A[x,x] l_x) * det_ab(-B + d/dl) G(l),

where B is the off-diagonal part of A on R, det_ab is the (b,a) cofactor
(replace row b and column a by a unit pair), and G is the torus average

    G(l) = integral over [0,2pi]^R of
           exp(sum_{x,y} B[x,y] sqrt(l_x l_y) e^{i(th_x - th_y)}) dth/(2pi)^R.

Four evaluations are provided, and :func:`density_rows`, the one public
entry of the routed engine, chooses between the visit-count series and the
tree product by the structure of the undirected support of B on R:

* :func:`density_certified` - expand G as a power series over balanced
  integer flows (only balanced monomials survive the circle averages), apply
  the cofactor operator in closed form, and certify the truncation remainder;
  :func:`density_batch` does this for many points of one range at once, and
  the single-point functions are batches of one in code path; they are the
  only way into the flow series.  A point's value and bound
  can differ from its row in a larger batch in the last bits (relative
  differences up to 1.2e-13 were measured on random 3- to 5-state ranges,
  median 6e-16), because numpy's matrix products take other kernels and
  summation orders at other batch sizes.  The operator's subset weights come
  from batched determinant calls, and the closed-form tail bound
  (:meth:`_OperatorSeries.certificate`) picks every point's truncation order
  in one array pass over the order schedule, under one ``np.errstate``: S
  from the support, the per-size subset sums as one product with a
  (subsets x sizes) |weight| matrix, their Stirling combinations as one
  product with a (sizes x shifts) matrix (:func:`_stirling_matrix`), the
  Poisson tails of every shift and order from one ``gammainc`` call over
  read-only arguments (:func:`_gamma_arguments`), and one contraction over
  the shifts.  The matrices and the schedule's arguments are built once per
  series, so a request runs no loop over subset sizes; the subset products
  of the local times are computed once and shared by the bound and the
  values, and a batch whose points share one order (a batch of one always
  does) skips the per-order group masks;
* :func:`density_quadrature` - the derivative-free cofactor-inside-the-
  integral form, evaluated by tensor-product periodic trapezoidal quadrature
  on a fixed grid of 32 points per angle, whose phases are products of roots
  of unity, kept per range size; the cofactor is a minor of rates and node
  vectors whose determinant is one closed-form Laplace expansion, with no
  LAPACK call;
* :func:`density_tree` - where the support is a tree the cofactor factorizes
  along it: one edge kernel per edge of the a-b path (times the rate across
  it from a toward b) and one kernel derivative per edge off it, each scaled
  by e^{-z} and multiplied by one final exponential, O(|R|) kernels and no
  flows, over many rows at once (:func:`_tree_rows`), a point being a row
  with the same bits; a row is a dozen or so numpy calls, laid out to keep
  that count down.  :func:`density_tridiagonal` is this product on the
  path graph of an integer interval, for nearest-neighbor chains;
* the visit-count series (:func:`_visit_rows`) - no torus at all: the sum
  over the jump paths from a to b inside R that visit every state, grouped
  by their visit vectors, whose terms are all nonnegative, so neither a
  cofactor nor an inclusion-exclusion cancels.  Its work is polynomial in
  the order for a fixed |R| (C(N + |R|, |R|) visit vectors at order N),
  where the balanced flows grow exponentially with the edges; each row's
  order comes from a closed-form tail bound before any coefficient is
  computed, and an order whose series would pass the flow guard's byte cap
  is refused before anything is allocated.

Every entry and the density bound read a request once, through
:func:`_read_request`, in one order: R, a and b (:func:`_range_positions`),
then l (one point, or with ``rows`` a (P, |R|) array), then the rate caches'
key (:func:`_rate_block`) and its :class:`RangeRates`, which raises
``NegativeRateError`` on a negative rate in R and ``ValueError`` on a rate
that is not finite; the Ray-Knight check reads its local times there too.
The routes are functions of the request it returns: :func:`density_rows`,
the one route choice (of :func:`density`, :func:`density_tree` and
:func:`density_tridiagonal`, its one-row case, of ``loctimes density`` and of
the law check), takes the tree product where the support is a tree (found by
one linear-time search, :func:`chain._reach`) and the visit-count series
everywhere else; :func:`density_certified` and :func:`density_batch` are the
balanced-flow series, whatever the support.  The density's exact mass,
:func:`range_probability`, reads R, a and b the same way, then T
(:func:`_check_horizon`).

The density depends only on the rates inside R x R, and only the local times
change from point to point.  A request's cold work splits into what depends
on the shape of the request alone and what depends on its rates, and each
part has its own caches, so a fresh chain of a known shape pays only for its
rates.  Every cached array is read-only.

* Structure, keyed by shape and never by a rate: the derivative subsets of
  the cofactor operator with the mask and unit entries of their determinant
  stacks, per (|R|, a, b) (:func:`_subset_layout`); the balanced flows, per
  (directed support, |R|, truncation order) (:func:`flows.flow_table`, whose
  counts and out-degrees are stored as the floats the series multiplies);
  the gamma-function arguments of the tail bound, per (orders, shifts); the
  visit vectors of the visit series, layer by layer, per range size
  (:func:`visits.visit_structure`); and the quadrature's phases and minor
  layout, per range size.
* Values, keyed by content, so an in-place edit of ``gen.rates`` misses them
  instead of reading a stale value: the key is the bytes of the rate block
  (``gen.rates`` itself where R is the whole state tuple, in order, with no
  gather) and its size.  One :class:`RangeRates` per block is read by every
  route, the bounds and rate function in :mod:`rates` and the Ray-Knight
  check: the block, B, the diagonal, eta, the symmetry flag, the undirected
  support with its cyclomatic number and tree flag, and the reversible
  measure with the symmetrized block (:class:`Reversible`) where detailed
  balance holds.  The series of a request on (R, a, b)
  (:func:`_prepared_range`, keyed by that :class:`RangeRates` object, the
  positions of a and b and the conjugation vector) holds the
  :class:`RangeRates`, the operator weights (determinant calls over stacks
  built from the cached layout) and, filled on first use, the terms of each
  truncation order: the log coefficients and the subset factors, which
  depend on the weights and so stay with the series.  The tree route reads
  only the :class:`RangeRates` and the factors of its product
  (:func:`_tree_factors`, keyed like the series without a conjugation), and
  the visit series the coefficients of its jump chain, grown with the order
  (:func:`_visit_series`, keyed the same way).  Each value cache is bounded
  at 16 entries.

The diagonal stays the strided view ``np.diag(A)``: a contiguous copy changes
``L @ diag`` in the last bit, and the values must match an uncached
evaluation bit for bit.
"""

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammainc

from .bessel import _scaled_kernels
from .chain import Generator, _is_symmetric, _reach
from .errors import (
    DomainError,
    ExplosionGuardError,
    NegativeRateError,
    NonConvergedTruncationError,
    NotIntervalError,
    NotTreeError,
    NotTridiagonalError,
    ResidualImaginaryError,
)
from .flows import _FLOW_BYTES, flow_table
from .visits import projected_bytes, visit_structure

MIN_LOCAL_TIME = 1e-12
_ORDER_SCHEDULE = (8, 12, 18, 26, 36, 48, 64, 84, 110, 140)
# the schedule as the array the certificate indexes, and the smallest normal
# double, below which a diagonal factor has lost its size
_SCHEDULE = np.array(_ORDER_SCHEDULE)
_SCHEDULE.flags.writeable = False
_TINY = np.finfo(float).tiny


def _check_local_times(L: np.ndarray) -> None:
    """Raise ``DomainError`` unless every local time in ``L`` is finite and
    at least MIN_LOCAL_TIME: the one domain check of every density route.
    The vector of one request is checked on Python floats, which is cheaper
    at its size than array passes; a batch is checked in arrays.  Both name
    the first bad value in row order."""
    if L.ndim == 1:
        for x in L.tolist():
            if not (x >= MIN_LOCAL_TIME and math.isfinite(x)):
                raise DomainError(_domain_message(x))
        return
    ok = np.isfinite(L) & (L >= MIN_LOCAL_TIME)
    if not ok.all():
        raise DomainError(_domain_message(L[~ok].flat[0]))


def _domain_message(x: float) -> str:
    return f"local times must be finite and at least {MIN_LOCAL_TIME}; got {x:.3e}"


@dataclass
class DensityEvaluation:
    """A truncated series density together with its certified truncation
    bound and order."""

    value: float
    error_bound: float
    order: int


def _distinct_labels(R: Sequence) -> Tuple:
    """R as a tuple; raises ``ValueError`` when R is empty, and, naming the
    label, when R repeats a label."""
    R = tuple(R)
    if not R:
        raise ValueError("the range is empty")
    if len(set(R)) != len(R):
        repeated = next(x for i, x in enumerate(R) if x in R[:i])
        raise ValueError(f"range {R!r} repeats the label {repeated!r}")
    return R


def _range_positions(R: Sequence, a, b) -> Tuple[Tuple, int, int]:
    """The front door of a density request on (R, a, b): R as a tuple and
    the positions of a and b in it.  Raises ``ValueError``, naming the label,
    when R repeats a label or when a or b is not in R."""
    R = _distinct_labels(R)
    for site in (a, b):
        if site not in R:
            raise ValueError(f"site {site!r} is not in the range {R!r}")
    return R, R.index(a), R.index(b)


# ---------------------------------------------------------------------------
# cofactors
# ---------------------------------------------------------------------------

def _replaced_matrix(M: np.ndarray, a: int, b: int) -> np.ndarray:
    """Row b and column a replaced by the (b,a) unit pair."""
    N = np.array(M, copy=True)
    N[b, :] = 0.0
    N[:, a] = 0.0
    N[b, a] = 1.0
    return N


# at most 2^18 derivative subsets (20 states with a != b, the most the series
# answered under a 3 GB address-space limit), in stacks of at most 2^22
# entries (the whole stack of 16 states: 2^14 subsets of 256, about 37 MB)
_MAX_FREE_STATES = 18
_STACK_ENTRIES = 1 << 22
# layouts of at most this many states are kept (one of 16 states holds its
# 2^14 subsets in about 4 MB); larger ones are built per call, since one of 20
# states holds 2^18 subsets in about 105 MB
_CACHED_LAYOUT_STATES = 16


def _cofactor_subset_weights(
    B: np.ndarray, a: int, b: int
) -> Dict[Tuple[int, ...], float]:
    """Coefficients of the cofactor differential operator det_ab(-B + d/dl).

    Expanding the cofactor of the operator matrix gives

        det_ab(-B + d/dl) = sum over Q subset of R\\{a,b} of
                            det_ab^(R\\Q)(-B) * prod_{x in Q} d/dl_x,

    so each subset Q carries the cofactor of -B restricted to its complement.
    That cofactor is the determinant of the (b,a)-replaced -B with the rows
    and columns of Q also replaced by unit vectors (Laplace expansion along
    them), so all subsets are stacks of |R| x |R| matrices (one up to 16
    states), one ``np.linalg.det`` call each; the stacks' layout comes from
    :func:`_subset_layout`, so only the determinants depend on B; it is
    cached up to _CACHED_LAYOUT_STATES states and built per call above.
    Returns {Q (sorted positions): weight}, dropping exact zero weights.
    """
    r = B.shape[0]
    layout = _subset_layout if r <= _CACHED_LAYOUT_STATES else _subset_layout.__wrapped__
    subsets, stacks, unit = layout(r, a, b)
    replaced_B = _replaced_matrix(-B, a, b)
    dets = np.concatenate([np.linalg.det(np.where(replaced, unit, replaced_B))
                           for replaced in stacks])
    return {Q: float(w) for Q, w in zip(subsets, dets) if w != 0.0}


# shapes (|R|, a, b) kept per process: every shape of a range of up to 6
# states fits, and a layout of 6 states holds 16 subsets of 36 entries
@lru_cache(maxsize=128)
def _subset_layout(r: int, a: int, b: int) -> Tuple[Tuple[Tuple[int, ...], ...],
                                                    Tuple[np.ndarray, ...], np.ndarray]:
    """The derivative subsets Q of R \\ {a, b} (by size, then
    lexicographically) of :func:`_cofactor_subset_weights` for |R| = r, the
    masks of the rows and columns of Q, in stacks of at most _STACK_ENTRIES
    entries, and the unit matrix whose entries replace them; read-only.  They
    depend on (r, a, b) alone, so every rate block of one shape shares them.
    Raises ``ExplosionGuardError`` rather than enumerate over
    2^_MAX_FREE_STATES subsets."""
    others = [x for x in range(r) if x != a and x != b]
    if len(others) > _MAX_FREE_STATES:
        raise ExplosionGuardError(
            f"a range of {r} states has 2^{len(others)} derivative subsets, above the "
            f"series' cap of 2^{_MAX_FREE_STATES}")
    subsets = tuple(Q for size in range(len(others) + 1) for Q in combinations(others, size))
    in_Q = np.zeros((len(subsets), r), dtype=bool)
    for k, Q in enumerate(subsets):
        in_Q[k, list(Q)] = True
    step = max(1, _STACK_ENTRIES // (r * r))
    stacks = tuple(q[:, :, None] | q[:, None, :]
                   for q in (in_Q[lo:lo + step] for lo in range(0, len(subsets), step)))
    unit = np.eye(r)
    _read_only(unit, *stacks)
    return subsets, stacks, unit


# ---------------------------------------------------------------------------
# balanced-flow series
# ---------------------------------------------------------------------------

# the batched series evaluates points in chunks whose (flows x points) term
# block holds at most this many entries (and at least one point), so the
# batch size does not raise peak memory
_BLOCK_TERMS = 1 << 18


@lru_cache(maxsize=None)
def _stirling_matrix(sizes: int) -> np.ndarray:
    """Stirling numbers of the second kind S(q, k) for q, k < ``sizes`` (rows
    q, columns k), as floats, which hold them exactly up to q = 18 (S(q, k) <
    2^53); read-only."""
    stirling = np.zeros((sizes, sizes))
    stirling[0, 0] = 1.0
    for q in range(1, sizes):
        for k in range(1, q + 1):
            stirling[q, k] = k * stirling[q - 1, k] + stirling[q - 1, k - 1]
    _read_only(stirling)
    return stirling


@lru_cache(maxsize=16)
def _gamma_arguments(orders: Tuple[int, ...], shifts: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first argument n0 - k + 1 (floored at 1, as floats) of the
    regularized gamma function for every shift k < ``shifts`` (axis 0) and
    truncation order n0 (axis 1), and the mask n0 >= k; read-only."""
    n0 = np.array(orders)[None, :, None]
    k = np.arange(shifts)[:, None, None]
    arguments = np.maximum(n0 - k + 1, 1).astype(float)
    above = n0 >= k
    _read_only(arguments, above)
    return arguments, above


def _series_support(Btilde: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The tails and heads of the off-diagonal nonzero entries of
    ``Btilde``, in row order."""
    nonzero = Btilde != 0.0
    np.fill_diagonal(nonzero, False)
    return np.nonzero(nonzero)


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


class _OrderTerms(NamedTuple):
    """What the series needs at one truncation order, whatever the point."""

    n_flows: int
    log_coef: np.ndarray    # (F,) log of prod_e w_e^{n_e} / n_e!
    degree: np.ndarray      # (F, n_nodes) out-degrees, the flow table's floats
    factors: np.ndarray     # (subsets, F) prod_{x in Q} degree[:, x]


class _OperatorSeries:
    """A cofactor operator applied to the balanced-flow series of ``Btilde``,
    the (optionally conjugated) B of its :class:`RangeRates` ``rates``.

    Holds what does not depend on the local times: ``rates``, the support
    edges and their weights, the derivative subsets Q with their operator
    weights and index data, the fixed data of :meth:`certificate`, and,
    filled on first use, the terms of each truncation order.  A subset
    holding a state that no support edge touches is dropped, since the
    derivative in that state kills every term.
    """

    def __init__(self, rates: "RangeRates", Btilde: np.ndarray,
                 weights: Dict[Tuple[int, ...], float]):
        self.rates = rates
        self.n_nodes = Btilde.shape[0]
        self._xs, self._ys = _series_support(Btilde)
        self.edges = tuple(zip(self._xs.tolist(), self._ys.tolist()))
        self.w = Btilde[self._xs, self._ys]
        touched = set(self._xs.tolist()) | set(self._ys.tolist())
        self.weights = {Q: c for Q, c in weights.items() if touched.issuperset(Q)}
        self._subsets = list(self.weights)
        self._coefs = np.array([self.weights[Q] for Q in self._subsets])
        # subset positions padded to one width with position n_nodes, which
        # subset_products points at a column of ones
        width = max((len(Q) for Q in self._subsets), default=0)
        self._padded = np.full((len(self._subsets), width), self.n_nodes)
        # |weight| of each subset in the column of its size
        self._size_weights = np.zeros((len(self._subsets), width + 1))
        for k, Q in enumerate(self._subsets):
            self._padded[k, :len(Q)] = Q
            self._size_weights[k, len(Q)] = abs(self._coefs[k])
        self._stirling = _stirling_matrix(width + 1)
        self._shifts = np.arange(width + 1.0)
        self._schedule_gamma = _gamma_arguments(_ORDER_SCHEDULE, width + 1)
        _read_only(self.w, self._xs, self._ys, self._coefs, self._padded,
                   self._size_weights, self._shifts)
        self._terms: Dict[int, _OrderTerms] = {}

    def subset_products(self, L: np.ndarray) -> np.ndarray:
        """prod_{x in Q} l_x for each row of L (rows) and subset Q (columns),
        multiplied in the order of Q, as ``np.prod`` does."""
        if self._padded.shape[1] == 0:
            return np.ones((len(L), len(self._subsets)))
        Lp = np.concatenate([L, np.ones((len(L), 1))], axis=1)
        return np.multiply.reduce(Lp[:, self._padded], axis=2)

    def certificate(self, L: np.ndarray, products: np.ndarray,
                    orders: Optional[Sequence[int]] = None) -> np.ndarray:
        """Certified remainder bounds at each truncation order in ``orders``
        (rows; by default the schedule, whose gamma-function arguments the
        series holds) and each row of L (columns), whose
        :meth:`subset_products` are ``products``, in one array pass.

        The dropped terms are majorized by the full unbalanced series: with
        S = sum Btilde[x,y] sqrt(l_x l_y), the undifferentiated tail is at
        most sum_{N > n0} S^N/N!, and a derivative in x at most multiplies
        an order-N term by N / l_x.  So the bound is sum_q W_q T_q, with W_q
        the sum over |Q| = q of |weight| / prod_{x in Q} l_x and T_q =
        sum_{N > n0} N^q S^N / N!.  Expanding N^q = sum_k S(q,k)
        N(N-1)...(N-k+1) turns T_q into sum_k S(q,k) S^k e^S P(Poisson(S) >
        n0 - k), and P(Poisson(S) > n0 - k) is the regularized gamma function
        P(n0 - k + 1, S) (1 where n0 < k).  The pass takes W as one product
        with the (subsets x sizes) |weight| matrix, sum_q W_q S(q, k) as one
        product with the Stirling matrix, every Poisson tail from one
        ``gammainc`` call, and adds the shifts k in order
        (``np.add.accumulate``), so a bound does not depend on the other
        orders asked for.  An overflow gives inf or nan, which certify
        nothing; the caller runs this under its one ``np.errstate``.
        """
        arguments, above = (self._schedule_gamma if orders is None
                            else _gamma_arguments(tuple(map(int, orders)), len(self._shifts)))
        if not self._subsets:
            return np.zeros((arguments.shape[1], len(L)))
        S = np.sqrt(L[:, self._xs] * L[:, self._ys]) @ self.w
        shift_weights = (np.reciprocal(products) @ self._size_weights) @ self._stirling
        shift_weights *= S[:, None] ** self._shifts
        terms = np.where(above, gammainc(arguments, S), 1.0)
        terms *= shift_weights.T[:, None, :]
        return np.exp(S) * np.add.accumulate(terms, axis=0)[-1]

    def _order_terms(self, order: int) -> _OrderTerms:
        terms = self._terms.get(order)
        if terms is not None:
            return terms
        table = flow_table(self.edges, self.n_nodes, order)
        log_coef = table.counts @ np.log(self.w) - table.log_count_factorials
        degree = table.out_degree
        factors = np.stack([degree[:, list(Q)].prod(axis=1) for Q in self._subsets])
        _read_only(log_coef, factors)
        terms = _OrderTerms(table.n_flows, log_coef, degree, factors)
        self._terms[order] = terms
        return terms

    def values(self, L: np.ndarray, products: np.ndarray, order: int) -> np.ndarray:
        """The series truncated at total flow count ``order``, for each row of
        L, whose :meth:`subset_products` are ``products``.

        Each balanced flow contributes prod_e w_e^{n_e}/n_e! times the
        monomial prod_x l_x^{m_x}, m_x its out-degree; a derivative in x
        turns that into m_x l_x^{m_x - 1} exactly.  The base terms are
        computed once per point, and each subset Q is one factor vector
        prod_{x in Q} m_x applied to them.
        """
        if not self.weights:
            return np.zeros(len(L))
        terms = self._order_terms(order)
        out = np.empty(len(L))
        chunk = max(1, _BLOCK_TERMS // terms.n_flows)
        for lo in range(0, len(L), chunk):
            base = np.exp(terms.log_coef[:, None]
                          + terms.degree @ np.log(L[lo:lo + chunk]).T)
            per_subset = terms.factors @ base
            per_subset /= products[lo:lo + chunk].T
            out[lo:lo + chunk] = self._coefs @ per_subset
        return out


# ---------------------------------------------------------------------------
# prepared ranges
# ---------------------------------------------------------------------------

# ranges kept per process; a caller asks for many points of one range in a
# burst, not for one range now and again much later, so a few suffice
_PREPARED_RANGES = 16


class Reversible(NamedTuple):
    """The reversible measure of a rate block and the symmetrized block it
    makes.  With H = diag(sqrt(pi)), H A H^-1 is symmetric, and its
    off-diagonal entries are sqrt(B_xy B_yx) whatever the scale of pi."""

    log_pi: np.ndarray  # log pi, 0 at the first state: pi_x B_xy = pi_y B_yx
    A: np.ndarray       # the symmetrized block; A itself where A is symmetric
    B: np.ndarray       # its off-diagonal part; B itself where A is symmetric


@dataclass(frozen=True, eq=False)
class RangeRates:
    """The rates on R x R and what depends on them alone.  Every array is
    read-only, since one instance serves every request on the same block."""

    A: np.ndarray       # the rate block, killed outside R (no re-conservation)
    B: np.ndarray       # its off-diagonal part, nonnegative
    diag: np.ndarray    # np.diag(A), the strided view of A (see the module)
    eta: float          # max row/column sum of B, floored at 1
    symmetric: bool     # A equals its transpose entrywise to 1e-12
    edges: Tuple[Tuple[int, int], ...]  # undirected support of B, x < y, row order
    cyclomatic: int     # len(edges) - |R| + connected components
    tree: bool          # the support is connected and acyclic
    reversible: Optional[Reversible]    # see :func:`_reversible`


def _undirected_support(B: np.ndarray) -> Tuple[Tuple[Tuple[int, int], ...], int, bool]:
    """The pairs x < y (in row order) with B_xy or B_yx nonzero, the
    cyclomatic number of that graph, and whether it is a tree.

    The components are counted by one search from every state in turn
    (:func:`chain._reach`): each is rooted at its first state, the one state
    that is its own predecessor."""
    adjacent = (B != 0.0) | (B.T != 0.0)
    xs, ys = np.nonzero(np.triu(adjacent, 1))
    edges = tuple(zip(xs.tolist(), ys.tolist()))
    r = len(B)
    components = sum(x == root for x, root in enumerate(_reach(adjacent, range(r))))
    cyclomatic = len(edges) - r + components
    return edges, cyclomatic, components == 1 and cyclomatic == 0


def _reversible(A: np.ndarray, B: np.ndarray, symmetric: bool) -> Optional[Reversible]:
    """The :class:`Reversible` of a block: pi = 1 and the block itself where
    it is symmetric.  Else, where every edge of the support is two-way, one
    search from the first state (:func:`chain._reach`) must reach every state,
    and pi is multiplied out along its tree (pi_y = pi_x B_xy / B_yx from x
    to its successor y); it is kept when the conjugated block B_xy
    sqrt(pi_x / pi_y) passes the symmetry test of :func:`chain._is_symmetric`,
    which is Kolmogorov's cycle condition on the edges off the tree.  None
    where an edge is one-way, a cycle is unbalanced or the support is not
    connected."""
    r = len(A)
    if symmetric:
        log_pi = np.zeros(r)
        _read_only(log_pi)
        return Reversible(log_pi, A, B)
    if np.any((B != 0.0) != (B.T != 0.0)):
        return None
    pred = _reach(B != 0.0, [0])
    if None in pred:
        return None
    rates = B.tolist()
    logs: List[Optional[float]] = [0.0] + [None] * (r - 1)
    for start in range(r):
        path, x = [], start
        while logs[x] is None:
            path.append(x)
            x = pred[x]
        for y in reversed(path):
            p = pred[y]
            logs[y] = logs[p] + math.log(rates[p][y]) - math.log(rates[y][p])
    log_pi = np.array(logs)
    xs, ys = np.nonzero(B)
    conjugated = np.zeros_like(B)
    # an unbalanced cycle may push a conjugated rate past double range: inf
    # fails the test as it should
    with np.errstate(over="ignore"):
        conjugated[xs, ys] = B[xs, ys] * np.exp(0.5 * (log_pi[xs] - log_pi[ys]))
    if not _is_symmetric(conjugated):
        return None
    Bs = np.sqrt(B * B.T)
    As = Bs.copy()
    np.fill_diagonal(As, np.diag(A))
    _read_only(log_pi, Bs, As)
    return Reversible(log_pi, As, Bs)


@lru_cache(maxsize=_PREPARED_RANGES)
def _range_rates(block: bytes, r: int) -> RangeRates:
    A = np.frombuffer(block).reshape(r, r)
    if not np.all(np.isfinite(A)):
        x, y = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(
            f"rate {A[x, y]} from position {x} to position {y} of the range is not finite")
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    if np.any(B < 0.0):
        x, y = np.argwhere(B < 0.0)[0]
        raise NegativeRateError(
            f"negative rate {B[x, y]} from position {x} to position {y} of the range")
    _read_only(B)
    edges, cyclomatic, tree = _undirected_support(B)
    symmetric = _is_symmetric(A)
    return RangeRates(
        A=A, B=B, diag=np.diag(A),
        eta=float(max(B.sum(axis=1).max(), B.sum(axis=0).max(), 1.0)),
        symmetric=symmetric,
        edges=edges, cyclomatic=cyclomatic, tree=tree,
        reversible=_reversible(A, B, symmetric),
    )


def _rate_block(gen: Generator, R: Tuple) -> Tuple[bytes, int]:
    """The key of the rate caches: the bytes and size of the block of
    ``gen`` on R (R already read by :func:`_distinct_labels`).  Where R is
    the generator's whole state tuple, in its order, the block is
    ``gen.rates`` itself, read without a gather; ``tobytes`` gives C order
    either way, so both keys are the same bytes."""
    A = np.asarray(gen.rates if R == gen.states else gen.submatrix(R), dtype=float)
    return A.tobytes(), A.shape[0]


def range_rates(gen: Generator, R: Sequence) -> RangeRates:
    """The :class:`RangeRates` of ``gen`` on ``R``, memoized by the content
    of the rate block (:func:`_rate_block`), so an in-place edit of
    ``gen.rates`` misses the cache.  An empty R or a repeated label in R
    raises ``ValueError``, as in :func:`_range_positions`; a negative
    off-diagonal rate ``NegativeRateError``, a non-finite one ``ValueError``."""
    return _range_rates(*_rate_block(gen, _distinct_labels(R)))


@lru_cache(maxsize=_PREPARED_RANGES)
def _prepared_range(rates: RangeRates, a: int, b: int,
                    conjugation: Optional[bytes]) -> _OperatorSeries:
    """The :class:`_OperatorSeries` of a series request, memoized by its
    :class:`RangeRates`, a and b and the conjugation's bytes."""
    return _OperatorSeries(rates, _conjugated(rates.B, conjugation),
                           _cofactor_subset_weights(rates.B, a, b))


def _conjugated(B: np.ndarray, conjugation: Optional[bytes]) -> np.ndarray:
    """The series weights: B, or r_x B[x,y] / r_y for the positive vector r
    whose bytes are ``conjugation``."""
    if conjugation is None:
        return B
    rvec = np.frombuffer(conjugation)
    return B * rvec[:, None] / rvec[None, :]


class _Request(NamedTuple):
    """A density request as :func:`_read_request` read it."""

    R: Tuple                # as a tuple, in the caller's order
    a: int                  # the positions of a and b in R
    b: int
    l: np.ndarray           # in the order of R: one point, or (P, |R|) rows
    rates: RangeRates


def _read_request(gen: Generator, R: Sequence, a, b, l, rows: bool = False) -> _Request:
    """The front door of every request: R, a and b, then l, then the rate
    caches' key and its :class:`RangeRates`, always in that order, so a
    request wrong in two ways names one first error everywhere.

    A point ``l`` is a dict keyed by the states of R or a sequence in R's
    order; with ``rows``, ``l`` is a (P, |R|) array of points, P >= 0.  A
    missing state or a wrong shape raises ``ValueError``, and a value
    outside the domain ``DomainError`` (see :func:`_check_local_times`).
    """
    R, a_pos, b_pos = _range_positions(R, a, b)
    if rows:
        lvec = np.asarray(l, dtype=float)
        if lvec.ndim != 2 or lvec.shape[1] != len(R):
            raise ValueError(f"local times must be an array of shape (P, {len(R)}); "
                             f"got shape {lvec.shape}")
    elif isinstance(l, dict):
        missing = [x for x in R if x not in l]
        if missing:
            raise ValueError(f"local times miss the state {missing[0]!r} of the range")
        lvec = np.array([float(l[x]) for x in R])
    else:
        lvec = np.asarray(l, dtype=float)
        if lvec.shape != (len(R),):
            raise ValueError(f"local-time vector of shape {lvec.shape} does not match "
                             f"the range of {len(R)} states")
    _check_local_times(lvec)
    return _Request(R, a_pos, b_pos, lvec, _range_rates(*_rate_block(gen, R)))


# ---------------------------------------------------------------------------
# the density, three ways
# ---------------------------------------------------------------------------

def density_batch(
    gen: Generator,
    R: Sequence,
    a,
    b,
    L,
    tol: float = 1e-10,
    conjugation: Optional[Sequence] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified densities at many local-time vectors on one range.

    ``L`` is a (P, |R|) array with one strictly positive local-time vector
    per row, in the order of ``R``.  Returns ``(values, error_bounds,
    orders)``, each of length P, with every error bound at most ``tol``.

    The support, the cofactor subset weights (one batched determinant, see
    :func:`_cofactor_subset_weights`), diag(A) and the flow-series terms of
    each order come from the memoized :func:`_prepared_range`, so repeated
    calls on one range build them once.  The tail
    certificate is a closed formula, evaluated at every order of the schedule
    and every point in one array pass, so each point gets the lowest order of
    the schedule that certifies it before any flow is enumerated.
    The points of one order share one flow table and one pass of
    exponentials over it, with every derivative subset applied as a factor
    vector on the shared terms.  Raises ``NonConvergedTruncationError`` when
    some point cannot be certified at the top order.  At a point whose
    diagonal factor exp(sum A[x,x] l_x) underflows below the smallest normal
    double, the bound covers the whole density, exp(sum A[x,x] l_x +
    log(|series| + tail)) taken in log space, instead of a product that
    rounds to 0.

    ``conjugation`` optionally replaces the series weights by
    r_x B[x,y] / r_y for a positive vector r on R (the operator weights keep
    the unconjugated -B); the result is r-independent.
    """
    request = _read_request(gen, R, a, b, L, rows=True)
    return _certified_rows(request.rates, request.a, request.b, conjugation, request.l, tol)


# from this many free states (2^12 derivative subsets) on, the series asks the
# flow guard before it builds the subset weights, which take seconds at 2^18
_EARLY_REFUSAL_STATES = 12


def _refuse_before_weights(rates: RangeRates, a: int, b: int, conjugation: Optional[bytes],
                           L: np.ndarray, tol: float) -> None:
    """Raise the flow guard's ``ExplosionGuardError`` where the series of
    :func:`_certified_rows` would raise it, before the subset weights are
    built.

    The certificate is a sum of nonnegative terms, one of them the tail of
    the empty subset, exp(sum A_xx l_x) |w| e^S P(n0 + 1, S) with w the
    cofactor of -B (one determinant).  So no row certifies below the first
    order of the schedule at which that term alone is below tol (taken with
    a margin of 1e-6 for the rounding of a second determinant), and the
    flow table of the largest such order over the rows is one the series
    would enumerate, or a smaller one: enumerating it asks the guard, whose
    expansion only grows with the order.  Where some row certifies at no
    order, the series raises its own error, so nothing is asked."""
    Btilde = _conjugated(rates.B, conjugation)
    xs, ys = _series_support(Btilde)
    S = np.sqrt(L[:, xs] * L[:, ys]) @ Btilde[xs, ys]
    weight = abs(float(np.linalg.det(_replaced_matrix(-rates.B, a, b))))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        empty = (np.exp(L @ rates.diag + S) * weight
                 * gammainc(_SCHEDULE[:, None] + 1.0, S) * (1.0 - 1e-6))
        certified = empty <= tol
    if not certified.any(axis=0).all():
        return
    order = int(_SCHEDULE[certified.argmax(axis=0)].max())
    flow_table(tuple(zip(xs.tolist(), ys.tolist())), len(rates.diag), order)


def _certified_rows(
    rates: RangeRates, a: int, b: int, conjugation: Optional[Sequence], L: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`density_batch` on the range of ``rates``, a and b given as
    positions, and rows ``L`` that passed :func:`_check_local_times`: the
    series of :func:`_prepared_range`, once the conjugation is checked."""
    conj = None
    if conjugation is not None:
        rvec = np.asarray(conjugation, dtype=float)
        if rvec.shape != rates.diag.shape or np.any(rvec <= 0):
            raise ValueError("conjugation must be a positive vector on R")
        conj = rvec.tobytes()
    free = len(rates.diag) - len({a, b})
    if _EARLY_REFUSAL_STATES <= free <= _MAX_FREE_STATES:
        _refuse_before_weights(rates, a, b, conj, L, tol)
    series = _prepared_range(rates, a, b, conj)
    log_diag = L @ rates.diag
    products = series.subset_products(L)
    # one errstate for the pass: a bound beyond double range (an overflowed
    # tail, or one times a diagonal factor that underflowed to 0) is inf or
    # nan and certifies nothing.  The series values stay finite at any point
    # that certifies: their terms are below the majorant of the tail, which
    # is finite there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diag_factor = np.exp(log_diag)
        raw_tails = series.certificate(L, products)
        tails = diag_factor * raw_tails
        certified = tails <= tol
        first = certified.argmax(axis=0)
        columns = np.arange(len(L))
        bounds = tails[first, columns]
        if not certified[first, columns].all():
            tails[np.isnan(tails)] = np.inf
            failed = ~certified.any(axis=0)
            raise NonConvergedTruncationError(
                f"certified tail {np.max(tails[-1, failed]):.3e} above tol {tol:.3e} at "
                f"order {_ORDER_SCHEDULE[-1]} ({np.sum(failed)} of {len(L)} points)"
            )
        orders = _SCHEDULE[first]
        levels = sorted(set(orders.tolist()))
        if len(levels) == 1:
            sums = series.values(L, products, levels[0])
        else:
            sums = np.empty(len(L))
            for order in levels:
                group = orders == order
                sums[group] = series.values(L[group], products[group], order)
        values = diag_factor * sums
        # where the diagonal factor underflows, the products above lose their
        # size (down to a false 0 bound); bound the whole density there
        # instead, |density| <= exp(sum A_xx l_x) (|series| + tail), in log
        # space.  This stays below tol: it needs a majorant above e^685 to
        # exceed it, and such a majorant keeps nearly all its mass beyond
        # order 140, so no order of the schedule would have certified
        low = diag_factor < _TINY
        if low.any():
            raw = raw_tails[first[low], np.flatnonzero(low)]
            bounds[low] = np.exp(log_diag[low] + np.log(np.abs(sums[low]) + raw))
    return values, bounds, orders


def density_certified(
    gen: Generator,
    R: Sequence,
    a,
    b,
    l,
    tol: float = 1e-10,
    conjugation: Optional[Sequence] = None,
) -> DensityEvaluation:
    """Joint local-time density with a certified truncation bound.

    Canonical series evaluation: pull out the diagonal exp(sum A[x,x] l_x),
    apply the cofactor operator in -B to the balanced-flow series, and take
    the lowest truncation order whose certified remainder is below ``tol``.
    A batch of one for :func:`density_batch`, which documents the arguments.
    """
    request = _read_request(gen, R, a, b, l)
    values, bounds, orders = _certified_rows(request.rates, request.a, request.b, conjugation,
                                             request.l[None, :], tol)
    return DensityEvaluation(value=float(values[0]), error_bound=float(bounds[0]),
                             order=int(orders[0]))


# ---------------------------------------------------------------------------
# visit-count series
# ---------------------------------------------------------------------------

# the largest order the search for a row's certified order considers
_VISIT_SEARCH = 1 << 20
_UNIT = np.finfo(float).eps / 2
# log of the smallest subnormal double, 2^-1074
_LOG_SUBNORMAL = -1074 * math.log(2.0)


class _VisitSeries:
    """The coefficients of the visit-count series of one (R, a, b), grown
    with the order and kept.

    With s_x = sum_y B_xy and the jump chain P = B / s, the paths from x to
    b with visit vector n weigh h_n(x) = prod_z s_z^{n_z - [z = b]} times
    g_n(x), where g_{e_b}(b) = 1 and g_n(x) = sum_y P_xy g_{n - e_x}(y).
    Layer K of g (over the visit vectors of :mod:`visits`, one row per
    state) is one product with P and one gather along the layer's
    predecessor indices, so no sum ever leaves [0, 1].  ``logc`` holds
    log g_n(a) - sum_x log (n_x - 1)! for the vectors with every n_x >= 1,
    in the structure's order (-inf where g is 0), ``finite[K]`` how many of
    those in layers <= K are finite and ``absmax[K]`` their largest
    magnitude.  ``sink`` is set where some state other than b has no rate
    inside R: no path of range R ends at b then, and the density is 0.
    """

    def __init__(self, rates: RangeRates, a: int, b: int):
        self.r, self.a, self.b = len(rates.diag), a, b
        exits = rates.B.sum(axis=1)
        self.sink = bool(np.any(np.delete(exits, b) == 0.0))
        scale = np.where(exits > 0.0, exits, 1.0)
        self.P = rates.B / scale[:, None]
        self.log_exits_off_b = float(np.log(np.delete(scale, b)).sum())
        self.exits = exits
        self.diag = rates.diag
        self.structure = visit_structure(self.r)
        self.logc = np.zeros(0)
        self.finite = [0]
        self.absmax = [0.0]
        self._layer: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        _read_only(self.P, self.exits)

    def extend(self, N: int) -> None:
        """Grow the coefficients to the layers 1 .. N."""
        with self._lock:
            done = len(self.finite) - 1
            if done >= N:
                return
            layers = self.structure.extend(N)
            ends = self.structure.ends
            coefs = []
            g = self._layer
            for K in range(done + 1, N + 1):
                layer = layers[K - 1]
                if K == 1:
                    g = np.zeros((self.r, self.r))
                    g[self.b, self.r - 1 - self.b] = 1.0    # rank(e_b) = r - 1 - b
                else:
                    step = np.empty((self.r, g.shape[1] + 1))
                    step[:, -1] = 0.0
                    step[:, :-1] = self.P @ g
                    g = np.take(step.ravel(), layer.pred)
                coefs.append(g[self.a, layer.full])
            self._layer = g
            with np.errstate(divide="ignore"):
                logc = np.log(np.concatenate(coefs))
            logc -= self.structure.log_factorials[ends[done]:ends[N]]
            finite = np.isfinite(logc)
            # the running count and largest magnitude at the end of each layer
            at = np.array(ends[done + 1:N + 1]) - ends[done]
            count = np.concatenate([[0], np.cumsum(finite)])[at]
            largest = np.concatenate([[0.0], np.maximum.accumulate(
                np.where(finite, np.abs(logc), 0.0))])[at]
            self.finite.extend((self.finite[-1] + count).tolist())
            self.absmax.extend(np.maximum(self.absmax[-1], largest).tolist())
            self.logc = np.concatenate([self.logc, logc])
            _read_only(self.logc)

    def row_terms(self, L: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each row of L: the log of the terms' common factor,
        sum_x A_xx l_x + sum_{x != b} log s_x; S = sum_x s_x l_x, floored
        at the smallest normal double (S only scales the bound, which grows
        with it, and the floor keeps q above 0); and the logs log s_x l_x
        (0 where s_x = 0, whose exponent is 0 on every finite term)."""
        log_scale = (L * self.diag).sum(axis=1) + self.log_exits_off_b
        S = np.maximum((L * self.exits).sum(axis=1), _TINY)
        V = L * self.exits
        V[:, self.exits == 0.0] = 1.0
        return log_scale, S, np.log(V)

    def log_values(self, log_scale: np.ndarray, V: np.ndarray, N: int) -> np.ndarray:
        """The log of the series truncated at order N, grown to N if it is
        shorter, at each row of :meth:`row_terms`; some coefficient up to N
        must be finite.  It is log_scale plus the log of the sum of the
        terms logc_n + sum_x (n_x - 1) v_x, summed about their largest.
        Each row is reduced on its own, so its bits do not depend on the
        other rows."""
        self.extend(N)
        F = self.structure.ends[N]
        logc, E = self.logc[:F], self.structure.exponents[:, :F]
        peaks, sums = np.empty(len(V)), np.empty(len(V))
        chunk = max(1, _BLOCK_TERMS // max(F, 1))
        for lo in range(0, len(V), chunk):
            rows = V[lo:lo + chunk]
            terms = np.empty((len(rows), F))
            terms[:] = logc
            scaled = np.empty_like(terms)
            for x in range(self.r):
                np.multiply(rows[:, x, None], E[x], out=scaled)
                terms += scaled
            peak = terms.max(axis=1)
            terms -= peak[:, None]
            np.exp(terms, out=terms)
            peaks[lo:lo + chunk] = peak
            sums[lo:lo + chunk] = terms.sum(axis=1)
        return log_scale + peaks + np.log(sums)


@lru_cache(maxsize=_PREPARED_RANGES)
def _visit_series(rates: RangeRates, a: int, b: int) -> _VisitSeries:
    return _VisitSeries(rates, a, b)


def _visit_log_tail(log_scale: np.ndarray, S: np.ndarray, N: np.ndarray, r: int) -> np.ndarray:
    """The log of the certified tail of the visit series beyond order N:
    log_scale + S/q + (N + 1 - r) log q - log(1 - q) at the q in (0, 1)
    that minimizes it (see :func:`_visit_rows`)."""
    n1 = N + 1.0 - r
    q = 2.0 * S / ((S + n1) + np.sqrt((S - n1) ** 2 + 4.0 * S))
    return log_scale + S / q + n1 * np.log(q) - np.log1p(-q)


def _visit_rows(rates: RangeRates, a: int, b: int, L: np.ndarray,
                tol: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density at each row of ``L`` by the visit-count series, with a
    certified bound and the order of each row.

    Summing over the jump paths from a to b inside R that visit every state
    of R, with n_x visits to x and the holding times of each state spread
    over a simplex,

        rho(l) = exp(sum_x A_xx l_x) sum_{n >= 1} h_n(a) prod_x l_x^{n_x - 1} / (n_x - 1)!,

    h as in :class:`_VisitSeries`: every term is nonnegative, and there is
    no cofactor, no inclusion-exclusion and no torus.  With g and s from
    there, a term is exp(sum_x A_xx l_x) prod_{x != b} s_x g_n(a) prod_x
    (s_x l_x)^{n_x - 1} / (n_x - 1)!.

    The order comes first.  For any q in (0, 1), u^m / m! <= e^{u/q} q^m,
    so the terms of total |n| = K are at most e^{S/q} q^{K - r} times the
    prefactor, times the sum of g_n(a) over every n of total K (dropping n
    >= 1 only adds nonnegative terms), which is [P^{K-1}]_ab <= 1 for the
    stochastic P; here S = sum_x s_x l_x.  So everything beyond order N is
    at most exp(sum A_xx l_x) prod_{x != b} s_x e^{S/q} q^{N+1-r} / (1 - q),
    whose log :func:`_visit_log_tail` minimizes over q in closed form, and
    each row takes the smallest N >= |R| whose tail is at most tol / 2 (a
    power-of-two bracket, then bisection).  The bytes of the series at the
    largest such N are projected (:func:`visits.projected_bytes`) and a
    request over the flow guard's cap raises ``ExplosionGuardError`` before
    anything is allocated.

    The terms are summed in logs about their largest, so nothing overflows
    at any scale (the raw sum of the unit 3-cycle at l = 200 is above
    e^600) and a value whose diagonal factor underflows keeps its size until
    the last exponential.  The bound of a row is its tail, plus a rounding
    term: the coefficients carry at most (N + 1)(|R| + 2) roundings of a
    sum of nonnegative terms each, and the log terms an absolute error
    proportional to their magnitudes, so relative (N + 1)(|R| + 2) u plus a
    multiple of u times the largest log magnitude; plus the coefficients
    lost to subnormal underflow (each at most 2^-1074, carried with weight
    at most e^S).  Where the value itself is below the smallest normal
    double its last rounding, 2^-1074, is added.  A row whose bound is
    above ``tol`` raises ``NonConvergedTruncationError``.  A row's value,
    bound and order do not depend on the other rows, nor on what the caches
    held: the coefficients of a layer are the same bits whatever order
    extended them.
    """
    n_rows, r = L.shape
    series = _visit_series(rates, a, b)
    if series.sink:
        return np.zeros(n_rows), np.zeros(n_rows), np.zeros(n_rows, dtype=int)
    if not tol > 0.0:
        raise NonConvergedTruncationError(f"tol {tol!r} certifies no visit order")
    log_scale, S, V = series.row_terms(L)
    target = math.log(tol / 2.0)
    # the tail falls with N: bracket each row's order between r - 1 + 2^(k-1)
    # and r - 1 + 2^k in one pass over k, then bisect inside the bracket
    steps = r - 1 + (1 << np.arange(_VISIT_SEARCH.bit_length()))
    with np.errstate(over="ignore"):
        ok = _visit_log_tail(log_scale[:, None], S[:, None], steps, r) <= target
        if not ok[:, -1].all():
            raise ExplosionGuardError(
                f"the visit series needs an order above {steps[-1]} at some point")
        k = ok.argmax(axis=1)
        hi = steps[k]
        lo = np.where(k > 0, steps[np.maximum(k - 1, 0)], r - 1)
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            ok = _visit_log_tail(log_scale, S, mid, r) <= target
            hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
    orders = hi
    top = int(orders.max())
    need = projected_bytes(r, top)
    if need > _FLOW_BYTES:
        raise ExplosionGuardError(
            f"the visit series of order {top} on {r} states would take {need / 2**20:.0f} MB, "
            f"over the cap of {_FLOW_BYTES >> 20} MB; shrink the local times or the range")
    series.extend(top)
    values, bounds = np.zeros(n_rows), np.zeros(n_rows)
    # a value or bound beyond double range is inf, which certifies nothing
    with np.errstate(over="ignore"):
        for order in sorted(set(orders.tolist())):
            group = np.flatnonzero(orders == order)
            tail = np.exp(_visit_log_tail(log_scale[group], S[group], order, r))
            floor = np.exp(log_scale[group] + S[group] + _LOG_SUBNORMAL
                           + math.log(math.comb(order + r, r) * r * (order + 1)))
            if not series.finite[order]:
                bounds[group] = tail + floor
                continue
            value = np.exp(series.log_values(log_scale[group], V[group], order))
            magnitude = (np.abs(log_scale[group]) + series.absmax[order]
                         + (order + 1 - r) * np.abs(V[group]).max(axis=1))
            rel = _UNIT * ((order + 1) * (r + 2) + 2 * math.log2(series.structure.ends[order] + 1)
                           + 40 + 4 * (r + 2) * magnitude)
            bound = tail * (1.0 + rel) + rel * value + floor
            bound[value < _TINY] += math.exp(_LOG_SUBNORMAL)
            values[group], bounds[group] = value, bound
    if not np.all(bounds <= tol):
        failed = ~(bounds <= tol)
        raise NonConvergedTruncationError(
            f"certified error {np.max(bounds[failed]):.3e} above tol {tol:.3e} at visit order "
            f"{int(orders[failed].max())} ({int(failed.sum())} of {n_rows} points)")
    return values, bounds, orders


def _routed_rows(request: _Request,
                 tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """:func:`density_rows` on a read request, whose point is its one row."""
    rates, a, b = request.rates, request.a, request.b
    L = request.l.reshape(-1, len(request.R))
    route = "tree" if rates.tree else "visits"
    if not len(L):
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int), route
    if rates.tree:
        return _tree_rows(rates, a, b, L), np.zeros(len(L)), np.zeros(len(L), dtype=int), route
    return (*_visit_rows(rates, a, b, L, tol), route)


def density_rows(
    gen: Generator, R: Sequence, a, b, L, tol: float = 1e-10
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The density at many local-time vectors on one range, routed by the
    structure of the undirected support of B on R, which is computed once
    per rate block (:class:`RangeRates`).

    ``L`` is a (P, |R|) array with one strictly positive local-time vector
    per row, in the order of ``R``.  Returns ``(values, error_bounds,
    orders, route)``, the arrays of length P.  Where the support is a tree,
    ``route`` is ``"tree"`` and the values are the kernel product of
    :func:`density_tree`, O(|R|) Bessel kernels and no flow series, a row's
    bits independent of the other rows, with bounds and orders 0: the
    product has no truncation to certify, and ``tol`` does not apply.
    Everywhere else ``route`` is ``"visits"`` and the arrays are those of the
    visit-count series (:func:`_visit_rows`, which documents its contract
    and errors): each bound at most ``tol`` and each order the series' N,
    a row's bits again independent of the other rows.  With P = 0 it checks
    R, a, b and the rates and returns empty arrays.  :func:`density`, :func:`density_tree` and
    :func:`density_tridiagonal` are its one-row case: they read one point
    and take the same route, with the same bits.
    """
    return _routed_rows(_read_request(gen, R, a, b, L, rows=True), tol)


def density(gen: Generator, R: Sequence, a, b, l, tol: float = 1e-10) -> float:
    """Joint density of the local times on {range = R, endpoint = b} at the
    point ``l`` (a dict keyed by the states of R or a sequence in R's
    order): the one row of :func:`density_rows`, bit for bit."""
    return float(_routed_rows(_read_request(gen, R, a, b, l), tol)[0][0])


def _check_horizon(T: float) -> None:
    """``ValueError`` naming T unless it is finite and at least 0."""
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and >= 0, got {T!r}")


def _killed_exponential(rates: RangeRates, T: float, V=None) -> np.ndarray:
    """expm(T (A + diag V)) of the rate block A of ``rates``, killed outside
    its states; V in their order, or None."""
    from scipy.linalg import expm

    A = rates.A
    return expm(T * (A if V is None else A + np.diag(V)))


def range_probability(gen: Generator, a, b, R: Sequence, T: float) -> float:
    """P_a(range up to T is R, X_T = b), the density's mass on {sum of l = T}:
    inclusion-exclusion over the S with {a, b} within S within R of the (a, b)
    entries of :func:`_killed_exponential` on S.  R, a and b are checked as
    in a density request, then T."""
    R = _range_positions(R, a, b)[0]
    _check_horizon(T)
    others = [x for x in R if x not in (a, b)]
    total = 0.0
    for k in range(len(others) + 1):
        for dropped in combinations(others, k):
            S = tuple(x for x in R if x not in dropped)
            M = _killed_exponential(range_rates(gen, S), T)
            total += (-1) ** k * M[S.index(a), S.index(b)]
    return float(total)


_QUAD_GRID = 32


@lru_cache(maxsize=4)
def _cached_phases(grid: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """The phases e^{i th_x} at every node of a grid^(r - 1) grid (rows) for
    each state x (columns), and their conjugates, read-only.  The integrand
    depends on angle differences only, so the last angle is pinned at 0; the
    other angles run over the grid, whose nodes e^{i th} are the N-th roots
    of unity, so every phase e^{i(th_x - th_y)} is a product of two roots and
    needs no exp."""
    roots = np.exp(2j * np.pi * np.arange(grid) / grid)
    count = grid ** (r - 1)
    e = np.ones((count, r), dtype=complex)
    e[:, :-1] = roots[np.stack(np.unravel_index(np.arange(count), (grid,) * (r - 1)), axis=1)]
    ec = e.conj()
    _read_only(e, ec)
    return e, ec


@lru_cache(maxsize=None)
def _minor_layout(r: int, a: int, b: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The (x, y) position in the range of each entry of the minor without
    row b and column a, row by row; its diagonal entries (x == y) are the
    states other than a and b."""
    rows = [x for x in range(r) if x != b]
    cols = [y for y in range(r) if y != a]
    return tuple(tuple((x, y) for y in cols) for x in rows)


def _laplace_det(entries, cols: Tuple[int, ...]):
    """The determinant of the last len(cols) rows of ``entries`` on the
    (nonempty) columns ``cols``, by Laplace expansion along its first row.
    An entry is a float or a vector over the nodes; a 0.0 entry drops its
    term."""
    row = entries[len(entries) - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    total = 0.0
    for k, c in enumerate(cols):
        if isinstance(row[c], float) and row[c] == 0.0:
            continue
        term = row[c] * _laplace_det(entries, cols[:k] + cols[k + 1:])
        total = total - term if k % 2 else total + term
    return total


def _quadrature_value(
    A: np.ndarray, B: np.ndarray, l: np.ndarray, a: int, b: int, grid: int
) -> complex:
    """The (complex) trapezoidal average of the cofactor-inside integrand on
    a grid^(|R| - 1) grid; see :func:`density_quadrature`."""
    r = A.shape[0]
    if r == 1:
        return complex(math.exp(A[0, 0] * l[0]))
    sq = np.sqrt(l)
    D = B * (sq[None, :] / sq[:, None])
    e, ec = _cached_phases(grid, r)
    base = float(np.dot(np.diag(A), l))
    # V[p, x] = sum_z D[x,z] e_x conj(e_z); the exponent
    # sum_{x,y} A[x,y] sqrt(l_x l_y) e_x conj(e_y) is then
    # sum_x A[x,x] l_x + sum_x l_x V[p, x]
    V = e * (ec @ D.T)
    # det_ab is (-1)^(a+b) times the minor without row b and column a:
    # -B off its diagonal, and -B[x,x] + V[:, x] = V[:, x] on it
    entries = [[V[:, x] if x == y else -float(B[x, y]) for x, y in row]
               for row in _minor_layout(r, a, b)]
    total = 0.0 + 0.0j
    total += np.sum(_laplace_det(entries, tuple(range(r - 1))) * np.exp(base + V @ l))
    return (-1) ** (a + b) * total / len(e)


def density_quadrature(gen: Generator, R: Sequence, a, b, l) -> float:
    """Density via the derivative-free form: the cofactor moves inside the
    torus integral with a diagonal correction.

    The integrand is det_ab(-B + V(th, l)) exp(sum A[x,y] sqrt(l_x l_y)
    e^{i(th_x - th_y)}) with V(th, l)[x] = sum_z B[x,z] sqrt(l_z/l_x)
    e^{i(th_x - th_z)}, averaged over the torus by an equispaced (periodic
    trapezoidal) tensor grid of 32 points per angle, which is spectrally
    accurate for this analytic integrand at moderate local times.  The grid
    nodes e^{i th} are roots of unity, so the phases are products of
    precomputed roots, built once per range size and kept.  det_ab is the
    signed minor without row b and column a, kept as entries (a rate, or a
    node vector on its diagonal) and expanded in closed form along its first
    row, so no node calls a linear-algebra routine.

    |R| > 4 raises ``ValueError``.
    """
    R, a_pos, b_pos, lvec, rates = _read_request(gen, R, a, b, l)
    if len(R) > 4:
        raise ValueError("density_quadrature is limited to |R| <= 4")
    value = _quadrature_value(rates.A, rates.B, lvec, a_pos, b_pos, _QUAD_GRID)
    if abs(value.imag) > 1e-8 * abs(value.real) + 1e-12:
        raise ResidualImaginaryError(
            f"imaginary residue {value.imag:.3e} against real part {value.real:.3e}"
        )
    return float(value.real)


def _integer_interval(R: Sequence) -> Tuple[int, ...]:
    try:
        R_int = tuple(int(x) for x in R)
    except (TypeError, ValueError):
        raise NotIntervalError(f"labels {R!r} are not integers")
    if any(int(x) != x for x in R):
        raise NotIntervalError(f"labels {R!r} are not integers")
    R_sorted = tuple(sorted(R_int))
    if any(R_sorted[i + 1] - R_sorted[i] != 1 for i in range(len(R_sorted) - 1)):
        raise NotIntervalError(f"{R!r} is not a contiguous integer interval")
    return R_sorted


def density_tridiagonal(gen: Generator, R: Sequence, a, b, l) -> float:
    """Density of a nearest-neighbor chain on an integer interval.

    The tree product (:func:`density_tree`) on the sorted interval, whose
    support is its path graph where no rate pair is 0 (a pair of 0 rates cuts
    the interval, and the density is 0): one
    edge kernel per middle edge (between a and b, each weighted by the
    rate across it in the direction from a to b) and one kernel derivative
    per outer edge (outside min(a, b)..max(a, b)), times the diagonal
    exponential, multiplied from left to right.  For unit-rate walks the
    middle rate factors are invisible; the two-state case pins them down:
    the density of one crossing carries the rate of that jump.  Labels that
    are not a contiguous integer interval raise ``NotIntervalError``, and a
    rate beyond nearest neighbors ``NotTridiagonalError``.
    """
    request = _read_request(gen, R, a, b, l)
    R_sorted = _integer_interval(request.R)
    if request.R != R_sorted:
        request = _read_request(gen, R_sorted, a, b, dict(zip(request.R, request.l)))
    if any(y - x >= 2 for x, y in request.rates.edges):
        raise NotTridiagonalError("generator has rates beyond nearest neighbors in R")
    if not request.rates.tree:
        return 0.0
    return float(_routed_rows(request)[0][0])


class _TreeFactors(NamedTuple):
    """The factors of the tree product in edge order: the scaled kernel of
    ``order`` (0 on the a-b path, 1 off it) at the positions ``ends`` (the
    first positions of every edge, then the second ones, so that one
    ``take`` reads both), times ``rate``; values are (1, n) rows, so that a
    single row of local times broadcasts nothing."""

    order: Union[np.ndarray, int]   # as floats, the type ``ive`` takes; the
                                    # int 0 where every edge is on the path
    ends: np.ndarray        # first: on the path the lower position, off it the
                            # far end; then second: the other end
    c: np.ndarray           # B_xy * B_yx, >= 0 since B is
    rate: np.ndarray        # on the path the rate from a toward b, off it 1.0
    diag: np.ndarray        # A_xx, contiguous


@lru_cache(maxsize=_PREPARED_RANGES)
def _tree_factors(rates: RangeRates, a: int, b: int) -> _TreeFactors:
    """The factors of :func:`density_tree` for ``rates``, whose support
    (``rates.edges``) is a tree, and endpoints at positions a and b.

    Rooted at a, the a-b path is b and its ancestors, and each edge off the
    path joins a child (the end farther from the path, since no descendant of
    an off-path node is on the path) to its parent.
    """
    A = rates.A
    parent = _reach((rates.B != 0.0) | (rates.B.T != 0.0), [a])
    on_path = set()
    x = b
    while x != a:
        on_path.add(x)
        x = parent[x]
    factors = []
    for x, y in rates.edges:
        child, near = (y, x) if parent[y] == x else (x, y)
        c = float(A[x, y]) * float(A[y, x])
        if child in on_path:
            factors.append((0, x, y, c, float(A[near, child])))
        else:
            factors.append((1, child, near, c, 1.0))
    order, first, second, c, rate = np.array(factors, dtype=float).reshape(-1, 5).T
    arrays = _TreeFactors(order[None], np.concatenate([first, second]).astype(int), c[None],
                          rate[None], rates.diag[None].copy())
    _read_only(*arrays)
    return arrays if order.any() else arrays._replace(order=0)


def _tree_rows(rates: RangeRates, a: int, b: int, L: np.ndarray) -> np.ndarray:
    """The tree product at each row of ``L``: the product, in edge order, of
    the scaled kernels of :func:`_tree_factors`, all from one
    :func:`bessel._scaled_kernels` call, times one exponential per row of
    sum A_xx l_x + sum_e z_e, added left to right.  By AM-GM each z_e <=
    B_xy l_x + B_yx l_y, so the exponent is <= 0 and neither the product nor
    its exponent overflows where the density is a double.  Every operation
    is elementwise or runs along one row, so a row's bits do not depend on
    the other rows.

    A row costs about a dozen numpy calls, so the layout keeps their count
    down: both ends of every edge come from one ``take``, and the terms of
    the exponent are written into one buffer, z by the kernel call itself,
    and summed in place."""
    f = _tree_factors(rates, a, b)
    r, edges = L.shape[1], f.c.shape[1]
    ends = L.take(f.ends, axis=1)
    terms = np.empty((len(L), r + edges))
    np.multiply(L, f.diag, out=terms[:, :r])
    _, kernels = _scaled_kernels(f.order, f.c, ends[:, :edges], ends[:, edges:], terms[:, r:])
    kernels *= f.rate
    np.add.accumulate(terms, axis=1, out=terms)
    return np.multiply.reduce(kernels, axis=1) * np.exp(terms[:, -1])


def density_tree(gen: Generator, R: Sequence, a, b, l) -> float:
    """Density of a chain whose support on R is a tree.

    When the undirected support of B on R (the pairs with B_xy or B_yx
    nonzero) is a tree, the cofactor factorizes along it.  Let a = x0, ...,
    xk = b be the tree path and c_e = B_xy B_yx.  Then

        rho(l) = exp(sum_x A_xx l_x)
                 * prod_path A[x_i, x_{i+1}] K0(c_e, l_{x_i}, l_{x_{i+1}})
                 * prod_off-path K1(c_e, l_far, l_near),

    with K0 and K1 the order-0 and order-1 :func:`bessel.scaled_edge_kernel`
    and "far" the end farther from the path.  Each kernel is scaled by e^{-z}
    and the exponent sum A_xx l_x + sum_e z_e is applied once, so there is
    no truncation and no cancellation: every factor is nonnegative.  a == b
    (no path edges), a > b and one-way edges (c_e = 0, where an off-path edge
    gives 0 and a path edge its one rate) follow from the same formula.  The
    tree flag and the path come from the caches of the rate block, so a call
    pays no graph search.  A support that is not a tree raises
    ``NotTreeError``.
    """
    request = _read_request(gen, R, a, b, l)
    rates = request.rates
    if not rates.tree:
        raise NotTreeError(
            f"the support on {request.R!r} is not a tree (cyclomatic number "
            f"{rates.cyclomatic}{'' if rates.cyclomatic else ', not connected'})")
    return float(_routed_rows(request)[0][0])
