"""Conservative generators.

A generator (Q-matrix) is a square rate matrix over an ordered, finite label
set: off-diagonal entries are nonnegative jump rates and every row sums to
zero.  Paths are sampled by the batch samplers of :mod:`montecarlo`.  Which
states reach which is one linear-time search, :func:`_reach`, for every
caller: the structure of a range's support, the strong connectivity that
``rate_general`` needs, and the states a fixed-time path can visit.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    NegativeRateError,
    NonConservativeError,
    TooSmallStateSpaceError,
    UnknownLabelError,
)

_CONSERVATIVE_TOL = 1e-12
_SYMMETRIC_TOL = 1e-12


def _is_symmetric(A: np.ndarray) -> bool:
    """Whether A equals its transpose entrywise to within _SYMMETRIC_TOL."""
    return bool(np.all(np.abs(A - A.T) <= _SYMMETRIC_TOL))


def _reach(adjacent: np.ndarray, starts: Iterable[int]) -> List[Optional[int]]:
    """The predecessor of each state in a depth-first search along the pairs
    (x, y) with ``adjacent[x, y]`` true, from each start that no earlier
    start reached: a start is its own predecessor, and a state no start
    reaches has None.  After one pass over ``adjacent`` for the successor
    lists, O(states + pairs) in all (Tarjan, SIAM J. Comput. 1, 1972)."""
    successors: List[List[int]] = [[] for _ in range(len(adjacent))]
    for x, y in zip(*(v.tolist() for v in np.nonzero(adjacent))):
        successors[x].append(y)
    pred: List[Optional[int]] = [None] * len(adjacent)
    for start in starts:
        if pred[start] is None:
            pred[start] = start
            stack = [start]
            while stack:
                x = stack.pop()
                for y in successors[x]:
                    if pred[y] is None:
                        pred[y] = x
                        stack.append(y)
    return pred


@dataclass(eq=False)
class Generator:
    """A conservative rate matrix over an ordered finite label set."""

    states: Tuple
    rates: np.ndarray
    _index: Dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if not self._index:
            self._index = {s: i for i, s in enumerate(self.states)}

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"state {label!r} is not in the state set") from None

    def indices(self, labels: Iterable) -> np.ndarray:
        return np.array([self.index(x) for x in labels], dtype=int)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def off_diagonal(self) -> np.ndarray:
        """The off-diagonal part B of the rate matrix."""
        B = self.rates.copy()
        np.fill_diagonal(B, 0.0)
        return B

    def exit_rates(self) -> np.ndarray:
        return -np.diag(self.rates)

    def submatrix(self, labels: Sequence) -> np.ndarray:
        """Rate matrix restricted to labels x labels (no re-conservation)."""
        idx = self.indices(labels)
        return self.rates[idx[:, None], idx]

    def is_symmetric(self) -> bool:
        return _is_symmetric(self.rates)


def validate_generator(rates, states: Optional[Sequence] = None) -> Generator:
    """Validate a square rate matrix and return a :class:`Generator`.

    Entries must be finite, off-diagonal ones nonnegative, and the label set
    must have at least two elements.  An all-zero diagonal (with some positive
    off-diagonal entry) is treated as absent and recomputed as the negative
    off-diagonal row sum; otherwise the provided diagonal must satisfy the zero-row-sum
    condition to within 1e-12 relative.
    """
    A = np.array(rates, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"rate matrix must be square, got shape {A.shape}")
    n = A.shape[0]
    if states is None:
        states = tuple(range(n))
    else:
        states = tuple(states)
        if len(states) != n:
            raise ValueError("label set does not match the matrix dimension")
        if len(set(states)) != n:
            raise ValueError("state labels must be distinct")
    if n < 2:
        raise TooSmallStateSpaceError("a generator needs at least two states")

    if not np.all(np.isfinite(A)):
        x, y = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"rate {A[x, y]} from {states[x]!r} to {states[y]!r} is not finite")
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        x, y = np.argwhere(off < 0)[0]
        raise NegativeRateError(
            f"negative rate {A[x, y]} from {states[x]!r} to {states[y]!r}"
        )

    row_sums = off.sum(axis=1)
    diag = np.diag(A)
    if np.all(diag == 0.0):
        # diagonal absent: force conservativeness
        A[np.arange(n), np.arange(n)] = -row_sums
    else:
        scale = np.maximum(1.0, np.abs(diag) + row_sums)
        bad = np.abs(diag + row_sums) > _CONSERVATIVE_TOL * scale
        if np.any(bad):
            x = int(np.argmax(bad))
            raise NonConservativeError(
                f"row {states[x]!r} sums to {diag[x] + row_sums[x]:.3e}, not 0"
            )
    return Generator(states=states, rates=A)


def generator_from_triples(
    states: Sequence,
    triples: Iterable[Tuple],
    diagonal: Optional[Mapping] = None,
) -> Generator:
    """Build a generator from (from, to, rate) triples; diagonal optional."""
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    A = np.zeros((n, n))
    for k, triple in enumerate(triples):
        try:
            src, dst, rate = triple
        except (TypeError, ValueError):
            raise ValueError(f"triple #{k} is not a (from, to, rate) triple: {triple!r}")
        if src not in index or dst not in index:
            raise UnknownLabelError(f"triple #{k} references unknown state: {triple!r}")
        if src == dst:
            raise ValueError(f"triple #{k} sets a diagonal entry; use 'diagonal'")
        A[index[src], index[dst]] = float(rate)
    if diagonal is not None:
        for label, value in diagonal.items():
            if label not in index:
                raise UnknownLabelError(f"diagonal references unknown state {label!r}")
            A[index[label], index[label]] = float(value)
    return validate_generator(A, states)


def srw_generator(lo: int, hi: int) -> Generator:
    """Continuous-time simple random walk on the integer interval [lo, hi].

    Unit rates to each nearest neighbor inside the window; the conservative
    diagonal is -2 at interior sites and -1 at the two ends (the walk never
    leaves the window)."""
    if hi <= lo:
        raise ValueError("need hi > lo")
    states = tuple(range(lo, hi + 1))
    n = len(states)
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = 1.0
        A[i + 1, i] = 1.0
    return validate_generator(A, states)
