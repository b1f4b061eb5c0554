"""Visit vectors of jump paths: the structure of the visit-count series.

A jump path on r states that visits state x n_x times has the visit vector
n, and the density's path expansion (:func:`density._visit_rows`) sums over
such vectors layer by layer, layer K holding the compositions of K into r
parts (n >= 0, |n| = K).  Everything here depends on the shape (r, K) alone,
never on a rate, so every range of r states shares it.

A layer is stored in the order of the combinatorial number system: the bars
of n sit at c_i = n_0 + ... + n_i + i for i < r - 1, and rank(n) = sum_i
C(c_i, i + 1) maps the layer one to one onto 0 .. C(K + r - 1, r - 1) - 1.
One more visit to x raises c_i by one for every i >= x, so by Pascal's rule
rank(n + e_x) = rank(n) + sum_{i >= x} C(c_i, i): the next layer's ranks come
from the current one by table lookups and a running sum over the bars, with
no sort and no ``np.unique``.
"""

import math
import threading
from functools import lru_cache
from typing import List, NamedTuple, Tuple

import numpy as np
from scipy.special import gammaln


class VisitLayer(NamedTuple):
    """Layer K of the visit vectors, read-only."""

    pred: np.ndarray        # (r, V_K) int32: for the state x and the vector n, the
                            # flat index x (V_{K-1} + 1) + rank(n - e_x) into
                            # layer K - 1 as an (r, V_{K-1} + 1) array, whose
                            # last column stands in where n_x = 0
    full: np.ndarray        # (F_K,) int32: the ranks of the vectors with every n_x >= 1


def layer_size(r: int, K: int) -> int:
    """The number of visit vectors of total K on r states."""
    return math.comb(K + r - 1, r - 1)


def projected_bytes(r: int, N: int) -> int:
    """The bytes the visit series of order N on r states holds: the layers'
    predecessor indices (int32), the exponents (uint16), log factorials and
    ranks (int32) of the vectors with every n_x >= 1 together with their
    coefficients (:func:`density._visit_rows` keeps one per vector), and the
    working layers of the recursion with their bars and ranks."""
    every = math.comb(N + r, r)         # vectors of total 1 .. N, and the empty one
    full = math.comb(N, r)              # vectors of total r .. N with every n_x >= 1
    last = layer_size(r, N)
    return every * r * 4 + full * (2 * r + 20) + last * 8 * r * 8


class VisitStructure:
    """The layers 1 .. N of the visit vectors on r >= 2 states, grown on
    demand and kept, since a longer series only appends layers.

    Besides the layers it holds, for the vectors with every n_x >= 1 in
    layer order (layer r first, each layer by rank), their ``exponents``
    n_x - 1 as an (r, F) uint16 array (a float times it is the float times
    the exponent as a double, exactly) and their ``log_factorials`` sum_x
    log (n_x - 1)!, with ``ends[K]`` the count of them in layers 1 .. K.
    """

    def __init__(self, r: int):
        self.r = r
        # layer 0 holds the empty vector alone, whose bars all sit at c_i = i;
        # bars are kept bar by bar, (r - 1, V_K), so each pass is contiguous
        self._bars = np.arange(r - 1, dtype=np.int32)[:, None]
        self._binomials = np.zeros((r - 1, 0), dtype=np.int64)
        self.layers: List[VisitLayer] = []
        self.exponents = np.zeros((r, 0), dtype=np.uint16)
        self.log_factorials = np.zeros(0)
        self.ends = [0]
        self._lock = threading.Lock()

    def extend(self, N: int) -> List[VisitLayer]:
        """The layers 1 .. N (``layers[K - 1]`` is layer K)."""
        with self._lock:
            return self._extend(N)

    def _extend(self, N: int) -> List[VisitLayer]:
        if len(self.layers) < N:
            new = [self._append() for _ in range(len(self.layers), N)]
            self.exponents = np.concatenate([self.exponents] + [e for e, _ in new], axis=1)
            self.log_factorials = np.concatenate([self.log_factorials] + [f for _, f in new])
            for arr in (self.exponents, self.log_factorials):
                arr.flags.writeable = False
        return self.layers[:N]

    def _binomial(self, top: int) -> np.ndarray:
        """C(c, i) for i < r - 1 (rows) and every bar position c < ``top``
        (columns), from a table grown as the bars move right."""
        table = self._binomials
        if top > table.shape[1]:
            cols = max(top, 2 * table.shape[1])
            table = np.array([[math.comb(c, i) for c in range(cols)]
                              for i in range(self.r - 1)], dtype=np.int64).reshape(-1, cols)
            self._binomials = table
        return table

    def _append(self) -> Tuple[np.ndarray, np.ndarray]:
        """Append the next layer; return the exponents and log factorials
        of its vectors with every n_x >= 1."""
        r, bars, K = self.r, self._bars, len(self.layers)
        count = bars.shape[1]
        # rank(n + e_x) - rank(n) = sum_{i >= x} C(c_i, i), and 0 for x = r - 1;
        # the bars of layer K sit at most at K + r - 2
        table = self._binomial(K + r - 1)
        ranks = np.empty((r, count), dtype=np.int32)
        ranks[r - 1] = np.arange(count, dtype=np.int32)
        for i in range(r - 2, -1, -1):
            np.add(ranks[i + 1], table[i].take(bars[i]), out=ranks[i])
        size = layer_size(r, K + 1)
        pred = np.empty((r, size), dtype=np.int32)
        sources = np.arange(count, dtype=np.int32)
        for x in range(r):
            pred[x] = x * (count + 1) + count
            pred[x, ranks[x]] = sources + x * (count + 1)
        # each new vector takes its bars from one source, n - e_x for its last
        # x with n_x >= 1: the sources whose parts after x are all 0, that is
        # whose bar c_x sits at K + x.  For x = r - 1 the ranks do not move,
        # so those are the first ``count`` vectors
        new_bars = np.empty((r - 1, size), dtype=np.int32)
        new_bars[:, :count] = bars
        for x in range(r - 1):
            last = np.flatnonzero(bars[x] == K + x)
            targets = ranks[x, last]
            for i in range(r - 1):
                new_bars[i, targets] = bars[i, last] + (i >= x)
        # n_0 = c_0, n_i = c_i - c_{i-1} - 1, n_{r-1} = K + 1 + r - 2 - c_{r-2}
        counts = np.empty((r, size), dtype=np.int32)
        counts[0] = new_bars[0]
        np.subtract(new_bars[1:], new_bars[:-1], out=counts[1:-1])
        counts[1:-1] -= 1
        np.subtract(K + r - 1, new_bars[-1], out=counts[-1])
        full = np.flatnonzero(counts.min(axis=0) >= 1).astype(np.int32)
        exponents = counts[:, full] - 1
        log_factorials = gammaln(np.arange(1.0, K + 2.0))[exponents].sum(axis=0)
        for arr in (pred, full):
            arr.flags.writeable = False
        self.layers.append(VisitLayer(pred, full))
        self.ends.append(self.ends[-1] + len(full))
        self._bars = new_bars
        return exponents.astype(np.uint16), log_factorials


@lru_cache(maxsize=8)
def visit_structure(r: int) -> VisitStructure:
    """The one :class:`VisitStructure` of r states in this process."""
    return VisitStructure(r)
