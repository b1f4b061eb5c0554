"""Enumeration of balanced nonnegative integer flows on a directed support.

A balanced flow assigns a count n_e >= 0 to every directed support edge so
that in-degree equals out-degree at every node.  These index the terms of the
torus-integral power series: a monomial survives the circle averages exactly
when its multi-index is balanced.

Enumeration sweeps the edges once, extending all partial assignments in
lockstep (numpy arrays, no per-flow Python work).  Edges are visited in a
node-closing order: all edges incident to the lowest node first, then the
rest incident to the next node, and so on.  A free edge extends each prefix
by every count that fits the budget.  At an edge that is the last to touch a
node, the count is forced: only -imbalance[i] (or +imbalance[j]) balances the
node it closes, and both must agree when it closes both ends, so each prefix
gets one row, or none when the forced count is negative or does not fit.  A
remaining-budget bound on the positive imbalance prunes the rest.  The table
lists the flows lexicographically in the closing order, a pure function of
the support, so repeated evaluations reduce in the same order, and tables are
memoized per (support, max_total) for reuse across derivative subsets.

The enumeration runs on integers, but a table stores its counts and
out-degrees as float64, the type the series multiplies them in: they are
small integers, exact in a double, so a table built once serves every later
evaluation on its support with no cast.  Its arrays are read-only, since one
table serves every caller.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .errors import ExplosionGuardError

_FLOW_CAP = 2_000_000
# bytes the prefix arrays of one expansion may take: the largest answered
# request of the density sweep expands to about 5 MB
_FLOW_BYTES = 256 << 20


@dataclass(frozen=True)
class FlowTable:
    """All balanced flows on one support, packed for vectorized evaluation."""

    edges: Tuple[Tuple[int, int], ...]   # directed edges as node-position pairs
    n_nodes: int
    counts: np.ndarray                   # (F, E) float64, one row per flow
    out_degree: np.ndarray               # (F, n_nodes) float64, row sums per tail node
    log_count_factorials: np.ndarray     # (F,) sum_e log(n_e!)

    @property
    def n_flows(self) -> int:
        return self.counts.shape[0]


def _closing_order(edges: Sequence[Tuple[int, int]], n_nodes: int) -> List[int]:
    """Visit all edges at the lowest-indexed open node, then the next, ..."""
    remaining = list(range(len(edges)))
    order: List[int] = []
    for v in range(n_nodes):
        mine = [k for k in remaining if v in edges[k]]
        mine.sort(key=lambda k: edges[k])
        order.extend(mine)
        remaining = [k for k in remaining if v not in edges[k]]
    order.extend(sorted(remaining, key=lambda k: edges[k]))
    return order


def _enumerate(edges, n_nodes, max_total, cap) -> np.ndarray:
    m = len(edges)
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    order = _closing_order(edges, n_nodes)
    last_touch = {}
    for pos, k in enumerate(order):
        i, j = edges[k]
        last_touch[i] = pos
        last_touch[j] = pos

    # bytes of one prefix row with all m counts: the int32 counts, imbalance
    # and used total, and the int64 row index and offset that build it
    row_bytes = 4 * (m + n_nodes + 1) + 16
    # partial assignments: counts over visited edges, imbalance per node, used total
    counts = np.zeros((1, 0), dtype=np.int32)
    imbalance = np.zeros((1, n_nodes), dtype=np.int32)
    used = np.zeros(1, dtype=np.int32)

    for pos, k in enumerate(order):
        i, j = edges[k]
        closes_i, closes_j = last_touch[i] == pos, last_touch[j] == pos
        if closes_i or closes_j:
            # only the count that balances the closed node can be kept: one
            # row per prefix, dropped here when negative (or when the two
            # closed nodes force different counts) and below when over budget
            offsets = -imbalance[:, i] if closes_i else imbalance[:, j]
            ok = offsets >= 0
            if closes_i and closes_j:
                ok &= imbalance[:, j] == offsets
            rows = np.flatnonzero(ok)
            offsets = offsets[rows]
        else:
            reps = max_total - used + 1
            # guard the expansion allocation itself, not just the result: its
            # rows, and its bytes at the widest a prefix row gets
            n_rows = int(reps.sum())
            n_bytes = n_rows * row_bytes
            if n_rows > 4 * cap or n_bytes > _FLOW_BYTES:
                raise ExplosionGuardError(
                    f"balanced-flow expansion would take {n_rows} rows of {row_bytes} "
                    f"bytes ({n_bytes / 2**20:.0f} MB), over the cap of {4 * cap} rows "
                    f"or {_FLOW_BYTES >> 20} MB; shrink the support or max_total"
                )
            rows = np.repeat(np.arange(counts.shape[0]), reps)
            offsets = (np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
                       ).astype(np.int32)
        counts = np.concatenate([counts[rows], offsets[:, None]], axis=1)
        imbalance = imbalance[rows]
        imbalance[:, i] += offsets
        imbalance[:, j] -= offsets
        used = used[rows] + offsets

        # each later edge unit cancels at most one unit of positive imbalance
        # (a count over the budget leaves max_total - used negative)
        keep = np.maximum(imbalance, 0).sum(axis=1) <= max_total - used
        counts, imbalance, used = counts[keep], imbalance[keep], used[keep]
        if counts.shape[0] > cap:
            raise ExplosionGuardError(
                f"more than {cap} balanced-flow prefixes; shrink the support "
                f"or max_total"
            )

    # scatter visited-order columns back to the caller's edge order
    full = np.zeros((counts.shape[0], m), dtype=np.int64)
    for pos, k in enumerate(order):
        full[:, k] = counts[:, pos]
    return full


@lru_cache(maxsize=128)
def flow_table(
    edges: Tuple[Tuple[int, int], ...],
    n_nodes: int,
    max_total: int,
) -> FlowTable:
    """Balanced flows with total count <= max_total on the given support."""
    if max_total < 0:
        raise ValueError("max_total must be >= 0")
    counts = _enumerate(tuple(edges), n_nodes, max_total, _FLOW_CAP)
    # log(n!) is read from a table of the max_total + 1 possible counts
    log_count_factorials = gammaln(np.arange(max_total + 1) + 1.0)[counts].sum(axis=1)
    counts = counts.astype(float)
    out_degree = np.zeros((counts.shape[0], n_nodes))
    for k, (i, _) in enumerate(edges):
        out_degree[:, i] += counts[:, k]
    for arr in (counts, out_degree, log_count_factorials):
        arr.flags.writeable = False
    return FlowTable(
        edges=tuple(edges),
        n_nodes=n_nodes,
        counts=counts,
        out_degree=out_degree,
        log_count_factorials=log_count_factorials,
    )
