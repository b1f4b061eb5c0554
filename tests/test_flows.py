import math
from itertools import product

import numpy as np
import pytest

from loctimes.errors import ExplosionGuardError
from loctimes.density import _ORDER_SCHEDULE
from loctimes.flows import _FLOW_CAP, _closing_order, _enumerate, flow_table


def flows_on(support, max_total):
    """The count rows of ``flow_table`` on a support given by state labels,
    with the labels mapped to positions in order of first appearance."""
    pos = {}
    for edge in support:
        for x in edge:
            pos.setdefault(x, len(pos))
    edges = tuple((pos[x], pos[y]) for x, y in support)
    table = flow_table(edges, len(pos), max_total)
    return [tuple(int(n) for n in row) for row in table.counts]


def brute_force_flows(support, max_total):
    """Independent oracle: filter every candidate count vector."""
    out = []
    for counts in product(range(max_total + 1), repeat=len(support)):
        if sum(counts) > max_total:
            continue
        net = {}
        for (x, y), n in zip(support, counts):
            net[x] = net.get(x, 0) + n
            net[y] = net.get(y, 0) - n
        if all(v == 0 for v in net.values()):
            out.append(counts)
    return sorted(out)


@pytest.mark.parametrize(
    "support,max_total,expected_count",
    [
        ([(1, 2), (2, 1)], 2, 2),       # zero flow and one round trip
        ([(1, 2), (2, 1)], 0, 1),       # zero flow only
        ([(0, 1), (1, 0), (1, 2), (2, 1)], 2, 3),  # path: two back-and-forths
    ],
)
def test_known_flow_counts(support, max_total, expected_count):
    assert len(flows_on(support, max_total)) == expected_count


@pytest.mark.parametrize(
    "support,max_total",
    [
        ([(1, 2), (2, 1)], 5),
        ([(0, 1), (1, 0), (1, 2), (2, 1)], 6),
        ([(0, 1), (1, 2), (2, 0)], 7),                       # directed 3-cycle
        ([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 5),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 8),               # directed 4-cycle
    ],
)
def test_matches_brute_force(support, max_total):
    assert sorted(flows_on(support, max_total)) == brute_force_flows(support, max_total)


def test_explosion_guard():
    edges = tuple((i, j) for i in range(4) for j in range(4) if i != j)
    with pytest.raises(ExplosionGuardError):
        _enumerate(edges, 4, 40, 1000)


def test_flow_table_packs_out_degrees():
    table = flow_table(((0, 1), (1, 0)), 2, 4)
    # flows are (k, k); out-degree of node 0 is k
    for row, deg in zip(table.counts, table.out_degree):
        assert row[0] == row[1]
        assert deg[0] == row[0] and deg[1] == row[1]
    assert np.array_equal(table.out_degree.sum(axis=1), table.counts.sum(axis=1))


# ---------------------------------------------------------------------------
# row order: the series sums its terms in table order, so the order is pinned
# ---------------------------------------------------------------------------

def compositions(m, max_total):
    """Every count vector of length m with total at most max_total."""
    if m == 0:
        yield ()
        return
    for n in range(max_total + 1):
        for rest in compositions(m - 1, max_total - n):
            yield (n,) + rest


def ordered_brute_force(edges, n_nodes, max_total):
    """Independent oracle with the table's row order: every balanced count
    vector, sorted lexicographically in the closing order of the edges."""
    rows = []
    for counts in compositions(len(edges), max_total):
        net = [0] * n_nodes
        for (x, y), n in zip(edges, counts):
            net[x] += n
            net[y] -= n
        if not any(net):
            rows.append(counts)
    order = _closing_order(edges, n_nodes)
    rows.sort(key=lambda row: [row[k] for k in order])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(edges))


def expand_and_prune(edges, n_nodes, max_total):
    """The enumerator before forced counts: every edge expands each prefix
    into all counts that fit the budget, and a node's balance is checked
    after its last edge."""
    m = len(edges)
    order = _closing_order(edges, n_nodes)
    last_touch = {}
    for pos, k in enumerate(order):
        last_touch[edges[k][0]] = last_touch[edges[k][1]] = pos
    counts = np.zeros((1, 0), dtype=np.int32)
    imbalance = np.zeros((1, n_nodes), dtype=np.int32)
    used = np.zeros(1, dtype=np.int32)
    for pos, k in enumerate(order):
        i, j = edges[k]
        reps = max_total - used + 1
        rows = np.repeat(np.arange(counts.shape[0]), reps)
        offsets = (np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
                   ).astype(np.int32)
        counts = np.concatenate([counts[rows], offsets[:, None]], axis=1)
        imbalance = imbalance[rows].copy()
        imbalance[:, i] += offsets
        imbalance[:, j] -= offsets
        used = used[rows] + offsets
        keep = np.maximum(imbalance, 0).sum(axis=1) <= max_total - used
        if last_touch[i] == pos:
            keep &= imbalance[:, i] == 0
        if last_touch[j] == pos:
            keep &= imbalance[:, j] == 0
        counts, imbalance, used = counts[keep], imbalance[keep], used[keep]
    full = np.zeros((counts.shape[0], m), dtype=np.int64)
    for pos, k in enumerate(order):
        full[:, k] = counts[:, pos]
    return full


def assert_same_table(got, expected, dtype=np.int64):
    assert got.dtype == dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "edges,n_nodes,max_total",
    [
        # directed 3-cycle: its last edge closes both of its ends
        (((0, 1), (1, 2), (2, 0)), 3, 9),
        # directed 4-cycle, visited out of label order
        (((2, 3), (0, 2), (3, 1), (1, 0)), 4, 10),
        # the cycle's forced counts use the whole budget at 3k = 9 and
        # cannot at 3k = 10 > 8: the budget, not the balance, drops the row
        (((0, 1), (1, 2), (2, 0)), 3, 8),
        # two cycles through node 0 with a chord: closing edges forced at
        # nodes 1, 2 and 3 with free edges between them
        (((0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (1, 3)), 4, 12),
        # 4-node supports of 7 edges
        (((0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 0), (3, 1)), 4, 12),
        (((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 3)), 4, 12),
        # an edge whose tail node no other edge touches
        (((0, 1), (1, 0), (2, 0)), 3, 6),
    ],
)
def test_table_rows_in_closing_order(edges, n_nodes, max_total):
    # the enumeration is integral; the table stores its counts and
    # out-degrees as exact floats, read-only since every caller shares them
    table = flow_table(edges, n_nodes, max_total)
    expected = ordered_brute_force(edges, n_nodes, max_total)
    assert_same_table(table.counts, expected, np.float64)
    degree = np.zeros((len(expected), n_nodes), dtype=np.int64)
    for k, (i, _) in enumerate(edges):
        degree[:, i] += expected[:, k]
    assert_same_table(table.out_degree, degree, np.float64)
    factorials = [sum(math.lgamma(n + 1) for n in row) for row in expected.tolist()]
    assert table.log_count_factorials == pytest.approx(factorials, rel=1e-14, abs=1e-14)
    for arr in (table.counts, table.out_degree, table.log_count_factorials):
        assert not arr.flags.writeable


def random_support(rng, n):
    """A directed Hamiltonian cycle on n nodes plus up to three random chords."""
    perm = rng.permutation(n)
    edges = {(int(perm[k]), int(perm[(k + 1) % n])) for k in range(n)}
    rest = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) not in edges]
    for k in rng.choice(len(rest), min(len(rest), int(rng.integers(0, 4))), replace=False):
        edges.add(rest[int(k)])
    return tuple(sorted(edges, key=lambda e: rng.random()))


@pytest.mark.parametrize("seed", range(6))
def test_forced_counts_match_expand_and_prune(seed):
    # the schedule's orders up to 36 on random supports with |R| <= 6
    rng = np.random.default_rng(3100 + seed)
    for n in (2, 3, 4, 5, 6):
        edges = random_support(rng, n)
        for max_total in _ORDER_SCHEDULE[:5]:
            assert_same_table(_enumerate(edges, n, max_total, _FLOW_CAP),
                              expand_and_prune(edges, n, max_total))

