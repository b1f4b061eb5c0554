from itertools import product

import numpy as np
import pytest

from loctimes.errors import ExplosionGuardError
from loctimes.flows import DEFAULT_FLOW_CAP, flow_table


def flows_on(support, max_total, cap=DEFAULT_FLOW_CAP):
    """The count rows of ``flow_table`` on a support given by state labels,
    with the labels mapped to positions in order of first appearance."""
    pos = {}
    for edge in support:
        for x in edge:
            pos.setdefault(x, len(pos))
    edges = tuple((pos[x], pos[y]) for x, y in support)
    table = flow_table(edges, len(pos), max_total, cap)
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
    support = [(i, j) for i in range(4) for j in range(4) if i != j]
    with pytest.raises(ExplosionGuardError):
        flows_on(support, 40, cap=1000)


def test_flow_table_packs_out_degrees():
    table = flow_table(((0, 1), (1, 0)), 2, 4)
    # flows are (k, k); out-degree of node 0 is k
    for row, deg in zip(table.counts, table.out_degree):
        assert row[0] == row[1]
        assert deg[0] == row[0] and deg[1] == row[1]
    assert np.array_equal(table.out_degree.sum(axis=1), table.counts.sum(axis=1))
