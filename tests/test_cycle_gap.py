"""The longest-gap bound: on a v-cycle, a nonempty subset whose longest gap
g between cyclically consecutive positions has 2m + 2g < v is
(m, n)-limiting for every n >= m, and the search decides such a query
with no node.  Checked against a library-free profile of every subset.
"""

from __future__ import annotations

import itertools

import pytest

import oracle
from digtopo.errors import NotACycle
from digtopo.image import build_box, build_cycle, build_explicit, cycle_grid, mask_from_indices
from digtopo.limiting import is_limiting, limiting_profile
from digtopo.maps import cycle_indexing, run_counterexample_search

HOLDS_FREE = ("exhausted", None, 0)


def _longest_gap(v, positions):
    pos = sorted(positions)
    return max((b - a) % v or v for a, b in zip(pos, pos[1:] + pos[:1]))


# abstract cycles, and a grid cycle whose walk is no index order
CYCLES = [(v, build_cycle) for v in range(4, 11)] + [(8, cycle_grid)]


@pytest.mark.parametrize(
    "v, build", CYCLES, ids=[f"{b.__name__}{v}" for v, b in CYCLES]
)
def test_every_query_the_bound_decides_holds_by_the_oracle(v, build):
    """Every subset, every m <= v/2 and every m <= n <= v/2: where the
    bound applies the query is decided with no node, and the oracle's
    largest displacement is <= m; every query decided with no node has
    it <= n."""
    img, walk = build(v)
    profile = oracle.cycle_profiles(v)
    decided = 0
    for size in range(1, v + 1):
        for positions in itertools.combinations(range(v), size):
            want = mask_from_indices(positions)
            subset = mask_from_indices(walk[p] for p in positions)
            g = _longest_gap(v, positions)
            for m in range(v // 2 + 1):
                for n in range(m, v // 2 + 1):
                    out = run_counterexample_search(img, subset, m, n, node_budget=0)
                    if out.status == "exhausted":
                        assert profile[m][want] <= n
                    if 2 * m + 2 * g < v:
                        assert tuple(out) == HOLDS_FREE
                        assert profile[m][want] <= m
                        decided += 1
    assert decided > 0 or v < 6


def test_bound_is_strict_at_2m_plus_2g_equal_v():
    """At 2m + 2g = v the bound does not decide, and a folded map refutes
    the subset: C12 {0, 4, 8} at m = n = 2."""
    c12, _ = build_cycle(12)
    subset = mask_from_indices([0, 4, 8])
    assert run_counterexample_search(c12, subset, 2, 2, node_budget=0).status == "budget"
    v = is_limiting(c12, subset, 2, 2)
    assert v.holds is False and v.nodes > 0
    assert is_limiting(c12, subset, 1, 1).nodes == 0


def test_bound_needs_n_at_least_m(cycle8):
    """n < m is left to the search, which finds a rotation: C8 {0, 2, 4, 6}
    at (1, 0) meets 2m + 2g < v."""
    subset = mask_from_indices([0, 2, 4, 6])
    assert run_counterexample_search(cycle8, subset, 1, 0, node_budget=0).status == "budget"
    v = is_limiting(cycle8, subset, 1, 0)
    assert v.holds is False and v.nodes > 0
    assert tuple(run_counterexample_search(cycle8, subset, 1, 1, node_budget=0)) == HOLDS_FREE


def test_a_decided_query_holds_under_a_zero_budget(cycle8):
    subset = mask_from_indices([0, 3, 5])
    assert tuple(is_limiting(cycle8, subset, 0, 0, node_budget=0)) == (True, None, 0, None)
    assert limiting_profile(cycle8, subset, 0, node_budget=0) == 0


def test_the_empty_subset_and_non_cycles_go_to_the_search():
    c8, _ = build_cycle(8)
    assert run_counterexample_search(c8, 0, 0, 4, node_budget=0).status == "exhausted"
    assert run_counterexample_search(c8, 0, 0, 3, node_budget=0).status == "budget"
    # a triangle is 2-regular but no cycle image; a grid fails the degree test
    triangle = build_explicit(3, [(0, 1), (1, 2), (0, 2)])
    assert is_limiting(triangle, 0b111, 0, 0).holds is True
    box = build_box([(0, 3), (0, 3)], 1)
    assert run_counterexample_search(box, 0b1111, 0, 0, node_budget=0).status == "budget"


def test_cycle_indexing_rejects_two_disjoint_cycles():
    """The walk from vertex 0 closes after four vertices, so two disjoint
    squares are no cycle, on every call, without a connectivity check."""
    squares = build_explicit(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    for _ in range(2):
        with pytest.raises(NotACycle):
            cycle_indexing(squares)
