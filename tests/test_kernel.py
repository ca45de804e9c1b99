"""The forward-checking kernel against a plain reference search, and the
searches of one shared query against fresh ones."""

from __future__ import annotations

import itertools
import math

from hypothesis import given, settings, strategies as st

import oracle
from digtopo import maps
from digtopo.image import INF, build_box, build_cycle, build_explicit, mask_from_indices
from digtopo.limiting import find_minimal_limiting_sets


@st.composite
def graphs(draw):
    """A random graph on at most 5 vertices, often disconnected."""
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build_explicit(n, edges)


@st.composite
def kernel_inputs(draw):
    dom = draw(graphs())
    cod = dom if draw(st.booleans()) else draw(graphs())
    full = (1 << cod.n) - 1
    masks = st.lists(st.integers(0, full), min_size=dom.n, max_size=dom.n)
    order = draw(st.permutations(range(dom.n)))
    cand = draw(masks)
    viol = draw(st.none() | masks)
    cap = draw(st.just(math.inf) | st.integers(0, 300))
    return dom, cod, order, cand, viol, cap


def _kernel_run(dist, balls, order, cand, viol, cap):
    nodes, tables = [0], []
    try:
        for t in maps._assignments(dist, balls, order, cand, viol, nodes, cap):
            tables.append(t)
    except maps._CapHit:
        return tables, nodes[0], True
    return tables, nodes[0], False


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_plain_forward_checking(inputs):
    """Same tables in the same order, the same node count, and the cap hit
    at the same node."""
    dom, cod, order, cand, viol, cap = inputs
    dist, balls = dom.dist_lists(), cod.ball_masks()
    plain_dist = [[oracle.INF if d == INF else d for d in row] for row in dist]
    plain_balls = [list(row) for row in balls]
    want = oracle.forward_checking_tables(plain_dist, plain_balls, order, cand, viol, cap)
    assert _kernel_run(dist, balls, order, cand, viol, cap) == want


def _fresh(img, m, n, subset):
    return maps._Query(img, m, n, math.inf, maps.DEFAULT_MAX_VERTICES).search(subset)


def test_shared_query_searches_equal_fresh_ones(monkeypatch):
    """Every search of one query, across subsets and across set_n, equals
    the same search on a query of its own: status, witness and nodes."""
    img, _ = build_cycle(16)
    shared = []
    search = maps._Query.search

    def recording(q, subset):
        out = search(q, subset)
        shared.append((subset, out))
        return out

    monkeypatch.setattr(maps._Query, "search", recording)
    result = find_minimal_limiting_sets(img, 2, 2, 4)
    monkeypatch.undo()
    assert len(result.sets) == 140 and len(shared) == result.searched == 162
    for subset, out in shared:
        assert _fresh(img, 2, 2, subset) == out

    # the set_n steps of limiting_profile, on a subset of a square
    img = build_box([(0, 3), (0, 3)], 1)
    subset, m, n, steps = mask_from_indices([6, 7, 9, 10, 12, 15]), 1, 0, 0
    q = maps._Query(img, m, n, math.inf, maps.DEFAULT_MAX_VERTICES)
    while True:
        out = q.search(subset)
        assert _fresh(img, m, n, subset) == out
        if out.status == "exhausted":
            break
        steps += 1
        n = max(row[y] for row, y in zip(img.dist_lists(), out.witness.table))
        q.set_n(n)
    assert steps == 6


def test_budget_outcome_counts_only_what_its_own_search_spent():
    """A query's searches share one budget: after a first search spent 9 of
    11 nodes, a search that hits the budget reports the 2 it spent."""
    img = build_box([(0, 2), (0, 2)], 1)
    q = maps._Query(img, 0, 0, 11, maps.DEFAULT_MAX_VERTICES)
    first = q.search(0)
    assert (first.status, first.nodes) == ("witness", 9)
    assert q.search(mask_from_indices([0, 2, 6, 8])) == ("budget", None, 2)
    assert q.nodes == [11]
