"""Freezing, cold, and limiting verdicts, bound helpers, product factors."""

from __future__ import annotations

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from digtopo import image as image_module
from digtopo.errors import (
    BadCycleLength,
    BudgetExceeded,
    Disconnected,
    NotAProduct,
    NotAValidTriple,
    NotEmbedded,
)
from digtopo.image import (
    DigitalImage,
    boundary,
    build_box,
    build_cycle,
    build_explicit,
    build_from_points,
    full_mask,
    is_k_cover,
    mask_from_indices,
    mask_from_points,
    mask_indices,
    mask_points,
    metric,
    product,
)
from digtopo.maps import (
    displacement,
    is_continuous,
    is_n_map_on,
    iter_counterexamples,
    run_counterexample_search,
    search_counterexample,
)
from digtopo.limiting import (
    LimitingVerdict,
    _forced_points,
    boundary_cold_condition,
    cover_displacement_bound,
    cycle_triple_bound,
    factor_limitedness,
    find_minimal_limiting_sets,
    is_freezing,
    is_limiting,
    is_minimal_limiting,
    is_s_cold,
    limiting_profile,
    retract_displacement_bound,
    surjectivity_threshold,
)


# -- verdicts against the unpruned oracle ----------------------------------


def test_limiting_matches_oracle_on_small_graphs():
    for n in range(1, 5):
        for edges in oracle.connected_graphs(n):
            img = build_explicit(n, edges)
            ids = list(range(n))
            for size in range(n + 1):
                subset = mask_from_indices(ids[:size])
                for m, nn in ((0, 0), (0, 1), (0, 2), (1, 1)):
                    want = oracle.is_limiting(img, ids[:size], m, nn)
                    got = is_limiting(img, subset, m, nn)
                    assert got.holds == want, (n, edges, size, m, nn)
                want_frz = oracle.is_freezing(img, ids[:size])
                assert is_freezing(img, subset).holds == want_frz


def test_verdict_witness_is_genuine(square_c2, corners_c2):
    v = is_limiting(square_c2, corners_c2, 1, 1)
    assert v.holds is False
    assert is_continuous(v.witness)
    assert is_n_map_on(v.witness, corners_c2, 1)
    assert displacement(v.witness) >= 2
    assert v.nodes == 9


def test_cold_verdicts(square_c2, corners_c2):
    assert is_s_cold(square_c2, corners_c2, 1).holds is True
    assert is_freezing(square_c2, corners_c2).holds is False


def test_not_cold_fixture():
    img = build_box([(0, 3), (0, 3)], 1)
    diag = mask_from_points(img, [(0, 0), (3, 3)])
    v = is_s_cold(img, diag, 1)
    assert v.holds is False
    assert displacement(v.witness) >= 2


def test_empty_subset_is_vacuous(seg, square_c2):
    # on [0,1] every self-map is a 1-map, so the empty set (0,1)-limits
    assert is_limiting(seg, 0, 0, 1).holds is True
    assert is_limiting(seg, 0, 0, 0).holds is False
    # a constant map moves a corner across the whole square
    assert is_limiting(square_c2, 0, 0, 1).holds is False


def test_undecided_is_none(square_c2, corners_c2):
    v = is_limiting(square_c2, corners_c2, 0, 0, node_budget=1)
    assert v.holds is None
    assert v.witness is None


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_monotonicity_in_m_and_n(data):
    """Shrinking m or growing n can only help."""
    n_vertices = data.draw(st.integers(2, 4))
    graphs = list(oracle.connected_graphs(n_vertices))
    img = build_explicit(n_vertices, data.draw(st.sampled_from(graphs)))
    subset = data.draw(st.integers(0, (1 << n_vertices) - 1))
    m = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 2))
    if is_limiting(img, subset, m, n).holds:
        for m1 in range(m + 1):
            for n1 in range(n, 4):
                assert is_limiting(img, subset, m1, n1).holds


# -- minimality ------------------------------------------------------------


def test_interval_endpoints_minimal():
    for b in range(1, 6):
        img = build_box([(0, b)], 1)
        ends = mask_from_points(img, [(0,), (b,)])
        for m in range(b + 1):
            v = is_minimal_limiting(img, ends, m, m)
            if m < b:
                assert v.holds is True, (b, m)
            else:
                # at m = b even singletons and the empty set still limit
                assert v.holds is False, (b, m)
                assert v.subset_witness is not None


def test_minimality_failure_reports_subset(seg):
    v = is_minimal_limiting(seg, full_mask(seg), 0, 1)
    assert v.holds is False
    # the reported single deletion still limits
    assert v.subset_witness == 0b10
    assert is_limiting(seg, v.subset_witness, 0, 1).holds is True


@pytest.mark.parametrize("k", [2, 3])
def test_cube_corners_freeze_but_four_alternating_corners_suffice(k):
    """On the 3x3x3 and 4x4x4 c1 cubes the 8 corners freeze without being
    minimal: the 4 alternating corners already form a minimal freezing
    set.  Criterion 2's minimality of all corners holds only in 2D."""
    img = build_box([(0, k)] * 3, 1)
    cap = dict(max_vertices=img.n)
    corners = mask_from_points(img, list(itertools.product((0, k), repeat=3)))
    assert is_freezing(img, corners, **cap).holds is True
    v = is_minimal_limiting(img, corners, 0, 0, **cap)
    assert v.holds is False
    assert v.subset_witness is not None and v.subset_witness & ~corners == 0
    assert v.subset_witness != corners
    assert is_freezing(img, v.subset_witness, **cap).holds is True

    four = [(0, 0, 0), (0, k, k), (k, 0, k), (k, k, 0)]
    alternating = mask_from_points(img, four)
    assert is_minimal_limiting(img, alternating, 0, 0, **cap).holds is True
    # each single deletion is refuted by a map checked without the search
    adj = oracle.adjacency_sets(img)
    for p in four:
        rest = alternating & ~mask_from_points(img, [p])
        f = search_counterexample(img, rest, 0, 0, **cap)
        assert oracle.is_continuous_table(adj, adj, f.table)
        assert all(f.table[i] == i for i in mask_indices(rest))
        assert any(t != i for i, t in enumerate(f.table))


def test_find_minimal_interval(seg):
    r = find_minimal_limiting_sets(seg, 0, 0, 2)
    assert r.complete
    assert [mask_points(seg, m) for m in r.sets] == [[(0,), (1,)]]
    r = find_minimal_limiting_sets(seg, 0, 1, 2)
    assert r.complete
    assert r.sets == [0]


def test_find_minimal_cycle_triples(cycle8):
    r = find_minimal_limiting_sets(cycle8, 0, 0, 3)
    assert r.complete
    got = [tuple(i for i in range(8) if mask >> i & 1) for mask in r.sets]
    assert got == [
        (0, 2, 5), (0, 3, 5), (0, 3, 6), (1, 3, 6),
        (1, 4, 6), (1, 4, 7), (2, 4, 7), (2, 5, 7),
    ]
    # exactly the triples whose circular gaps stay below half the cycle
    for t in got:
        gaps = (t[1] - t[0], t[2] - t[1], 8 - (t[2] - t[0]))
        assert all(g < 4 for g in gaps)


def test_find_minimal_budget(cycle8):
    r = find_minimal_limiting_sets(cycle8, 0, 0, 3, node_budget=10)
    assert not r.complete


def test_find_minimal_budget_caps_searches_that_run(cycle8):
    full = find_minimal_limiting_sets(cycle8, 0, 0, 3)
    assert full.complete
    assert find_minimal_limiting_sets(cycle8, 0, 0, 3, node_budget=full.nodes) == full
    cut = find_minimal_limiting_sets(cycle8, 0, 0, 3, node_budget=full.nodes - 1)
    assert not cut.complete
    assert cut.nodes == full.nodes - 1


@pytest.mark.parametrize(
    "build, m, n",
    [(lambda: build_box([(0, 7), (0, 1)], 2), 1, 2), (lambda: build_cycle(16)[0], 2, 2)],
    ids=["box8x2c2_12", "cycle16_22"],
)
def test_find_minimal_budget_caps_searches_on_families_that_still_search(build, m, n):
    """The two benchmark find-minimal families whose forced points leave
    searches to run, at size cap 4: one budget caps them all, as on C8."""
    img = build()
    full = find_minimal_limiting_sets(img, m, n, 4)
    assert full.complete and full.searched
    assert find_minimal_limiting_sets(img, m, n, 4, node_budget=full.nodes) == full
    cut = find_minimal_limiting_sets(img, m, n, 4, node_budget=full.nodes - 1)
    assert not cut.complete
    assert cut.nodes == full.nodes - 1


def test_find_minimal_budget_equal_to_a_zero_total_decides(cycle8):
    """n = 4 is the diameter of C8, so every search decides without a node;
    a budget of 0 still leaves each its 0 nodes."""
    full = find_minimal_limiting_sets(cycle8, 0, 4, 2)
    assert (full.sets, full.complete, full.nodes) == ([0], True, 0)
    assert find_minimal_limiting_sets(cycle8, 0, 4, 2, node_budget=0) == full


@pytest.mark.parametrize(
    "img, m, n, sets",
    [
        (build_box([(0, 2), (0, 2)], 2), 0, 0, []),
        (build_box([(0, 2), (0, 2)], 2), 0, 1, []),
        (build_box([(0, 2), (0, 2)], 2), 0, 2, [0]),
        (build_cycle(8)[0], 0, 4, [0]),
        (build_cycle(8)[0], 0, 3, []),
    ],
)
def test_find_minimal_size_cap_zero_decides_the_empty_set(img, m, n, sets):
    """A cap of 0 is allowed: only the empty set is decided, and it is
    minimal exactly when it limits."""
    r = find_minimal_limiting_sets(img, m, n, 0)
    assert (r.sets, r.complete, r.searched + r.skipped) == (sets, True, 1)


def test_negative_budget_is_refused_by_every_search_entry(cycle8):
    subset = mask_from_indices([0, 3, 5])
    with pytest.raises(ValueError, match="nonnegative"):
        find_minimal_limiting_sets(cycle8, 0, 0, 3, node_budget=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        is_limiting(cycle8, subset, 0, 0, node_budget=-1)
    zero = find_minimal_limiting_sets(cycle8, 0, 0, 3, node_budget=0)
    assert (zero.complete, zero.nodes, zero.sets) == (False, 0, [])


#: Every search-backed entry point as f(img, subset, m, n, **kw).  The
#: profile takes no n, find-minimal no subset, and iter_counterexamples
#: no budget; the rows below give each only the bad inputs it can take.
_SEARCH_ENTRIES = {
    "run_counterexample_search": run_counterexample_search,
    "search_counterexample": search_counterexample,
    "iter_counterexamples": iter_counterexamples,
    "is_limiting": is_limiting,
    "is_minimal_limiting": is_minimal_limiting,
    "limiting_profile": lambda img, s, m, n, **kw: limiting_profile(img, s, m, **kw),
    "find_minimal_limiting_sets": lambda img, s, m, n, **kw: find_minimal_limiting_sets(
        img, m, n, 3, **kw
    ),
}
_BAD_INPUTS = {
    "budget": ValueError,
    "m": ValueError,
    "n": ValueError,
    "mask": ValueError,
    "disconnected": Disconnected,
    "vertex_cap": BudgetExceeded,
}
_NOT_TAKEN = {
    "iter_counterexamples": {"budget"},
    "limiting_profile": {"n"},
    "find_minimal_limiting_sets": {"mask"},
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in _SEARCH_ENTRIES
        for bad in _BAD_INPUTS
        if bad not in _NOT_TAKEN.get(entry, ())
    ],
)
def test_every_search_entry_refuses_each_bad_input(cycle8, entry, bad):
    """Each bad input on its own, on an otherwise valid query, raises the
    same exception from every entry point; the vertex cap is checked
    before the metric is built."""
    img, subset, m, n, kw = cycle8, mask_from_indices([0, 3, 5]), 0, 0, {}
    if bad == "budget":
        kw = {"node_budget": -1}
    elif bad == "m":
        m = -1
    elif bad == "n":
        n = -1
    elif bad == "mask":
        subset = 1 << img.n
    elif bad == "disconnected":
        img, subset = build_explicit(2, []), 1
    else:
        img = build_box([(0, 63), (0, 63)], 2)
        subset = mask_from_points(img, [(0, 0)])
    with pytest.raises(_BAD_INPUTS[bad]):
        _SEARCH_ENTRIES[entry](img, subset, m, n, **kw)
    if bad == "vertex_cap":
        assert img._dist_lists is None


def test_each_query_checks_connectivity_once(monkeypatch, square_c1, cycle8):
    """A minimality check, a profile and a find-minimal scan each check
    their query once, however many searches they run."""
    calls = []
    is_connected = DigitalImage.is_connected
    monkeypatch.setattr(
        DigitalImage, "is_connected", lambda img: calls.append(img) or is_connected(img)
    )
    corners = mask_from_points(square_c1, [(0, 0), (0, 2), (2, 0), (2, 2)])
    assert is_minimal_limiting(square_c1, corners, 0, 0).holds
    assert len(calls) == 1
    calls.clear()
    c12, _ = build_cycle(12)
    assert limiting_profile(c12, mask_from_indices([0, 4]), 0) == 6
    assert len(calls) == 1
    calls.clear()
    assert find_minimal_limiting_sets(cycle8, 0, 0, 3).searched > 1
    assert len(calls) == 1


def test_query_builds_each_metric_row_once(monkeypatch):
    """A query on a fresh image builds the metric before its connectivity
    test, which then reads row 0 from it: 9 breadth-first rows on a 3x3
    box, each seeded with one vertex, not a tenth for the test."""
    calls = []
    bfs_row = image_module._bfs_row
    monkeypatch.setattr(
        image_module,
        "_bfs_row",
        lambda masks, seed: calls.append(seed) or bfs_row(masks, seed),
    )
    img = build_box([(0, 2), (0, 2)], 1)
    corners = mask_from_points(img, [(0, 0), (0, 2), (2, 0), (2, 2)])
    assert is_limiting(img, corners, 0, 0).holds
    assert sorted(calls) == [1 << x for x in range(9)]


def _minimal_sets_by_plain_scan(img, m, n, cap):
    """Every subset up to the cap decided by its own search; a limiting
    subset is minimal when no single deletion limits."""
    limits = {}
    out = []
    for size in range(min(cap, img.n) + 1):
        for combo in itertools.combinations(range(img.n), size):
            mask = mask_from_indices(combo)
            limits[mask] = is_limiting(img, mask, m, n).holds
            if limits[mask] and not any(limits[mask & ~(1 << a)] for a in combo):
                out.append(mask)
    return out


@pytest.mark.parametrize(
    "build, m, n, cap",
    [
        (lambda: build_box([(0, 1)], 1), 0, 0, 2),
        (lambda: build_box([(0, 1)], 1), 0, 1, 2),
        (lambda: build_cycle(8)[0], 0, 0, 3),
        (lambda: build_box([(0, 2), (0, 2)], 1), 0, 0, 3),
        (lambda: build_box([(0, 2), (0, 2)], 1), 0, 1, 3),
        (lambda: build_box([(0, 2), (0, 2)], 2), 0, 0, 3),
        (lambda: build_box([(0, 2), (0, 2)], 2), 0, 1, 3),
        (lambda: build_cycle(10)[0], 1, 1, 4),
    ],
    ids=["seg-00", "seg-01", "cycle8-00", "box3c1-00", "box3c1-01",
         "box3c2-00", "box3c2-01", "cycle10-11"],
)
def test_find_minimal_matches_plain_scan(build, m, n, cap):
    img = build()
    r = find_minimal_limiting_sets(img, m, n, cap)
    assert r.complete
    assert r.sets == _minimal_sets_by_plain_scan(img, m, n, cap)
    assert r.searched + r.skipped == sum(
        math.comb(img.n, k) for k in range(min(cap, img.n) + 1)
    )


@pytest.mark.parametrize(
    "build, m, error",
    [
        (lambda: build_explicit(2, []), 0, Disconnected),
        (lambda: build_box([(0, 16)], 1), 0, BudgetExceeded),
        (lambda: build_box([(0, 2), (0, 2)], 1), -1, ValueError),
    ],
    ids=["two-components", "17-vertices", "negative-m"],
)
def test_find_minimal_validates_queries_that_forced_points_decide(build, m, error):
    """Each image's forced points alone would decide every subset up to
    the cap of 1 (both isolated vertices, both path ends, four corners),
    so these queries raise only because they are checked first."""
    with pytest.raises(error):
        find_minimal_limiting_sets(build(), m, 0, 1)


def _atlas_images():
    """Every connected graph of the networkx atlas on 2 to 6 vertices."""
    return [
        build_explicit(g.number_of_nodes(), list(g.edges()))
        for g in nx.graph_atlas_g()
        if 2 <= g.number_of_nodes() <= 6 and nx.is_connected(g)
    ]


def _forced_points_by_brute_force(img, m, n):
    """Forced points and whether some move refutes every subset, from
    each single-vertex move's table checked by the oracle."""
    adj = oracle.adjacency_sets(img)
    dist = oracle.all_distances(img)
    forced, refutes_all = 0, False
    for x in range(img.n):
        for y in range(img.n):
            table = [y if z == x else z for z in range(img.n)]
            if x == y or not oracle.is_continuous_table(adj, adj, table):
                continue
            if dist[x][y] > max(m, n):
                forced |= 1 << x
            elif dist[x][y] > n:
                refutes_all = True
    return forced, refutes_all


@pytest.mark.parametrize("m, n", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
def test_forced_points_on_the_atlas(m, n):
    """On every connected atlas graph up to 6 vertices: F equals the
    brute force, every minimal set holds it, and find-minimal lists the
    sets of the plain scan, in its order, with every subset counted."""
    images = _atlas_images()
    assert len(images) == 142
    for img in images:
        forced, refutes_all = _forced_points(img, m, n)
        assert (forced, refutes_all) == _forced_points_by_brute_force(img, m, n)
        r = find_minimal_limiting_sets(img, m, n, img.n)
        assert r.complete
        assert all(s & forced == forced for s in r.sets)
        assert r.sets == _minimal_sets_by_plain_scan(img, m, n, img.n)
        assert r.searched + r.skipped == 2 ** img.n
        if refutes_all:
            assert (r.sets, r.nodes, r.searched) == ([], 0, 0)


# -- profiles --------------------------------------------------------------


def test_profile_square_corners(square_c2, corners_c2):
    assert limiting_profile(square_c2, corners_c2, 0) == 1
    assert limiting_profile(square_c2, corners_c2, 1) == 2


def test_profile_interval_endpoints():
    img = build_box([(0, 3)], 1)
    ends = mask_from_points(img, [(0,), (3,)])
    for m in range(4):
        assert limiting_profile(img, ends, m) == m


def test_profile_budget(square_c2, corners_c2):
    with pytest.raises(BudgetExceeded):
        limiting_profile(square_c2, corners_c2, 0, node_budget=1)


PROFILE_IMAGES = [
    lambda: build_box([(0, 2), (0, 2)], 1),
    lambda: build_box([(0, 2), (0, 2)], 2),
    lambda: build_box([(0, 3), (0, 1)], 1),
    lambda: build_box([(0, 4)], 1),
    lambda: build_cycle(6)[0],
    lambda: build_cycle(9)[0],
    lambda: build_from_points([(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)], 1),
]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_profile_matches_per_n_scan(data):
    """The profile, which jumps to each witness's displacement, gives the
    least n that a plain scan of n = 0, 1, 2, ... finds."""
    if data.draw(st.booleans()):
        img = data.draw(st.sampled_from(PROFILE_IMAGES))()
    else:
        k = data.draw(st.integers(1, 4))
        img = build_explicit(k, data.draw(st.sampled_from(list(oracle.connected_graphs(k)))))
    subset = data.draw(st.integers(0, (1 << img.n) - 1))
    m = data.draw(st.integers(0, 3))
    least = next(n for n in itertools.count() if is_limiting(img, subset, m, n).holds)
    assert limiting_profile(img, subset, m) == least


def _profile_nodes(img, subset, m):
    """Nodes of the searches a profile makes: at n = 0, then at the
    displacement of each witness, until a search holds."""
    n = nodes = 0
    while True:
        v = is_limiting(img, subset, m, n)
        nodes += v.nodes
        if v.holds:
            return nodes
        n = displacement(v.witness)


def test_one_budget_caps_every_search_of_a_query(square_c1, square_c2, cycle8):
    """A budget equal to the nodes all searches of a minimality check or a
    profile need decides it the same way; one node less leaves it
    undecided, having spent exactly that budget.  A query the cycle bound
    decides with no node (C8 {0, 3, 5} profiled at m = 0) is decided the
    same way under a budget of 0."""
    for img in (square_c1, square_c2, cycle8):
        for subset in (mask_from_indices([0, 4]), mask_from_indices([0, 3, 5])):
            for m, n in ((0, 0), (0, 1), (1, 1)):
                v = is_minimal_limiting(img, subset, m, n)
                assert is_minimal_limiting(img, subset, m, n, node_budget=v.nodes) == v
                cut = is_minimal_limiting(img, subset, m, n, node_budget=v.nodes - 1)
                assert (cut.holds, cut.nodes) == (None, v.nodes - 1)
            for m in (0, 1):
                total = _profile_nodes(img, subset, m)
                least = limiting_profile(img, subset, m)
                assert limiting_profile(img, subset, m, node_budget=total) == least
                if total > 0:
                    with pytest.raises(BudgetExceeded, match=f"after {total - 1} nodes"):
                        limiting_profile(img, subset, m, node_budget=total - 1)


def test_profile_refuses_past_the_vertex_cap_before_building_the_metric():
    img = build_box([(0, 63), (0, 63)], 2)
    corner = mask_from_points(img, [(0, 0)])
    with pytest.raises(BudgetExceeded, match="4096 vertices"):
        limiting_profile(img, corner, 0)
    assert img._dist_lists is None


# -- cycle bounds ----------------------------------------------------------


def test_surjectivity_threshold():
    assert {v: surjectivity_threshold(v) for v in (4, 5, 6, 7, 8, 9, 10, 12)} == {
        4: 0, 5: 0, 6: 0, 7: 1, 8: 1, 9: 1, 10: 1, 12: 2,
    }


def test_cycle_triple_bound_values():
    c8, _ = build_cycle(8)
    assert cycle_triple_bound(c8, 0, 3, 6) == 0
    c12, _ = build_cycle(12)
    assert cycle_triple_bound(c12, 0, 4, 8) == 1
    assert cycle_triple_bound(c12, 0, 3, 7) == 0


def test_cycle_closed_walk_oracle_counts():
    """The closed-walk listing of cycle self-maps is complete and has no
    repeats: its size matches trace((A + I)^v)."""
    for v, count in ((6, 858), (11, 282205)):
        maps = set(oracle.cycle_self_maps(v))
        assert len(maps) == count == oracle.cycle_closed_walk_count(v)


def test_cycle_triple_bound_matches_exhaustive_thresholds():
    """On C6..C12 the bound equals the exact (m, m) threshold computed
    from every continuous self-map, for every valid triple; the search
    agrees that the triple holds at the bound and fails just above it."""
    for v in range(6, 13):
        img, _ = build_cycle(v)
        thresholds = oracle.cycle_triple_thresholds(v)
        assert thresholds
        for triple, exact in thresholds.items():
            bound = cycle_triple_bound(img, *triple)
            assert bound == exact, (v, triple)
            subset = mask_from_indices(triple)
            assert is_limiting(img, subset, bound, bound).holds is True
            assert is_limiting(img, subset, bound + 1, bound + 1).holds is False


def test_cycle_triple_bound_rejects_degenerate():
    c8, _ = build_cycle(8)
    with pytest.raises(NotAValidTriple):
        cycle_triple_bound(c8, 0, 2, 4)  # one arc is half the cycle
    with pytest.raises(NotAValidTriple):
        cycle_triple_bound(c8, 0, 0, 4)
    c12, _ = build_cycle(12)
    with pytest.raises(NotAValidTriple):
        cycle_triple_bound(c12, 0, 3, 6)


def test_valid_triples_freeze():
    """The zero-displacement case of the triple bound is solid: every
    valid triple is a freezing set."""
    triples = {
        8: [(0, 3, 6), (0, 2, 5)],
        10: [(0, 3, 6), (0, 4, 7)],
        12: [(0, 4, 8), (0, 4, 7)],
    }
    for v, cases in triples.items():
        img, _ = build_cycle(v)
        for t in cases:
            cycle_triple_bound(img, *t)  # raises if not valid
            assert is_freezing(img, mask_from_indices(t)).holds is True


def test_triple_bound_positive_m_fails_with_real_witnesses():
    """At the values the refuted half-arc formula gave (1, 1 and 2), the
    search finds continuous maps whose restriction to the triple stays
    within m but which move other points much farther, so the bound lies
    below m.  The witnesses are verified from first principles here."""
    cases = [(8, (0, 3, 6), 1), (10, (0, 3, 6), 1), (12, (0, 4, 8), 2)]
    for v, triple, m in cases:
        img, _ = build_cycle(v)
        assert cycle_triple_bound(img, *triple) < m
        subset = mask_from_indices(triple)
        verdict = is_limiting(img, subset, m, m)
        assert verdict.holds is False, (v, triple, m)
        w = verdict.witness
        d = metric(img)
        assert is_continuous(w)
        assert all(d[a, w.table[a]] <= m for a in triple)
        assert displacement(w) > m
        # below m only m = 0 is safe on C8/C10; C12 adds m = 1
        if v == 12:
            assert is_limiting(img, subset, 1, 1).holds is True


# -- displacement bound helpers --------------------------------------------


def test_bound_arithmetic():
    assert cover_displacement_bound(0, 1) == 2
    assert cover_displacement_bound(3, 2) == 7
    assert retract_displacement_bound(0, 1, 1) == 3
    assert retract_displacement_bound(2, 3, 1) == 9
    with pytest.raises(ValueError):
        cover_displacement_bound(-1, 0)
    with pytest.raises(ValueError):
        retract_displacement_bound(0, -1, 0)


def test_cover_bound_holds_on_interval():
    """A dominating singleton gives (m, m+2); m+1 is defeated by the
    fold-to-positive map."""
    img = build_from_points([(-1,), (0,), (1,)], 1)
    center = mask_from_points(img, [(0,)])
    assert is_limiting(img, center, 0, cover_displacement_bound(0, 1)).holds is True
    v = is_limiting(img, center, 0, 1)
    assert v.holds is False
    assert displacement(v.witness) == 2


@pytest.mark.parametrize(
    "img",
    [build_box([(0, 3), (0, 3)], 1), build_box([(0, 3), (0, 3)], 2),
     build_cycle(12)[0], build_box([(0, 5), (0, 1)], 1)],
    ids=["4x4c1", "4x4c2", "C12", "6x2c1"],
)
def test_cover_bound_sweep(img):
    """Every 1-3-point subset A that is a k-cover for the least such k, and
    every m up to 2: (m, m + 2k) limits, so the profile never exceeds it."""
    for size in (1, 2, 3):
        for ids in itertools.combinations(range(img.n), size):
            a = mask_from_indices(ids)
            k = next(k for k in itertools.count() if is_k_cover(img, a, k))
            for m in range(3):
                assert limiting_profile(img, a, m) <= cover_displacement_bound(m, k), (
                    ids, m, k)


# -- boundary condition ----------------------------------------------------


def test_boundary_cold_condition_cases():
    img = build_box([(0, 3), (0, 3)], 2)
    bd = boundary(img)
    pts = mask_points(img, bd)
    keep_all = bd
    drop_corner = mask_from_points(img, [p for p in pts if p != (0, 0)])
    drop_adjacent = mask_from_points(
        img, [p for p in pts if p not in ((0, 0), (0, 1))]
    )
    drop_far = mask_from_points(img, [p for p in pts if p not in ((0, 0), (3, 3))])
    assert boundary_cold_condition(img, keep_all)
    assert boundary_cold_condition(img, drop_corner)
    assert not boundary_cold_condition(img, drop_adjacent)
    assert boundary_cold_condition(img, drop_far)
    # the qualifying sets really are 1-cold; the failing one is not
    assert is_s_cold(img, keep_all, 1).holds is True
    assert is_s_cold(img, drop_corner, 1).holds is True
    assert is_s_cold(img, drop_far, 1).holds is True
    assert is_s_cold(img, drop_adjacent, 1).holds is False


@pytest.mark.parametrize(
    "hi, meeting", [((2, 2), 47), ((2, 3), 123), ((3, 3), 322)], ids=["3x3", "3x4", "4x4"]
)
def test_boundary_cold_condition_sweep(hi, meeting):
    """Every boundary subset of a c2 rectangle that meets the condition is
    1-cold; meeting counts those subsets."""
    img = build_box([(0, hi[0]), (0, hi[1])], 2)
    bd = mask_indices(boundary(img))
    met = 0
    for keep in itertools.product((0, 1), repeat=len(bd)):
        a = mask_from_indices([i for i, on in zip(bd, keep) if on])
        if boundary_cold_condition(img, a):
            met += 1
            assert is_s_cold(img, a, 1).holds is True, mask_points(img, a)
    assert met == meeting


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_boundary_cold_condition_matches_its_definition(data):
    """On every c2 rectangle up to 5x5, with a few boundary points dropped
    and at times an inner point added, the condition is its literal
    definition over the lattice-walk boundary and the c1 rule."""
    for w, h in itertools.product(range(1, 6), repeat=2):
        img = build_box([(0, w - 1), (0, h - 1)], 2)
        bd = oracle.lattice_boundary(img.points)
        assert set(mask_points(img, boundary(img))) == bd
        drop = data.draw(st.sets(st.sampled_from(sorted(bd)), max_size=4))
        extra = data.draw(st.sets(st.sampled_from(img.points), max_size=1))
        kept = (bd - drop) | extra
        missing = bd - kept
        want = kept <= bd and not any(
            oracle.cu_adjacent(p, q, 1) for p in missing for q in missing
        )
        assert boundary_cold_condition(img, mask_from_points(img, kept)) == want


def test_boundary_cold_condition_requires_c2_rectangle(square_c1, cycle8):
    with pytest.raises(NotEmbedded):
        boundary_cold_condition(square_c1, 1)
    with pytest.raises(NotEmbedded):
        boundary_cold_condition(cycle8, 1)


# -- products --------------------------------------------------------------


def test_factor_limitedness_forward():
    """Whenever the product verdict holds, both factor verdicts hold."""
    a = build_box([(0, 1)], 1)
    b = build_box([(0, 2)], 1)
    prod = product([a, b], 2)
    sub = mask_from_points(prod, [(x, y) for x in (0, 1) for y in (0, 2)])
    for m, n in ((0, 0), (0, 1), (1, 1), (0, 2)):
        rep = factor_limitedness(prod, sub, m, n)
        if rep.product.holds:
            assert all(f.holds for f in rep.factors), (m, n)


def test_factor_limitedness_converse_fails():
    """Both factors frozen by endpoint sets, yet the product corner set
    is not freezing: the converse direction does not hold in general."""
    a = build_box([(0, 1)], 1)
    b = build_box([(0, 2)], 1)
    prod = product([a, b], 2)
    sub = mask_from_points(prod, [(x, y) for x in (0, 1) for y in (0, 2)])
    rep = factor_limitedness(prod, sub, 0, 0)
    assert all(f.holds for f in rep.factors)
    assert rep.product.holds is False
    assert is_continuous(rep.product.witness)


def test_factor_limitedness_requires_product(square_c1):
    with pytest.raises(NotAProduct):
        factor_limitedness(square_c1, 1, 0, 0)


# -- isometry invariance ---------------------------------------------------


def test_verdicts_are_isometry_invariant(square_c2, corners_c2):
    from digtopo.image import apply_grid_isometry, map_mask

    base = (
        is_limiting(square_c2, corners_c2, 1, 1).holds,
        is_limiting(square_c2, corners_c2, 0, 1).holds,
        is_minimal_limiting(square_c2, corners_c2, 0, 1).holds,
    )
    out, vmap = apply_grid_isometry(
        square_c2, axis_perm=[1, 0], signs=[1, -1], shift=[-3, 9]
    )
    moved = map_mask(corners_c2, vmap)
    assert (
        is_limiting(out, moved, 1, 1).holds,
        is_limiting(out, moved, 0, 1).holds,
        is_minimal_limiting(out, moved, 0, 1).holds,
    ) == base
