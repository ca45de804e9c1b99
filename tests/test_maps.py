"""Map validation, the pruned search engine, and homotopy."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from digtopo import maps
from digtopo.errors import BudgetExceeded, Disconnected, DomainMismatch
from digtopo.image import (
    INF,
    build_box,
    build_cycle,
    build_explicit,
    build_from_points,
    full_mask,
    mask_from_indices,
    mask_from_points,
    mask_indices,
    metric,
    product,
)
from digtopo.maps import (
    MapTable,
    SearchOutcome,
    classify_cycle_map,
    compose,
    constant,
    continuous_maps_between,
    displacement,
    enumerate_continuous_self_maps,
    fixed_points,
    from_point_function,
    identity,
    is_continuous,
    is_homotopic,
    is_n_map,
    is_n_map_on,
    is_retraction,
    is_rigid,
    iter_counterexamples,
    only_identity_is_1map,
    rotation,
    run_counterexample_search,
    search_counterexample,
)

point_sets = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    min_size=1,
    max_size=5,
    unique=True,
)


# -- basic map table -------------------------------------------------------


def test_table_validation(path3):
    with pytest.raises(ValueError):
        MapTable(path3, path3, (0, 1))
    with pytest.raises(ValueError):
        MapTable(path3, path3, (0, 1, 7))
    f = MapTable(path3, path3, (0, 1, 2))
    assert f.is_identity()


def test_table_range_checked_in_bulk(path3, seg):
    for bad in ((0, 1), (0, 1, 2, 0), (0, -1, 1), (-3, 0, 0), (0, 1, 2)):
        with pytest.raises(ValueError):
            MapTable(path3, seg, bad)
    assert MapTable(path3, seg, (0, 1, 1)).table == (0, 1, 1)
    assert MapTable(seg, path3, (2, 0)).table == (2, 0)


def test_identity_constant_compose(path3):
    ident = identity(path3)
    const = constant(path3, 2)
    assert displacement(ident) == 0
    assert displacement(const) == 2
    assert compose(const, ident).table == const.table
    assert fixed_points(const) == mask_from_indices([2])
    assert fixed_points(ident) == full_mask(path3)


def test_compose_domain_mismatch(path3, seg):
    with pytest.raises(DomainMismatch):
        compose(identity(path3), identity(seg))


# Each refusal takes c, a map from the 8-cycle to a path, and j, a
# discontinuous self-map of the 8-cycle that fixes every vertex of its image.
_REFUSALS = {
    "fixed_points": (lambda c, j: fixed_points(c), DomainMismatch),
    "displacement": (lambda c, j: displacement(c), DomainMismatch),
    "is_n_map_on": (lambda c, j: is_n_map_on(c, 1, 0), DomainMismatch),
    "is_retraction": (lambda c, j: is_retraction(c), DomainMismatch),
    "classify": (lambda c, j: classify_cycle_map(c.domain, c), DomainMismatch),
    "classify_discontinuous": (lambda c, j: classify_cycle_map(j.domain, j), ValueError),
    "homotopy_discontinuous": (lambda c, j: is_homotopic(j, identity(j.domain)), ValueError),
    "retraction_discontinuous": (lambda c, j: is_retraction(j), False),
}


@pytest.mark.parametrize("name", _REFUSALS)
def test_self_map_checks_refuse_other_maps(cycle8, path3, name):
    """Self-map checks refuse a map between two images, and continuity
    checks refuse (or, for a retraction, answer False for) a discontinuous
    one."""
    cross = MapTable(cycle8, path3, (0,) * 8)
    jump = MapTable(cycle8, cycle8, (0, 4, 2, 3, 4, 5, 6, 7))
    call, refusal = _REFUSALS[name]
    if refusal is False:
        assert call(cross, jump) is False
    else:
        with pytest.raises(refusal):
            call(cross, jump)


def test_from_point_function(square_c2):
    f = from_point_function(square_c2, square_c2, lambda p: (p[0], 0))
    assert is_continuous(f)
    assert displacement(f) == 2


def test_image_mask(path3):
    assert constant(path3, 1).image_mask() == 0b010
    assert identity(path3).image_mask() == 0b111


@given(point_sets, st.data())
@settings(max_examples=60, deadline=None)
def test_continuity_matches_oracle(pts, data):
    img = build_from_points(pts, 1)
    table = tuple(
        data.draw(st.integers(0, img.n - 1)) for _ in range(img.n)
    )
    adj = oracle.adjacency_sets(img)
    assert is_continuous(MapTable(img, img, table)) == oracle.is_continuous_table(
        adj, adj, table
    )


#: Domains and codomains of the continuity cross-check: boxes, products and
#: explicit images, including pairs of different images.
CONTINUITY_IMAGES = (
    build_box([(0, 2), (0, 1)], 1),
    build_box([(0, 2), (0, 2)], 2),
    build_box([(0, 1), (0, 1), (0, 1)], 3),
    product([build_cycle(4)[0], build_box([(0, 2)], 1)], 1),
    product([build_cycle(4)[0], build_box([(0, 1)], 1)], 2),
    build_explicit(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    build_explicit(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
)


@given(
    st.sampled_from(CONTINUITY_IMAGES),
    st.sampled_from(CONTINUITY_IMAGES),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_continuity_between_images_matches_oracle(dom, cod, data):
    adj_d, adj_c = oracle.adjacency_sets(dom), oracle.adjacency_sets(cod)
    # Half the tables start from a continuous map and get one entry moved,
    # so both answers are common.
    if data.draw(st.booleans()):
        skip = data.draw(st.integers(0, 50))
        start = next(itertools.islice(continuous_maps_between(dom, cod), skip, None), None)
        table = list(start.table) if start else [0] * dom.n
        table[data.draw(st.integers(0, dom.n - 1))] = data.draw(st.integers(0, cod.n - 1))
    else:
        table = [data.draw(st.integers(0, cod.n - 1)) for _ in range(dom.n)]
    table = tuple(table)
    want = oracle.is_continuous_table(adj_d, adj_c, table)
    assert is_continuous(MapTable(dom, cod, table)) == want


def test_continuity_equals_nonexpansive(cycle8):
    """On a connected image a total map is continuous exactly when it never
    increases the shortest-path distance."""
    d = metric(cycle8)
    rng_tables = itertools.islice(
        itertools.product(range(8), repeat=8), 0, 4000, 7
    )
    for table in rng_tables:
        f = MapTable(cycle8, cycle8, table)
        nonexp = all(
            d[table[x], table[y]] <= d[x, y]
            for x in range(8)
            for y in range(x + 1, 8)
        )
        assert is_continuous(f) == nonexp


def test_displacement_needs_reachability():
    img = build_from_points([(0, 0), (5, 5)], 1)
    f = MapTable(img, img, (1, 0))
    with pytest.raises(Disconnected):
        displacement(f)


def test_n_map_on_restriction(square_c2, corners_c2):
    f = from_point_function(
        square_c2,
        square_c2,
        lambda p: {(0, 0): (0, 1), (2, 0): (2, 1), (1, 0): (1, 2)}.get(p, p),
    )
    assert is_continuous(f)
    assert is_n_map_on(f, corners_c2, 1)
    assert not is_n_map(f, 1)
    assert is_n_map(f, 2)
    assert is_n_map_on(f, 0, 0)  # empty restriction is always bounded


def test_n_map_on_never_moves_across_components():
    """A vertex sent to another component moves farther than any n, the
    INF sentinel's own value included."""
    img = build_explicit(3, [(0, 1)])
    f = MapTable(img, img, (0, 1, 0))
    assert not is_n_map_on(f, 0b100, INF)
    assert not is_n_map_on(f, 0b100, 10**6)
    assert is_n_map_on(f, 0b011, 0)


def test_n_map_on_reads_only_the_masked_rows():
    """One masked vertex of a 1,024-vertex box costs one breadth-first
    row, not the all-pairs table."""
    img = build_box([(0, 31), (0, 31)], 2)
    f = MapTable(img, img, (1,) + tuple(range(1, img.n)))
    assert is_n_map_on(f, 1, 1) and not is_n_map_on(f, 1, 0)
    assert img._dist_lists is None


def test_retraction(square_c2):
    pull = from_point_function(
        square_c2,
        square_c2,
        lambda p: {(0, 0): (0, 1), (2, 0): (2, 1), (1, 0): (1, 2)}.get(p, p),
    )
    assert is_retraction(pull)
    assert not is_retraction(rotation(build_cycle(8)[0], 1))
    assert is_retraction(identity(square_c2))


# -- enumeration against the unpruned oracle -------------------------------


def test_enumerate_path3_census(path3):
    found = {f.table for f in enumerate_continuous_self_maps(path3)}
    assert len(found) == 17
    assert found == oracle.continuous_self_maps(path3)


def test_enumerate_all_small_graphs():
    for n in range(1, 5):
        for edges in oracle.connected_graphs(n):
            img = build_explicit(n, edges)
            found = {f.table for f in enumerate_continuous_self_maps(img)}
            assert found == oracle.continuous_self_maps(img), (n, edges)


def test_maps_between_oracle(seg, path3):
    """Includes distances the codomain cannot match: INF between the
    domain's components allows any pair of values, and a distance past
    the codomain's largest one allows only the first value's component,
    which on a codomain with no edge is the value itself."""
    two_segs = build_explicit(4, [(0, 1), (2, 3)])
    seg_and_point = build_explicit(3, [(0, 1)])
    two_points = build_explicit(2, [])
    path5 = build_box([(0, 4)], 1)
    pairs = (
        (seg, path3),
        (path3, seg),
        (path3, two_points),
        (two_segs, two_points),
        (two_segs, path3),
        (path3, two_segs),
        (two_segs, seg_and_point),
        (path5, path3),
        (path5, seg_and_point),
        (build_cycle(8)[0], build_box([(0, 1), (0, 1)], 2)),
    )
    for dom, cod in pairs:
        got = [f.table for f in continuous_maps_between(dom, cod)]
        assert got == sorted(oracle.continuous_maps_between(dom, cod)), (dom.n, cod.n)


def test_enumeration_is_in_strict_lexicographic_order(seg, path3):
    """Both enumerators yield exactly the oracle's tables, sorted, so a
    kernel that found the right maps in another order fails here."""
    images = [
        build_explicit(n, edges)
        for n in range(1, 5)
        for edges in oracle.connected_graphs(n)
    ]
    images += [build_cycle(v)[0] for v in range(4, 8)] + [build_box([(0, 0)], 1)]
    for img in images:
        want = sorted(oracle.continuous_self_maps(img))
        assert [f.table for f in enumerate_continuous_self_maps(img)] == want
        assert [f.table for f in continuous_maps_between(img, img)] == want
    for dom, cod in ((seg, path3), (path3, seg)):
        got = [f.table for f in continuous_maps_between(dom, cod)]
        assert got == sorted(oracle.continuous_maps_between(dom, cod))


@pytest.mark.parametrize(
    "build, lengths",
    [
        (lambda: build_box([(0, 2), (0, 2)], 1), range(4, 8)),
        (lambda: build_box([(0, 2), (0, 2)], 2), range(4, 7)),
        (lambda: build_box([(0, 1), (0, 2)], 2), range(4, 7)),
        (lambda: product([build_cycle(4)[0], build_box([(0, 1)], 1)], 1), range(4, 8)),
        (lambda: product([build_cycle(4)[0], build_box([(0, 1)], 1)], 2), range(4, 6)),
    ],
    ids=["box3x3c1", "box3x3c2", "box2x3c2", "C4xI-np1", "C4xI-np2"],
)
def test_maps_from_cycles_match_closed_form(build, lengths):
    """Continuous maps C_v -> X are the closed v-walks of A_X + I."""
    target = build()
    for v in lengths:
        cycle, _ = build_cycle(v)
        count = sum(1 for _ in continuous_maps_between(cycle, target))
        assert count == oracle.closed_walk_count(target, v), v


def test_enumerate_vertex_cap():
    img = build_box([(0, 16)], 1)
    with pytest.raises(BudgetExceeded):
        list(enumerate_continuous_self_maps(img))


# -- counterexample search -------------------------------------------------


def test_search_agrees_with_oracle_on_small_graphs():
    for n in range(1, 5):
        for edges in oracle.connected_graphs(n):
            img = build_explicit(n, edges)
            all_ids = list(range(n))
            for size in range(n + 1):
                subset = mask_from_indices(all_ids[:size])
                for m, nn in ((0, 0), (0, 1), (1, 1), (1, 2)):
                    want = oracle.limiting_counterexamples(
                        img, all_ids[:size], m, nn
                    )
                    out = run_counterexample_search(img, subset, m, nn)
                    assert out.status in ("witness", "exhausted")
                    assert (out.status == "witness") == bool(want)
                    if want:
                        assert out.witness.table in set(want)
                    got = sorted(
                        w.table for w in iter_counterexamples(img, subset, m, nn)
                    )
                    assert got == want, (n, edges, size, m, nn)


@pytest.mark.parametrize(
    "img",
    [build_box([(0, 2), (0, 2)], 1), build_box([(0, 2), (0, 2)], 2), build_cycle(8)[0]],
    ids=["box3x3c1", "box3x3c2", "C8"],
)
def test_bfs_order_from_matches_the_least_row_order(img):
    """The search order seeded with a set sorts vertices as the least of
    the set's metric rows does, ties by canonical index, on every subset;
    the empty set keeps canonical order."""
    dist = img.dist_lists()
    for mask in range(1 << img.n):
        rows = [dist[a] for a in mask_indices(mask)]
        expect = list(range(img.n))
        if rows:
            least = [min(col) for col in zip(*rows)]
            expect = sorted(range(img.n), key=least.__getitem__)
        assert maps._bfs_order_from(img, mask) == expect


def test_search_first_witness_deterministic(square_c2, corners_c2):
    runs = [run_counterexample_search(square_c2, corners_c2, 1, 1) for _ in range(3)]
    assert all(r.status == "witness" for r in runs)
    assert len({r.witness.table for r in runs}) == 1
    assert len({r.nodes for r in runs}) == 1


def test_search_node_budget(square_c2, corners_c2):
    out = run_counterexample_search(square_c2, corners_c2, 0, 0, node_budget=1)
    assert out.status == "budget"
    assert out.nodes == 1
    with pytest.raises(BudgetExceeded):
        search_counterexample(square_c2, corners_c2, 0, 0, node_budget=1)


def test_negative_node_budget_is_refused(square_c2, corners_c2):
    for budget in (-1, -3):
        with pytest.raises(ValueError, match="nonnegative"):
            run_counterexample_search(square_c2, corners_c2, 0, 0, node_budget=budget)
        with pytest.raises(ValueError, match="nonnegative"):
            search_counterexample(square_c2, corners_c2, 0, 0, node_budget=budget)
    # a budget of 0 stays a budget outcome after no node
    out = run_counterexample_search(square_c2, corners_c2, 0, 0, node_budget=0)
    assert (out.status, out.witness, out.nodes) == ("budget", None, 0)


def test_node_budget_boundary_is_exact(square_c1, square_c2, cycle8):
    """A budget of exactly the nodes a search needs decides it the same
    way; one node less leaves it undecided."""
    for img in (square_c1, square_c2, cycle8):
        for subset in (0, mask_from_indices([0]), mask_from_indices([0, 3, 5])):
            for m, n in ((0, 0), (0, 1), (1, 1)):
                out = run_counterexample_search(img, subset, m, n)
                if out.nodes == 0:
                    continue
                assert run_counterexample_search(
                    img, subset, m, n, node_budget=out.nodes
                ) == out
                cut = run_counterexample_search(
                    img, subset, m, n, node_budget=out.nodes - 1
                )
                assert (cut.status, cut.nodes) == ("budget", out.nodes - 1)


def test_search_counterexample_api(square_c2, corners_c2):
    w = search_counterexample(square_c2, corners_c2, 1, 1)
    assert w is not None and displacement(w) >= 2
    assert search_counterexample(square_c2, corners_c2, 0, 1) is None


def test_search_rejects_big_images():
    img = build_box([(0, 16)], 1)
    with pytest.raises(BudgetExceeded):
        run_counterexample_search(img, 0b11, 0, 0)


def test_outcome_shape(square_c2, corners_c2):
    out = run_counterexample_search(square_c2, corners_c2, 0, 1)
    assert isinstance(out, SearchOutcome)
    assert out.status == "exhausted"
    assert out.witness is None
    assert out.nodes > 0


def test_negative_bounds_are_refused_by_every_search_entry_point(square_c1):
    corners = mask_from_indices([0, 8])
    for m, n in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            run_counterexample_search(square_c1, corners, m, n)
        with pytest.raises(ValueError):
            iter_counterexamples(square_c1, corners, m, n)


def test_kernel_runs_nothing_before_the_first_table(square_c2):
    """Queries are validated when the kernel is built, but the kernel
    itself is lazy: building it counts no node, so a cap of 0 is hit
    only on the first next()."""
    dist, balls = square_c2.dist_lists(), square_c2.ball_masks()
    nodes = [0]
    tables = maps._assignments(dist, balls, range(9), [0x1FF] * 9, nodes=nodes, cap=0)
    assert nodes == [0]
    with pytest.raises(maps._CapHit):
        next(tables)
    assert nodes == [1]


# -- homotopy --------------------------------------------------------------


def test_homotopy_interval(seg):
    assert is_homotopic(constant(seg, 0), identity(seg))
    assert is_homotopic(constant(seg, 0), constant(seg, 1))


def test_homotopy_cycle(cycle8):
    assert is_homotopic(rotation(cycle8, 1), identity(cycle8))
    assert is_homotopic(rotation(cycle8, 1), rotation(cycle8, 3))
    assert not is_homotopic(identity(cycle8), constant(cycle8, 0))


def test_homotopy_argument_checks(seg, path3, cycle8):
    with pytest.raises(DomainMismatch):
        is_homotopic(identity(seg), identity(path3))
    with pytest.raises(BudgetExceeded):
        is_homotopic(identity(cycle8), constant(cycle8, 0), max_visited=1)


def _one_step_components(dom, cod):
    """Component of every continuous map from dom to cod in the graph
    whose edges join maps differing by at most one step at each vertex,
    found by brute force over the oracle's maps."""
    adj = oracle.adjacency_sets(cod)
    tables = sorted(oracle.continuous_maps_between(dom, cod))
    comp = {}
    for start in tables:
        if start in comp:
            continue
        comp[start] = start
        stack = [start]
        while stack:
            cur = stack.pop()
            for t in tables:
                if t not in comp and all(
                    a == b or b in adj[a] for a, b in zip(cur, t)
                ):
                    comp[t] = start
                    stack.append(t)
    return comp


@pytest.mark.parametrize(
    "dom, cod",
    [
        (build_box([(0, 2)], 1), build_cycle(8)[0]),
        (build_cycle(8)[0], build_box([(0, 2)], 1)),
        (build_box([(0, 1), (0, 1)], 1), build_box([(0, 2), (0, 1)], 2)),
        (build_cycle(6)[0], build_cycle(5)[0]),
    ],
    ids=["path3-C8", "C8-path3", "box2x2c1-box3x2c2", "C6-C5"],
)
def test_homotopy_between_different_images_matches_components(dom, cod):
    """One step moves each value within the codomain, so the balls that
    cut it are the codomain's; a domain and codomain of different sizes
    catch a search that reads the wrong image's."""
    comp = _one_step_components(dom, cod)
    tables = sorted(comp)
    refs = sorted(set(comp.values()))
    for ref in refs:
        f = MapTable(dom, cod, ref)
        for t in tables[:: max(1, len(tables) // 40)] + refs:
            want = comp[t] == ref
            assert is_homotopic(f, MapTable(dom, cod, t)) == want, (ref, t)


def test_rigidity():
    single = build_box([(0, 0)], 1)
    assert is_rigid(single)
    assert not is_rigid(build_box([(0, 1)], 1))
    assert not is_rigid(build_cycle(8)[0])


def test_only_identity_1map(seg, cycle8):
    assert only_identity_is_1map(build_box([(0, 0)], 1))
    assert not only_identity_is_1map(seg)
    assert not only_identity_is_1map(cycle8)


def test_rigidity_matches_one_step_oracle():
    """Rigid exactly when the identity is the only continuous self-map
    moving every vertex at most one step, counted by brute force."""
    for n in range(1, 5):
        for edges in oracle.connected_graphs(n):
            img = build_explicit(n, edges)
            adj = oracle.adjacency_sets(img)
            ident = tuple(range(n))
            one_step = [
                t for t in oracle.continuous_self_maps(img)
                if all(t[x] == x or t[x] in adj[x] for x in range(n))
            ]
            want = one_step == [ident]
            assert is_rigid(img) == want, edges
            assert only_identity_is_1map(img) == want, edges
