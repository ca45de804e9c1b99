"""Image construction, adjacency, metric, and subset helpers."""

from __future__ import annotations

import itertools
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from digtopo.errors import (
    BadAdjacency,
    BadCycleLength,
    BadEdge,
    BudgetExceeded,
    Disconnected,
    NotEmbedded,
)
from digtopo.image import (
    DEFAULT_POINT_BUDGET,
    INF,
    AdjacencyKind,
    DigitalImage,
    _bfs_row,
    apply_grid_isometry,
    boundary,
    build_box,
    build_cycle,
    build_explicit,
    build_from_points,
    check_mask,
    cycle_grid,
    diameter,
    full_mask,
    induced,
    is_dominating,
    is_k_cover,
    is_tree,
    leaves,
    map_mask,
    mask_from_indices,
    mask_from_points,
    mask_indices,
    mask_points,
    mask_size,
    metric,
    metric_ball,
    product,
    unique_shortest_path,
)
from digtopo.maps import (
    MapTable,
    continuous_maps_between,
    is_continuous,
    is_n_map_on,
    iter_counterexamples,
    run_counterexample_search,
)

# small random grid point sets for property tests
point_sets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    min_size=1,
    max_size=8,
    unique=True,
)


def test_box_path():
    img = build_box([(0, 2)], 1)
    assert img.n == 3
    assert img.points == ((0,), (1,), (2,))
    assert img.edge_list() == [(0, 1), (1, 2)]
    assert img.adjacency.label() == "c1"


def test_box_edge_counts():
    assert build_box([(0, 2), (0, 2)], 1).edge_count == 12
    assert build_box([(0, 2), (0, 2)], 2).edge_count == 20


def test_box_points_sorted_and_indexed(square_c1):
    assert list(square_c1.points) == sorted(square_c1.points)
    for i, p in enumerate(square_c1.points):
        assert square_c1.point_index[p] == i


def test_box_rejects_bad_u():
    with pytest.raises(BadAdjacency):
        build_box([(0, 2)], 2)
    with pytest.raises(BadAdjacency):
        build_box([(0, 1), (0, 1)], 0)


def test_box_rejects_empty_interval():
    with pytest.raises(ValueError):
        build_box([(2, 0)], 1)


def test_box_point_budget():
    with pytest.raises(BudgetExceeded):
        build_box([(0, 99), (0, 99)], 1)


def test_explicit_and_cycle_vertex_budget():
    # the budget is the default one boxes and point sets use
    with pytest.raises(BudgetExceeded):
        build_explicit(DEFAULT_POINT_BUDGET + 1, [])
    with pytest.raises(BudgetExceeded):
        build_cycle(DEFAULT_POINT_BUDGET + 1)


@given(point_sets, st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_grid_adjacency_matches_literal_rule(pts, u):
    img = build_from_points(pts, u)
    index = {p: i for i, p in enumerate(img.points)}
    for p, q in itertools.combinations(img.points, 2):
        expect = oracle.cu_adjacent(p, q, u)
        assert img.adjacent(index[p], index[q]) == expect
        assert img.adjacent(index[q], index[p]) == expect
    for i in range(img.n):
        assert not img.adjacent(i, i)


def test_explicit_build():
    img = build_explicit(4, [(0, 1), (1, 2), (2, 3)])
    assert img.points is None
    assert img.edge_list() == [(0, 1), (1, 2), (2, 3)]
    assert img.degree(1) == 2


def test_explicit_rejects_bad_edges():
    with pytest.raises(BadEdge):
        build_explicit(3, [(0, 3)])
    with pytest.raises(BadEdge):
        build_explicit(3, [(1, 1)])


def test_cycle_structure():
    img, idx = build_cycle(8)
    assert img.n == 8
    assert idx == tuple(range(8))
    d = metric(img)
    for i in range(8):
        assert img.degree(i) == 2
        for j in range(8):
            assert d[i, j] == min(abs(i - j), 8 - abs(i - j))


def test_cycle_rejects_short():
    for v in (0, 1, 2, 3):
        with pytest.raises(BadCycleLength):
            build_cycle(v)


def test_cycle_grid_embeds():
    for v in (4, 8, 10, 12):
        img, idx = cycle_grid(v)
        assert img.n == v
        assert all(img.degree(i) == 2 for i in range(v))
        assert img.adjacency.label() == "c1"
        d = metric(img)
        for a in range(v):
            i, j = idx[a], idx[(a + 1) % v]
            assert img.adjacent(i, j)
        # the embedding realizes the abstract cycle metric
        for a in range(v):
            for b in range(v):
                assert d[idx[a], idx[b]] == min(abs(a - b), v - abs(a - b))


def test_cycle_grid_rejects_impossible():
    for v in (6, 7, 9):
        with pytest.raises(BadCycleLength):
            cycle_grid(v)


def test_product_np_rule():
    a = build_box([(0, 1)], 1)
    b = build_box([(0, 2)], 1)
    for u in (1, 2):
        prod = product([a, b], u)
        assert prod.n == 6
        for (i, p), (j, q) in itertools.combinations(enumerate(prod.points), 2):
            moving = sum(1 for s, t in zip(p, q) if s != t)
            within = all(abs(s - t) <= 1 for s, t in zip(p, q))
            expect = within and 1 <= moving <= u
            assert prod.adjacent(i, j) == expect


def test_product_concatenates_grid_coords():
    a = build_box([(0, 1)], 1)
    prod = product([a, a], 2)
    assert prod.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert prod.factors is not None


@st.composite
def product_factors(draw):
    """1-4 small factors: c1/c2 boxes, cycles and explicit graphs, the
    last possibly disconnected; fewer vertices per factor as the count
    grows, so the pairwise check stays small."""
    k = draw(st.integers(1, 4))
    top = {1: 6, 2: 5, 3: 4, 4: 3}[k]
    boxes = st.one_of(
        st.integers(1, top).map(lambda w: build_box([(0, w - 1)], 1)),
        st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
        .filter(lambda t: t[0] * t[1] <= top)
        .map(lambda t: build_box([(0, t[0] - 1), (-1, t[1] - 2)], t[2])),
    )
    cycles = st.integers(4, max(4, top)).map(lambda v: build_cycle(v)[0])
    kinds = [boxes, _explicit_images(top)] + ([cycles] if top >= 4 else [])
    return draw(st.lists(st.one_of(kinds), min_size=k, max_size=k))


@given(product_factors())
@example([build_explicit(3, [(0, 2)]), build_box([(0, 1)], 1)])
@settings(max_examples=80, deadline=None)
def test_product_matches_pairwise_np_rule(factors):
    adj = [oracle.adjacency_sets(f) for f in factors]
    tuples = tuple(itertools.product(*(range(f.n) for f in factors)))
    all_grid = all(f.is_grid for f in factors)
    for u in range(1, len(factors) + 1):
        prod = product(factors, u)
        assert prod.factor_tuples == tuples
        assert prod.factors == tuple(factors)
        assert prod.adjacency.label() == (
            f"np{u}(" + ",".join(f.adjacency.label() for f in factors) + ")"
        )
        if all_grid:
            assert prod.points == tuple(
                tuple(c for f, x in zip(factors, t) for c in f.points[x]) for t in tuples
            )
            assert prod.dim == sum(f.dim for f in factors)
        else:
            assert prod.points is None and prod.dim == 0
        for i, s in enumerate(tuples):
            expect = sum(
                1 << j for j, t in enumerate(tuples) if oracle.np_adjacent(adj, s, t, u)
            )
            assert prod.neighbor_masks[i] == expect, (s, u)


@given(
    st.lists(
        st.tuples(st.integers(-2, 1), st.integers(1, 3)).map(lambda t: (t[0], t[0] + t[1] - 1)),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_product_of_paths_is_the_cu_box(intervals):
    paths = [build_box([iv], 1) for iv in intervals]
    for u in range(1, len(intervals) + 1):
        prod = product(paths, u)
        box = build_box(intervals, u)
        assert prod.points == box.points
        assert prod.neighbor_masks == box.neighbor_masks


def test_ten_factor_product_builds_fast():
    # the product folds like a grid: no walk over neighbour combinations
    seg = build_box([(0, 1)], 1)
    start = time.perf_counter()
    prod = product([seg] * 10, 10)
    assert time.perf_counter() - start < 1.0
    # every two vertices differ along factor edges only: the complete graph
    assert prod.n == 1024 and prod.edge_count == 1024 * 1023 // 2


def test_product_needs_factors():
    with pytest.raises(ValueError):
        product([], 1)


def test_induced_subgraph(square_c1):
    mask = mask_from_points(square_c1, [(0, 0), (0, 1), (1, 1)])
    sub, ids = induced(square_c1, mask)
    assert sub.n == 3
    assert [square_c1.points[i] for i in ids] == [(0, 0), (0, 1), (1, 1)]
    assert sub.edge_list() == [(0, 1), (1, 2)]


def _explicit_images(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        ).map(lambda edges: build_explicit(n, edges))
    )


def _row_reader_answers(img):
    """Every answer of metric_ball, unique_shortest_path and is_k_cover
    from each vertex, with the cover sets holding vertex 0 and one more."""
    out = []
    for x in range(img.n):
        out.append([metric_ball(img, x, r) for r in range(4)])
        out.append([is_k_cover(img, 1 | 1 << x, k) for k in range(4)])
        for y in range(img.n):
            try:
                out.append(unique_shortest_path(img, x, y))
            except Disconnected:
                out.append("disconnected")
    return out


# c1 and c2 point sets, explicit images and products of two small images,
# connected or not
metric_inputs = st.one_of(
    point_sets.map(lambda pts: build_from_points(pts, 1)),
    point_sets.map(lambda pts: build_from_points(pts, 2)),
    _explicit_images(8),
    st.tuples(_explicit_images(4), _explicit_images(4), st.integers(1, 2)).map(
        lambda t: product(t[:2], t[2])
    ),
)


@given(metric_inputs)
@example(build_explicit(5, [(0, 1), (1, 2), (3, 4)]))
@settings(max_examples=120, deadline=None)
def test_metric_matches_bfs_oracle(img):
    expect = [
        [INF if d == oracle.INF else d for d in row] for row in oracle.all_distances(img)
    ]
    # a row before the table exists is a single-source search; after, a read
    assert [img.dist_row(x) for x in range(img.n)] == expect
    row_answers = _row_reader_answers(img)
    assert img._dist_lists is None
    assert img.dist_lists() == expect
    assert [img.dist_row(x) for x in range(img.n)] == expect
    assert _row_reader_answers(img) == row_answers
    assert metric(img).tolist() == expect


@given(metric_inputs, st.data())
@settings(max_examples=120, deadline=None)
def test_seeded_search_is_the_distance_to_the_seed_set(img, data):
    """A search seeded with a set gives each vertex its least distance to
    the set's vertices, INF where none reaches (everywhere for the empty
    seed), and is_k_cover reads its largest entry."""
    dist = oracle.all_distances(img)
    for seed in (0, data.draw(st.integers(0, (1 << img.n) - 1))):
        least = [
            min((dist[a][v] for a in mask_indices(seed)), default=oracle.INF)
            for v in range(img.n)
        ]
        expect = [INF if d == oracle.INF else d for d in least]
        assert _bfs_row(img.neighbor_masks, seed) == expect
        for k in (0, 1, 2, 3, INF - 1, INF, 10**6):
            assert is_k_cover(img, seed, k) == all(d <= k for d in least)


# c1, c2 and c3 point sets in one to three dimensions
grid_images = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=10, unique=True),
        st.integers(1, d),
    )
).map(lambda t: build_from_points(*t))

# every c2 rectangle up to 5x5
rectangles = [
    build_box([(0, w - 1), (0, h - 1)], 2) for w in range(1, 6) for h in range(1, 6)
]


@given(st.one_of(metric_inputs, grid_images, st.sampled_from(rectangles)), st.data())
@settings(max_examples=200, deadline=None)
def test_table_readers_match_walk_references(img, data):
    """boundary, unique_shortest_path, is_continuous and is_n_map_on, which
    read the c1 fold, two distance rows and one restricted continuity test,
    agree with a lattice walk, a geodesic count and an edge-by-edge check."""
    adj, dist = oracle.adjacency_sets(img), oracle.all_distances(img)
    if img.points is None:
        with pytest.raises(NotEmbedded):
            boundary(img)
    else:
        assert set(mask_points(img, boundary(img))) == oracle.lattice_boundary(img.points)
    for x, y in itertools.product(range(img.n), repeat=2):
        if dist[x][y] == oracle.INF:
            with pytest.raises(Disconnected):
                unique_shortest_path(img, x, y)
            continue
        path = unique_shortest_path(img, x, y)
        if oracle.geodesic_count(adj, x, y) != 1:
            assert path is None
            continue
        assert len(path) == dist[x][y] + 1 and (path[0], path[-1]) == (x, y)
        assert all(b in adj[a] for a, b in zip(path, path[1:]))
    # near-identity tables, each vertex kept or moved to a neighbour, are
    # continuous often enough to test both answers
    moves = [st.sampled_from(sorted(adj[v] | {v})) for v in range(img.n)]
    anywhere = st.tuples(*[st.integers(0, img.n - 1)] * img.n)
    table = data.draw(st.one_of(st.tuples(*moves), anywhere))
    mask, n = data.draw(st.integers(0, (1 << img.n) - 1)), data.draw(st.integers(0, 3))
    f, ids = MapTable(img, img, table), set(mask_indices(mask))
    assert is_continuous(f) == oracle.is_continuous_table(adj, adj, table)
    assert is_n_map_on(f, mask, n) == (
        oracle.is_continuous_on(adj, adj, table, ids)
        and all(dist[a][table[a]] <= n for a in ids)
    )


# no constructor builds the zero-vertex image, but the kernel takes it
EMPTY = DigitalImage(
    points=None, dim=0, adjacency=AdjacencyKind.explicit(), neighbor_masks=()
)
ONE = build_explicit(1, [])
map_ends = st.one_of(st.sampled_from([EMPTY, ONE]), metric_inputs)


@given(map_ends, map_ends, st.integers(0, (1 << 16) - 1), st.integers(0, 2), st.integers(0, 2))
@example(EMPTY, EMPTY, 0, 0, 0)
@example(ONE, EMPTY, 0, 0, 0)
@example(EMPTY, ONE, 0, 0, 0)
@example(build_cycle(6)[0], ONE, 1, 0, 0)
@settings(max_examples=150, deadline=None)
def test_kernel_maps_pass_the_public_check(dom, cod, subset, m, n):
    """Enumerated maps, search witnesses and counterexamples skip
    MapTable's check; each would pass it and equals the map it builds."""
    found = list(itertools.islice(continuous_maps_between(dom, cod), 200))
    assert bool(found) == (cod.n > 0 or dom.n == 0)  # no map into no vertex
    if dom.n and dom.is_connected():
        subset &= (1 << dom.n) - 1
        out = run_counterexample_search(dom, subset, m, n, node_budget=20_000)
        found += [out.witness] if out.witness else []
        if dom.n <= 8:
            found += itertools.islice(iter_counterexamples(dom, subset, m, n), 50)
    for f in found:
        f.__post_init__()
        assert f == MapTable(f.domain, f.codomain, f.table)


def test_metric_readonly(path3):
    d = metric(path3)
    assert d.dtype == np.uint16
    with pytest.raises(ValueError):
        d[0, 0] = 5


def test_metric_without_numpy_says_it_needs_numpy(path3, monkeypatch):
    # numpy is no runtime dependency; a None entry makes its import fail
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError, match="needs numpy"):
        metric(path3)
    assert path3.dist_lists() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_connectivity():
    img = build_from_points([(0, 0), (5, 5)], 1)
    assert not img.is_connected()
    with pytest.raises(Disconnected):
        diameter(img)
    assert build_box([(0, 3)], 1).is_connected()


def test_diameter_values(square_c1, square_c2):
    assert diameter(square_c1) == 4
    assert diameter(square_c2) == 2
    assert diameter(build_box([(0, 5)], 1)) == 5


def test_metric_ball(path3):
    assert mask_indices(metric_ball(path3, 0, 0)) == [0]
    assert mask_indices(metric_ball(path3, 0, 1)) == [0, 1]
    assert mask_indices(metric_ball(path3, 0, 5)) == [0, 1, 2]


def test_metric_ball_excludes_unreachable():
    img = build_from_points([(0, 0), (5, 5)], 1)
    assert mask_indices(metric_ball(img, 0, 100)) == [0]


def test_metric_ball_never_reaches_another_component():
    """Another component lies within no radius, the INF sentinel's own
    value and any larger one included."""
    img = build_explicit(3, [(0, 1)])
    for m in (1, INF, 10**6):
        assert metric_ball(img, 0, m) == 0b011


@given(point_sets, st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_ball_masks_match_metric_balls(pts, u):
    img = build_from_points(pts, u)
    balls = img.ball_masks()
    assert balls is img.ball_masks()
    for v in range(img.n):
        for r, mask in enumerate(balls[v]):
            assert mask == metric_ball(img, v, r)
        # the last radius already holds v's whole component
        assert balls[v][-1] == metric_ball(img, v, INF - 1)


def test_boundary_box():
    img = build_box([(0, 2), (0, 2)], 1)
    bd = boundary(img)
    assert mask_size(bd) == 8
    assert (1, 1) not in mask_points(img, bd)
    iv = build_box([(0, 3)], 1)
    assert mask_points(iv, boundary(iv)) == [(0,), (3,)]


def test_boundary_needs_grid():
    with pytest.raises(NotEmbedded):
        boundary(build_explicit(2, [(0, 1)]))


def test_unique_shortest_path(path3, square_c1):
    assert unique_shortest_path(path3, 0, 2) == [0, 1, 2]
    # two geodesics between opposite corners of a square
    i = square_c1.point_index[(0, 0)]
    j = square_c1.point_index[(1, 1)]
    assert unique_shortest_path(square_c1, i, j) is None
    assert unique_shortest_path(path3, 1, 1) == [1]


def test_unique_shortest_path_disconnected():
    img = build_from_points([(0, 0), (5, 5)], 1)
    with pytest.raises(Disconnected):
        unique_shortest_path(img, 0, 1)


def test_tree_and_leaves(t_tree, cycle8):
    assert is_tree(t_tree)
    assert not is_tree(cycle8)
    assert mask_points(t_tree, leaves(t_tree)) == [(0, 0), (1, 1), (2, 0)]
    single = build_box([(0, 0)], 1)
    assert is_tree(single)
    assert leaves(single) == 0


def test_cover_and_dominating(path3):
    mid = mask_from_indices([1])
    assert is_k_cover(path3, mid, 1)
    assert is_dominating(path3, mid)
    end = mask_from_indices([0])
    assert not is_k_cover(path3, end, 1)
    assert is_k_cover(path3, end, 2)


def test_k_cover_never_reaches_another_component():
    """A vertex no subset vertex reaches is covered by no radius, the INF
    sentinel's own value and any larger one included."""
    img = build_explicit(3, [(0, 1)])
    for k in (1, INF, 10**6):
        assert not is_k_cover(img, 0b001, k)
        assert is_k_cover(img, 0b101, k)
    assert not is_k_cover(img, 0, INF)


def test_isometry_preserves_structure(square_c2):
    out, vmap = apply_grid_isometry(
        square_c2, axis_perm=[1, 0], signs=[-1, 1], shift=[7, -2]
    )
    assert sorted(vmap) == list(range(square_c2.n))
    d0 = metric(square_c2)
    d1 = metric(out)
    for i in range(square_c2.n):
        for j in range(square_c2.n):
            assert d0[i, j] == d1[vmap[i], vmap[j]]


def test_isometry_rejects_bad_args(square_c1):
    with pytest.raises(ValueError):
        apply_grid_isometry(square_c1, axis_perm=[0, 0], signs=[1, 1], shift=[0, 0])
    with pytest.raises(ValueError):
        apply_grid_isometry(square_c1, axis_perm=[0, 1], signs=[2, 1], shift=[0, 0])
    with pytest.raises(NotEmbedded):
        apply_grid_isometry(
            build_explicit(2, [(0, 1)]), axis_perm=[0], signs=[1], shift=[0]
        )


def test_mask_helpers(path3):
    mask = mask_from_points(path3, [(0,), (2,)])
    assert mask == 0b101
    assert mask_indices(mask) == [0, 2]
    assert mask_points(path3, mask) == [(0,), (2,)]
    assert mask_size(mask) == 2
    assert full_mask(path3) == 0b111
    assert map_mask(0b101, [2, 1, 0]) == 0b101
    assert map_mask(0b001, [2, 1, 0]) == 0b100


def test_mask_validation(path3):
    with pytest.raises(ValueError):
        mask_from_points(path3, [(9,)])
    with pytest.raises(ValueError):
        check_mask(path3, 1 << 5)
    check_mask(path3, 0b111)


def test_structural_equality():
    a = build_box([(0, 1)], 1)
    b = build_box([(0, 1)], 1)
    shifted = build_from_points([(1,), (2,)], 1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != shifted


@given(point_sets)
@settings(max_examples=40, deadline=None)
def test_metric_is_a_metric(pts):
    img = build_from_points(pts, 2)
    d = metric(img)
    n = img.n
    assert all(d[i, i] == 0 for i in range(n))
    for i in range(n):
        for j in range(n):
            assert d[i, j] == d[j, i]
            for k in range(n):
                if d[i, k] != INF and d[k, j] != INF:
                    assert d[i, j] <= int(d[i, k]) + int(d[k, j])


def _enumerated_cu_masks(points, u):
    """Neighbor masks from every offset in {-1,0,1}^dim with 1..u nonzero
    coordinates, probed from every point."""
    dim = len(points[0])
    index = {p: i for i, p in enumerate(points)}
    offsets = [
        off for off in itertools.product((-1, 0, 1), repeat=dim)
        if 1 <= sum(c != 0 for c in off) <= u
    ]
    masks = []
    for p in points:
        m = 0
        for off in offsets:
            j = index.get(tuple(a + b for a, b in zip(p, off)))
            if j is not None:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def test_grid_neighbors_match_full_offset_enumeration():
    for dim in range(1, 5):
        for shape in itertools.product((1, 2, 3), repeat=dim):
            for u in range(1, dim + 1):
                img = build_box([(0, s - 1) for s in shape], u)
                want = _enumerated_cu_masks(img.points, u)
                assert img.neighbor_masks == want, (shape, u)


@given(
    st.integers(1, 6).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=30, unique=True),
        st.integers(1, d),
    ))
)
@settings(max_examples=80, deadline=None)
def test_point_set_neighbors_match_full_offset_enumeration(args):
    pts, u = args
    img = build_from_points(pts, u)
    want = _enumerated_cu_masks(img.points, u)
    assert img.neighbor_masks == want


@given(
    st.integers(7, 30).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=1, max_size=20, unique=True),
        st.integers(1, d),
    ))
)
@settings(max_examples=40, deadline=None)
def test_high_dimensional_neighbors_match_pairwise_rule(args):
    pts, u = args
    img = build_from_points(pts, u)
    for i, p in enumerate(img.points):
        for j, q in enumerate(img.points):
            assert img.adjacent(i, j) == oracle.cu_adjacent(p, q, u), (p, q, u)


@pytest.mark.parametrize("u", [1, 30])
def test_high_dimensional_box_builds_quickly(u):
    started = time.perf_counter()
    img = build_box([[0, 0]] * 30, u)
    assert time.perf_counter() - started < 1.0
    assert img.n == 1 and img.neighbor_masks == (0,)


def test_edge_list_gives_each_call_its_own_list():
    img = build_box([(0, 2), (0, 1)], 2)
    first = img.edge_list()
    want = sorted(
        (i, j) for i, nb in enumerate(oracle.adjacency_sets(img)) for j in nb if i < j
    )
    assert first == want
    first.clear()
    assert img.edge_list() == want
    assert img.edge_list() is not img.edge_list()
