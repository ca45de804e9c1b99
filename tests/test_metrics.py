"""Hausdorff distance, metric of continuity, and the diameter drop bound."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from digtopo import image as image_module
from digtopo import metrics
from digtopo.errors import (
    BudgetExceeded,
    Disconnected,
    DomainMismatch,
    EmptySubset,
    NotAnMMap,
)
from digtopo.image import (
    build_box,
    build_cycle,
    build_explicit,
    build_from_points,
    full_mask,
    is_k_cover,
    mask_from_indices,
    mask_from_points,
    mask_indices,
    metric_ball,
    unique_shortest_path,
)
from digtopo.maps import (
    MapTable,
    constant,
    displacement,
    enumerate_continuous_self_maps,
    identity,
)
from digtopo.metrics import (
    check_diameter_bound,
    hausdorff,
    metric_of_continuity,
    subset_diameter_ambient,
    subset_diameter_induced,
)


def _nonempty_masks(n):
    return st.integers(1, (1 << n) - 1)


def test_subset_distances_read_only_the_subset_rows():
    img = build_box([(0, 63), (0, 63)], 2)
    a = mask_from_points(img, [(0, 0), (5, 7), (30, 2)])
    b = mask_from_points(img, [(1, 1), (60, 60), (31, 3)])
    assert hausdorff(img, a, b) == 55
    assert metric_of_continuity(img, a, b) == 55
    assert subset_diameter_ambient(img, a) == 30
    # the image's own row readers need only their rows too
    at = img.point_index
    corner = mask_from_points(img, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert metric_ball(img, at[(0, 0)], 1) == corner
    diagonal = [at[(i, i)] for i in range(4)]
    assert unique_shortest_path(img, at[(0, 0)], at[(3, 3)]) == diagonal
    assert unique_shortest_path(img, at[(0, 0)], at[(3, 2)]) is None
    center = mask_from_points(img, [(31, 31)])
    assert is_k_cover(img, center, 32) and not is_k_cover(img, center, 31)
    assert img._dist_lists is None


def test_subset_distances_run_one_search_per_set(monkeypatch):
    """On a fresh 64x64 box the Hausdorff distance runs its connectivity
    row and one search seeded with each set; the metric of continuity its
    connectivity row and the rows of set0 only.  That is 5 one-vertex
    searches and 2 set searches over the box, and never its full table;
    the 3-vertex subimages' own tables are not counted."""
    calls = []
    bfs_row = image_module._bfs_row

    def record(masks, seed):
        if len(masks) == img.n:
            calls.append(seed)
        return bfs_row(masks, seed)

    for module in (image_module, metrics):
        monkeypatch.setattr(module, "_bfs_row", record)
    img = build_box([(0, 63), (0, 63)], 2)
    a = mask_from_points(img, [(0, 0), (5, 7), (30, 2)])
    b = mask_from_points(img, [(1, 1), (60, 60), (31, 3)])
    assert hausdorff(img, a, b) == 55
    assert metric_of_continuity(img, a, b) == 55
    assert calls == [1, a, b, 1] + [1 << x for x in mask_indices(a)]
    assert img._dist_lists is None


def test_ambient_subset_diameter_across_components_is_undefined():
    img = build_explicit(3, [(0, 1)])
    for diameter in (subset_diameter_ambient, subset_diameter_induced):
        with pytest.raises(Disconnected):
            diameter(img, 0b101)
        assert diameter(img, 0b011) == 1


def test_metric_of_continuity_induces_each_subset_once(monkeypatch, square_c1):
    """Both directions share the two induced subimages and their tables."""
    calls = []
    induced = metrics.induced
    monkeypatch.setattr(
        metrics, "induced", lambda img, mask: calls.append(mask) or induced(img, mask)
    )
    top = mask_from_points(square_c1, [(0, 2), (1, 2), (2, 2)])
    corner = mask_from_points(square_c1, [(0, 0), (1, 0), (0, 1)])
    assert metric_of_continuity(square_c1, top, corner) == 3
    assert calls == [top, corner]


def test_hausdorff_fixtures(square_c1):
    allm = full_mask(square_c1)
    top2 = mask_from_points(square_c1, [(x, y) for x in range(3) for y in (1, 2)])
    row0 = mask_from_points(square_c1, [(x, 0) for x in range(3)])
    corner = mask_from_points(square_c1, [(0, 0)])
    assert hausdorff(square_c1, allm, top2) == 1
    assert hausdorff(square_c1, allm, row0) == 2
    assert hausdorff(square_c1, allm, corner) == 4
    assert hausdorff(square_c1, allm, allm) == 0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hausdorff_matches_oracle(data):
    img = build_box([(0, 2), (0, 1)], 1)
    m0 = data.draw(_nonempty_masks(img.n))
    m1 = data.draw(_nonempty_masks(img.n))
    ids0 = [i for i in range(img.n) if m0 >> i & 1]
    ids1 = [i for i in range(img.n) if m1 >> i & 1]
    got = hausdorff(img, m0, m1)
    assert got == oracle.hausdorff(img, ids0, ids1)
    assert got == hausdorff(img, m1, m0)
    assert (got == 0) == (m0 == m1)


def test_hausdorff_empty(square_c1):
    with pytest.raises(EmptySubset):
        hausdorff(square_c1, 0, full_mask(square_c1))


def test_metric_of_continuity_fixtures(square_c1):
    allm = full_mask(square_c1)
    top2 = mask_from_points(square_c1, [(x, y) for x in range(3) for y in (1, 2)])
    row0 = mask_from_points(square_c1, [(x, 0) for x in range(3)])
    corner = mask_from_points(square_c1, [(0, 0)])
    assert metric_of_continuity(square_c1, allm, top2) == 1
    assert metric_of_continuity(square_c1, allm, row0) == 2
    assert metric_of_continuity(square_c1, allm, corner) == 4
    assert metric_of_continuity(square_c1, allm, allm) == 0


#: Images of the oracle comparison, built inside the test because
#: Hypothesis refuses function-scoped fixtures.
ORACLE_IMAGES = (
    lambda: build_box([(0, 2), (0, 1)], 1),
    lambda: build_box([(0, 1), (0, 1)], 2),
    lambda: build_cycle(6)[0],
    lambda: build_from_points([(0, 0), (1, 0), (2, 0), (1, 1), (1, 2)], 1),
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_metric_of_continuity_matches_oracle(data):
    img = data.draw(st.sampled_from(ORACLE_IMAGES))()
    m0 = data.draw(_nonempty_masks(img.n))
    m1 = data.draw(_nonempty_masks(img.n))
    ids0 = [i for i in range(img.n) if m0 >> i & 1]
    ids1 = [i for i in range(img.n) if m1 >> i & 1]
    got = metric_of_continuity(img, m0, m1)
    assert got == oracle.metric_of_continuity(img, ids0, ids1)
    # the general ordering against Hausdorff
    assert hausdorff(img, m0, m1) <= got


def test_metric_of_continuity_empty_and_disconnected(square_c1):
    with pytest.raises(EmptySubset):
        metric_of_continuity(square_c1, 0, 1)
    img = build_from_points([(0, 0), (5, 5)], 1)
    with pytest.raises(Disconnected):
        metric_of_continuity(img, 0b01, 0b10)


def test_subset_diameters(cycle8):
    hole = full_mask(cycle8) & ~1  # drop vertex 0
    assert subset_diameter_ambient(cycle8, hole) == 4
    assert subset_diameter_induced(cycle8, hole) == 6
    assert subset_diameter_ambient(cycle8, full_mask(cycle8)) == 4
    with pytest.raises(EmptySubset):
        subset_diameter_ambient(cycle8, 0)


def test_subset_diameter_induced_disconnected(path3):
    split = mask_from_indices([0, 2])
    assert subset_diameter_ambient(path3, split) == 2
    with pytest.raises(Disconnected):
        subset_diameter_induced(path3, split)


def test_diameter_bound_fixture(square_c1):
    f = constant(square_c1, 0)
    assert check_diameter_bound(square_c1, f, 4)
    with pytest.raises(NotAnMMap):
        check_diameter_bound(square_c1, f, 1)
    g = identity(square_c1)
    assert check_diameter_bound(square_c1, g, 0)


def test_diameter_bound_refuses_a_map_of_another_image():
    img, (c8, _) = build_box([(0, 1), (0, 3)], 1), build_cycle(8)
    with pytest.raises(DomainMismatch):
        check_diameter_bound(img, identity(c8), 0)


def test_diameter_bound_over_all_maps():
    """diam f(X) >= diam X - 2m for every continuous m-map, under both
    diameter conventions."""
    for img in (build_box([(0, 4)], 1), build_box([(0, 1), (0, 2)], 1)):
        dx = subset_diameter_ambient(img, full_mask(img))
        for f in enumerate_continuous_self_maps(img):
            m = displacement(f)
            image = f.image_mask()
            assert check_diameter_bound(img, f, m)
            assert subset_diameter_ambient(img, image) >= dx - 2 * m
            assert subset_diameter_induced(img, image) >= dx - 2 * m


def test_hausdorff_delta_displacement_chain(path3):
    """H(X, f(X)) <= delta(X, f(X)) <= displacement(f) for every
    continuous self-map."""
    allm = full_mask(path3)
    for f in enumerate_continuous_self_maps(path3):
        image = f.image_mask()
        h = hausdorff(path3, allm, image)
        d = metric_of_continuity(path3, allm, image)
        assert h <= d <= displacement(f)
