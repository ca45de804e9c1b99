"""Cycle self-map classification and the frozen censuses."""

from __future__ import annotations

import pytest

import oracle
from digtopo import maps
from digtopo.errors import BudgetExceeded, NotACycle, Unclassifiable
from digtopo.image import build_box, build_cycle, cycle_grid, metric
from digtopo.maps import (
    CycleMapClass,
    FLIP_ROTATION,
    NONSURJECTIVE,
    ROTATION,
    MapTable,
    classify_cycle_map,
    cycle_indexing,
    cycle_map_census,
    displacement,
    enumerate_continuous_self_maps,
    flip_map,
    identity,
    is_continuous,
    rotation,
)

# full censuses computed once and frozen; every map classifies, the
# surjective ones always form the dihedral group of order 2v
CENSUS = {
    4: (84, 76),
    5: (265, 255),
    6: (858, 846),
    7: (2765, 2751),
    8: (8872, 8856),
    10: (89550, 89530),
    11: (282205, 282183),
    12: (885492, 885468),
}


@pytest.mark.parametrize("v", range(4, 11))
def test_census(v):
    """The census agrees with classifying every map one at a time and with
    the frozen counts.  For v <= 8 each enumerated map is also checked
    continuous: the census skips that check because the enumeration
    implies it."""
    img, _ = build_cycle(v)
    counts = {NONSURJECTIVE: 0, ROTATION: 0, FLIP_ROTATION: 0}
    seen = 0
    for f in enumerate_continuous_self_maps(img):
        seen += 1
        if v <= 8:
            assert is_continuous(f)
        counts[classify_cycle_map(img, f).kind] += 1
    census = cycle_map_census(img, max_maps=seen)
    assert (census.counts, census.unclassified, census.total) == (counts, 0, seen)
    assert counts[ROTATION] == v
    assert counts[FLIP_ROTATION] == v
    if v in CENSUS:
        assert (seen, counts[NONSURJECTIVE]) == CENSUS[v]
    else:
        assert seen == oracle.cycle_closed_walk_count(v)


@pytest.mark.parametrize("v", [11, 12])
def test_long_census(v):
    """The census alone, past the lengths classified map by map: the
    closed-walk count of maps, v of each automorphism kind, none left
    unclassified."""
    census = cycle_map_census(build_cycle(v)[0], max_maps=10**6)
    total = oracle.cycle_closed_walk_count(v)
    assert (census.total, census.counts[NONSURJECTIVE]) == CENSUS[v] == (total, total - 2 * v)
    assert (census.counts[ROTATION], census.counts[FLIP_ROTATION]) == (v, v)
    assert census.unclassified == 0


def test_surjective_non_automorphism_is_unclassifiable(cycle8):
    """The table classifier shared by classify_cycle_map and the census
    classifies each of the 2v automorphisms and refuses a surjective table
    that is no rotation or flip, even one that agrees with the identity at
    positions 0 and 1."""
    idx = cycle_indexing(cycle8)
    for d in range(8):
        for step, kind in ((1, ROTATION), (-1, FLIP_ROTATION)):
            table = maps._position_table(idx, d, step)
            assert maps._classify_table(table, idx) == CycleMapClass(kind, d)
    swap = (1, 0) + tuple(range(2, 8))
    late = list(range(8))
    late[idx[4]], late[idx[5]] = idx[5], idx[4]
    for table in (swap, tuple(late)):
        with pytest.raises(Unclassifiable):
            maps._classify_table(table, idx)


def test_census_budget_and_arguments(path3):
    img, _ = build_cycle(6)
    assert cycle_map_census(img, max_maps=858).total == 858
    with pytest.raises(BudgetExceeded, match="after 857 maps"):
        cycle_map_census(img, max_maps=857)
    with pytest.raises(BudgetExceeded, match="after 0 maps"):
        cycle_map_census(img, max_maps=0)
    with pytest.raises(ValueError, match="nonnegative"):
        cycle_map_census(img, max_maps=-1)
    with pytest.raises(NotACycle):
        cycle_map_census(path3, max_maps=100)


def test_rotation_displacement():
    for v in (5, 8):
        img, _ = build_cycle(v)
        d = metric(img)
        for k in range(v):
            r = rotation(img, k)
            assert is_continuous(r)
            want = min(k, v - k)
            assert all(d[i, r.table[i]] == want for i in range(v))
            cls = classify_cycle_map(img, r)
            assert cls.kind == ROTATION and cls.d == k


def test_flip_classification():
    img, _ = build_cycle(8)
    f = flip_map(img)
    cls = classify_cycle_map(img, f)
    assert cls.kind == FLIP_ROTATION and cls.d == 0
    # i -> -i fixes 0 and the antipode
    assert [i for i in range(8) if f.table[i] == i] == [0, 4]


def test_identity_is_rotation_zero(cycle8):
    cls = classify_cycle_map(cycle8, identity(cycle8))
    assert cls.kind == ROTATION and cls.d == 0


def test_nonsurjective_classification(cycle8):
    squash = MapTable(cycle8, cycle8, (0, 1, 2, 3, 3, 2, 1, 0))
    assert is_continuous(squash)
    assert classify_cycle_map(cycle8, squash).kind == NONSURJECTIVE


def test_classify_on_embedded_cycle():
    img, idx = cycle_grid(8)
    # rotation along the embedded indexing
    table = [0] * 8
    for a in range(8):
        table[idx[a]] = idx[(a + 1) % 8]
    cls = classify_cycle_map(img, MapTable(img, img, tuple(table)))
    assert cls.kind == ROTATION and cls.d == 1


def test_cycle_indexing_walks_the_cycle(cycle8):
    idx = cycle_indexing(cycle8)
    v = len(idx)
    assert sorted(idx) == list(range(v))
    for a in range(v):
        assert cycle8.adjacent(idx[a], idx[(a + 1) % v])


def test_cycle_indexing_rejects_noncycles(path3, square_c1):
    with pytest.raises(NotACycle):
        cycle_indexing(path3)
    with pytest.raises(NotACycle):
        cycle_indexing(square_c1)


def test_classify_rejects_noncycles(path3):
    with pytest.raises(NotACycle):
        classify_cycle_map(path3, identity(path3))


def test_even_cycle_nonsurjective_bounds():
    """Every nonsurjective map of an even cycle pinches some antipodal
    pair to adjacent-or-equal images and moves a point at least
    (v-2)/4."""
    for v in (4, 6, 8, 10):
        img, _ = build_cycle(v)
        d = metric(img)
        half = v // 2
        for f in enumerate_continuous_self_maps(img):
            if classify_cycle_map(img, f).kind != NONSURJECTIVE:
                continue
            assert any(
                d[f.table[u], f.table[(u + half) % v]] <= 1 for u in range(v)
            )
            assert 4 * displacement(f) >= v - 2


def _reference_walk(img):
    """Circular order from first principles: from vertex 0, always step to
    the lowest-index neighbor not just left."""
    v = img.n
    walk = [0, min(j for j in range(v) if img.adjacent(0, j))]
    while len(walk) < v:
        walk.append(min(j for j in range(v) if img.adjacent(walk[-1], j) and j != walk[-2]))
    return walk


def _reference_class(walk, table):
    """Read the map on positions and compare it with every rotation and
    flipped rotation."""
    v = len(walk)
    pos = {x: i for i, x in enumerate(walk)}
    g = [pos[table[walk[i]]] for i in range(v)]
    if len(set(g)) < v:
        return (NONSURJECTIVE, None)
    if all(g[i] == (g[0] + i) % v for i in range(v)):
        return (ROTATION, g[0])
    if all(g[i] == (g[0] - i) % v for i in range(v)):
        return (FLIP_ROTATION, g[0])
    return ("unclassifiable", None)


@pytest.mark.parametrize("v", range(4, 11))
def test_cached_classification_matches_reference(v):
    img, _ = build_cycle(v)
    walk = _reference_walk(img)
    counts = {NONSURJECTIVE: 0, ROTATION: 0, FLIP_ROTATION: 0}
    for f in enumerate_continuous_self_maps(img):
        got = classify_cycle_map(img, f)
        assert (got.kind, got.d) == _reference_class(walk, f.table), f.table
        counts[got.kind] += 1
    assert counts[ROTATION] == v
    assert counts[FLIP_ROTATION] == v
    assert counts[NONSURJECTIVE] == oracle.cycle_closed_walk_count(v) - 2 * v


def test_cached_classification_on_grid_cycle():
    img, _ = cycle_grid(8)
    walk = _reference_walk(img)
    seen = 0
    for f in enumerate_continuous_self_maps(img):
        got = classify_cycle_map(img, f)
        assert (got.kind, got.d) == _reference_class(walk, f.table)
        seen += 1
    assert seen == oracle.cycle_closed_walk_count(8)


def test_cycle_indexing_is_cached_and_structural(path3):
    img, _ = build_cycle(9)
    first = cycle_indexing(img)
    twin, _ = build_cycle(9)
    assert twin is not img and cycle_indexing(twin) == first
    grid, _ = cycle_grid(8)
    assert cycle_indexing(grid) == cycle_indexing(cycle_grid(8)[0])
    for _ in range(2):
        with pytest.raises(NotACycle):
            cycle_indexing(path3)
