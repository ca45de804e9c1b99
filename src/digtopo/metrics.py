"""Distances between subsets of one image, and the diameter drop bound.

The Hausdorff distance reads two breadth-first searches, each seeded with
one subset, which give every vertex's ambient distance to that subset.
The metric of continuity is map-based: the least t such that continuous
maps exist in both directions between the two subsets (each carrying the
adjacency induced on it) moving every point at most t through the ambient
metric.  Constant maps are always continuous, so the minimum is attained.
"""

from __future__ import annotations

from .errors import Disconnected, DomainMismatch, EmptySubset, NotAnMMap
from .image import (
    INF,
    DigitalImage,
    SubsetMask,
    _bfs_row,
    _bits,
    check_mask,
    induced,
    mask_from_indices,
)
from .maps import (
    DEFAULT_MAX_VERTICES,
    MapTable,
    _assignments,
    _check_vertex_cap,
    displacement,
    is_continuous,
)


def _subset_ids(img: DigitalImage, mask: SubsetMask) -> list[int]:
    check_mask(img, mask)
    ids = list(_bits(mask))
    if not ids:
        raise EmptySubset("subset distances need nonempty subsets")
    return ids


def hausdorff(img: DigitalImage, mask0: SubsetMask, mask1: SubsetMask) -> int:
    """Hausdorff distance between two nonempty subsets in the ambient
    shortest-path metric: the larger of the two directed distances."""
    if not img.is_connected():
        raise Disconnected("subset distances require a connected ambient image")
    a = _subset_ids(img, mask0)
    b = _subset_ids(img, mask1)
    to_a, to_b = (_bfs_row(img.neighbor_masks, m) for m in (mask0, mask1))
    return max(max(to_b[x] for x in a), max(to_a[y] for y in b))


def _min_max_displacement(
    dom: DigitalImage, cod: DigitalImage, cost: list[list[int]]
) -> int:
    """Least achievable maximum ambient displacement over continuous maps
    from the first induced subimage into the second, where cost[i][j] is
    the ambient distance from dom's vertex i to cod's vertex j.

    A downward threshold scan on the search kernel: look for a map moving
    every point at most t, starting one below the best constant map.
    Each map found lowers t to one below its own worst displacement, so
    the first search that finds nothing proves the answer is t + 1.
    """
    dist, balls = dom.dist_lists(), cod.ball_masks()
    t = min(max(col) for col in zip(*cost)) - 1
    while t >= 0:
        cand = [
            mask_from_indices(v for v, c in enumerate(row) if c <= t) for row in cost
        ]
        table = next(_assignments(dist, balls, range(len(cost)), cand), None)
        if table is None:
            break
        t = max(row[v] for row, v in zip(cost, table)) - 1
    return t + 1


def metric_of_continuity(
    img: DigitalImage,
    mask0: SubsetMask,
    mask1: SubsetMask,
) -> int:
    """Least t admitting continuous maps both ways between the subsets
    (induced adjacency) that move every point at most t in the ambient
    metric.  The two directions minimize independently; their maxima
    combine as the larger of the two minima.  One cost matrix, read from
    the rows of mask0's vertices, serves both: its transpose is the cost
    of the direction from mask1."""
    if not img.is_connected():
        raise Disconnected("subset distances require a connected ambient image")
    a = _subset_ids(img, mask0)
    b = _subset_ids(img, mask1)
    _check_vertex_cap("metric of continuity", DEFAULT_MAX_VERTICES, len(a), len(b))
    (sub0, _), (sub1, _) = induced(img, mask0), induced(img, mask1)
    cost = [[row[y] for y in b] for row in map(img.dist_row, a)]
    return max(
        _min_max_displacement(sub0, sub1, cost),
        _min_max_displacement(sub1, sub0, [list(col) for col in zip(*cost)]),
    )


def subset_diameter_ambient(img: DigitalImage, mask: SubsetMask) -> int:
    """Diameter of the subset measured with ambient distances; a subset
    that spans components has none."""
    ids = _subset_ids(img, mask)
    d = max(max(row[b] for b in ids) for row in map(img.dist_row, ids))
    if d >= INF:
        raise Disconnected("the subset spans more than one component")
    return d


def subset_diameter_induced(img: DigitalImage, mask: SubsetMask) -> int:
    """Diameter of the subset under its own induced shortest-path metric."""
    sub, _ = induced(img, mask)
    return sub.diameter_value()


def check_diameter_bound(img: DigitalImage, f: MapTable, m: int) -> bool:
    """An m-map shrinks the diameter by at most 2m.

    Checks diam(f(X)) >= diam(X) - 2m with the image set measured both
    ways: under ambient distances and under its induced metric.  Raises
    NotAnMMap unless f is continuous with displacement at most m, and
    DomainMismatch unless f is a map of img.
    """
    if f.domain != img:
        raise DomainMismatch("map is not defined on the given image")
    if not is_continuous(f) or displacement(f) > m:
        raise NotAnMMap(f"map is not a continuous {m}-map")
    target = img.diameter_value() - 2 * m
    image = f.image_mask()
    return (
        subset_diameter_ambient(img, image) >= target
        and subset_diameter_induced(img, image) >= target
    )
