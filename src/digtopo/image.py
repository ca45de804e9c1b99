"""Finite digital images: grid constructors, adjacency relations, and metrics.

A digital image is a finite vertex set together with a symmetric, irreflexive
adjacency relation.  Grid images embed their vertices in Z^n and use the
c_u rule: two points are adjacent when they differ by at most 1 in every
coordinate, differ in at least one, and differ in at most u.  Abstract images
carry an explicit edge list.  Products combine factor images under the
generalized normal product rule: between 1 and u factors step along a factor
edge while the remaining factors stay fixed.  c_u on Z^n is that product of
c_1 paths, so one per-axis fold builds grids and products alike.

Vertices are canonically ordered: lexicographically by coordinates for grid
images, in insertion order otherwise.  Subsets are bitmasks over that order,
and every deterministic guarantee elsewhere in the library leans on it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadAdjacency,
    BadCycleLength,
    BadEdge,
    BudgetExceeded,
    Disconnected,
    NotEmbedded,
)

if TYPE_CHECKING:
    import numpy as np

Point = tuple[int, ...]
SubsetMask = int

#: Sentinel for cross-component distances; distances saturate at 16 bits.
INF = 0xFFFF

#: Construction refuses images with more points than this.
DEFAULT_POINT_BUDGET = 4096

#: Construction refuses grids and products with more axes than this.  The
#: neighbour fold costs points x axes x u, and a box of more than 12 axes
#: of length 2 or more already exceeds the point budget.
_MAX_AXES = 64

#: Coordinates must satisfy |c| <= COORD_LIMIT.
COORD_LIMIT = 1 << 30


class AdjacencyKind(NamedTuple):
    """Tag describing which adjacency rule generated an image's edges."""

    kind: str  # "cu" | "npu" | "explicit"
    u: int | None = None
    factors: tuple["AdjacencyKind", ...] | None = None

    @classmethod
    def cu(cls, u: int) -> "AdjacencyKind":
        return cls("cu", u)

    @classmethod
    def npu(cls, u: int, factors: Sequence["AdjacencyKind"]) -> "AdjacencyKind":
        return cls("npu", u, tuple(factors))

    @classmethod
    def explicit(cls) -> "AdjacencyKind":
        return cls("explicit")

    def label(self) -> str:
        if self.kind == "cu":
            return f"c{self.u}"
        if self.kind == "npu":
            inner = ",".join(f.label() for f in self.factors or ())
            return f"np{self.u}({inner})"
        return "explicit"


class DigitalImage:
    """A finite digital image with canonically ordered vertices.

    Instances are immutable after construction; the all-pairs metric and
    the ball tables are computed lazily and cached.  Equality and hashing
    are structural over (points, adjacency bitmasks) so that separately
    built copies of the same image interoperate.
    """

    __slots__ = (
        "dim",
        "points",
        "adjacency",
        "n",
        "neighbor_masks",
        "point_index",
        "factors",
        "factor_tuples",
        "_dist_lists",
        "_balls",
    )

    def __init__(
        self,
        *,
        points: tuple[Point, ...] | None,
        dim: int,
        adjacency: AdjacencyKind,
        neighbor_masks: tuple[int, ...],
        factors: tuple["DigitalImage", ...] | None = None,
        factor_tuples: tuple[tuple[int, ...], ...] | None = None,
    ):
        self.points = points
        self.dim = dim
        self.adjacency = adjacency
        self.n = len(neighbor_masks)
        self.neighbor_masks = neighbor_masks
        self.point_index = (
            {p: i for i, p in enumerate(points)} if points is not None else None
        )
        self.factors = factors
        self.factor_tuples = factor_tuples
        self._dist_lists = None
        self._balls = None

    # -- structure ---------------------------------------------------------

    @property
    def is_grid(self) -> bool:
        return self.points is not None

    def vertex_label(self, i: int) -> str:
        if self.points is not None:
            return "(" + ",".join(str(c) for c in self.points[i]) + ")"
        return str(i)

    def neighbors_of(self, i: int) -> int:
        return self.neighbor_masks[i]

    def nstar_mask(self, i: int) -> int:
        """Neighbors of i together with i itself."""
        return self.neighbor_masks[i] | (1 << i)

    def degree(self, i: int) -> int:
        return bin(self.neighbor_masks[i]).count("1")

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (i, j) pairs with i < j, in order."""
        return [
            (i, j)
            for i, m in enumerate(self.neighbor_masks)
            for j in _bits(m >> (i + 1) << (i + 1))
        ]

    @property
    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.neighbor_masks[i] >> j & 1)

    # -- metric ------------------------------------------------------------

    def dist_lists(self) -> list[list[int]]:
        """All-pairs distances as nested Python ints, one breadth-first row
        per source; cached, and shared with every caller."""
        if self._dist_lists is None:
            self._dist_lists = _all_pairs_distances(self)
        return self._dist_lists

    def dist_row(self, x: int) -> list[int]:
        """Distances from x: the cached row when the full table exists,
        else one breadth-first search, so a few rows of a large image
        never cost the whole table."""
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range")
        if self._dist_lists is not None:
            return self._dist_lists[x]
        return _bfs_row(self.neighbor_masks, x)

    def ball_masks(self) -> tuple[tuple[int, ...], ...]:
        """Metric balls as bitmasks: ball_masks()[v][r] holds the vertices
        within distance r of v, for r up to the largest finite distance.

        Cached like dist_lists, so every search on the image shares them.
        """
        if self._balls is None:
            dist = self.dist_lists()
            top = max((d for row in dist for d in row if d < INF), default=0)
            balls = []
            for row in dist:
                rings = [0] * (top + 1)
                for w, d in enumerate(row):
                    if d < INF:
                        rings[d] |= 1 << w
                cur = 0
                by_r = []
                for ring in rings:
                    cur |= ring
                    by_r.append(cur)
                balls.append(tuple(by_r))
            self._balls = tuple(balls)
        return self._balls

    def is_connected(self) -> bool:
        """Every vertex is reachable from vertex 0: one breadth-first row,
        so the test never builds the full table."""
        return self.n <= 1 or INF not in self.dist_row(0)

    def diameter_value(self) -> int:
        if self.n == 0:
            raise Disconnected("diameter of an empty image is undefined")
        if not self.is_connected():
            raise Disconnected("diameter requires a connected image")
        return max(max(row) for row in self.dist_lists())

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, DigitalImage):
            return NotImplemented
        return self.points == other.points and self.neighbor_masks == other.neighbor_masks

    def __hash__(self) -> int:
        return hash((self.points, self.neighbor_masks))

    def __repr__(self) -> str:
        return f"DigitalImage(n={self.n}, adjacency={self.adjacency.label()})"


# -- bitmask helpers -------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_from_indices(indices: Iterable[int]) -> SubsetMask:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def mask_indices(mask: SubsetMask) -> list[int]:
    return list(_bits(mask))


def mask_size(mask: SubsetMask) -> int:
    return bin(mask).count("1")


def full_mask(img: DigitalImage) -> SubsetMask:
    return (1 << img.n) - 1


def mask_from_points(img: DigitalImage, points: Iterable[Sequence[int]]) -> SubsetMask:
    if img.point_index is None:
        raise NotEmbedded("point-valued subsets require a grid image")
    out = 0
    for p in points:
        key = tuple(int(c) for c in p)
        if key not in img.point_index:
            raise ValueError(f"point {key} is not a vertex of the image")
        out |= 1 << img.point_index[key]
    return out


def mask_points(img: DigitalImage, mask: SubsetMask) -> list[Point]:
    if img.points is None:
        raise NotEmbedded("vertices of this image have no coordinates")
    return [img.points[i] for i in _bits(mask)]


def check_mask(img: DigitalImage, mask: SubsetMask) -> None:
    if mask < 0 or mask >> img.n:
        raise ValueError("subset mask has bits outside the vertex range")


# -- constructors ----------------------------------------------------------


def _check_axes(count: int, what: str) -> None:
    if count > _MAX_AXES:
        raise BudgetExceeded(f"{what} has more than {_MAX_AXES} axes")


def _is_pair(value) -> bool:
    """A list or tuple of two entries; an object or string never is."""
    return isinstance(value, (list, tuple)) and len(value) == 2


def _check_points(points: Sequence[Sequence[int]], dim: int | None) -> tuple[Point, ...]:
    out = []
    for p in points:
        t = tuple(int(c) for c in p)
        if dim is None:
            dim = len(t)
        if len(t) != dim:
            raise ValueError("all points must share one dimension")
        if any(abs(c) > COORD_LIMIT for c in t):
            raise ValueError(f"coordinate magnitude exceeds {COORD_LIMIT}")
        out.append(t)
    if len(set(out)) != len(out):
        raise ValueError("points must be pairwise distinct")
    return tuple(sorted(out))


def _unit_steps(c: int) -> tuple[int, int]:
    """The grid values one step from c on an axis: the c_1 path."""
    return c - 1, c + 1


def _neighbor_masks(
    tuples: Sequence[tuple[int, ...]],
    u: int,
    steps: Sequence[Callable[[int], Iterable[int]]],
) -> tuple[int, ...]:
    """Neighbour masks of distinct coordinate tuples under the normal
    product NP_u of one step relation per axis.

    Tuples s and t are adjacent when they differ on 1..u axes and, on every
    axis a where they differ, t[a] is among steps[a](s[a]).  Grid points
    step by _unit_steps on every axis, since c_u on Z^n is NP_u of c_1
    paths; product vertices step along each factor's edges.

    Per axis, a bitmask of the tuples at each value gives those level with
    t on that axis, and the union over the values one step away gives those
    one step off; both are tabled once per value.  Folding the axes in
    sorts the tuples within one step on every axis by how many axes they
    differ from t on, and those differing on 1..u axes are t's neighbours.
    This costs one table lookup and u mask operations per tuple and axis,
    never a walk over the neighbour combinations around t.
    """
    at: list[dict[int, int]] = [{} for _ in steps]
    for i, t in enumerate(tuples):
        for col, c in zip(at, t):
            col[c] = col.get(c, 0) | 1 << i
    table = []
    for col, near in zip(at, steps):
        row = {}
        for c, level in col.items():
            step = 0
            for w in near(c):
                step |= col.get(w, 0)
            row[c] = (level, step)
        table.append(row)
    full = (1 << len(tuples)) - 1
    masks = []
    for t in tuples:
        by_diff = [full] + [0] * u  # by_diff[k]: differ on exactly k axes
        for a, (row, c) in enumerate(zip(table, t)):
            level, step = row[c]
            for k in range(min(u, a + 1), 0, -1):
                by_diff[k] = by_diff[k] & level | by_diff[k - 1] & step
            by_diff[0] &= level
        m = 0
        for k in range(1, u + 1):
            m |= by_diff[k]
        masks.append(m)
    return tuple(masks)


def build_box(intervals: Sequence[Sequence[int]], u: int) -> DigitalImage:
    """Full integer box prod([lo_i, hi_i]) under c_u adjacency."""
    if not intervals:
        raise ValueError("a box needs at least one interval")
    dim = len(intervals)
    _check_axes(dim, "box")
    if not 1 <= u <= dim:
        raise BadAdjacency(f"c_u requires 1 <= u <= {dim}, got u={u}")
    parsed = []
    count = 1
    for iv in intervals:
        if not _is_pair(iv):
            raise ValueError(f"interval {iv!r} must be a pair [lo, hi]")
        lo, hi = int(iv[0]), int(iv[1])
        if lo > hi:
            raise ValueError(f"interval [{lo},{hi}] is empty")
        if abs(lo) > COORD_LIMIT or abs(hi) > COORD_LIMIT:
            raise ValueError(f"coordinate magnitude exceeds {COORD_LIMIT}")
        parsed.append((lo, hi))
        count *= hi - lo + 1
        if count > DEFAULT_POINT_BUDGET:
            raise BudgetExceeded(f"box has more than {DEFAULT_POINT_BUDGET} points")
    points = tuple(itertools.product(*(range(lo, hi + 1) for lo, hi in parsed)))
    masks = _neighbor_masks(points, u, [_unit_steps] * dim)
    return DigitalImage(
        points=points, dim=dim, adjacency=AdjacencyKind.cu(u), neighbor_masks=masks
    )


def build_from_points(
    points: Sequence[Sequence[int]],
    u: int,
    *,
    dim: int | None = None,
) -> DigitalImage:
    """Arbitrary grid point set under c_u adjacency, found by the same
    per-axis fold as boxes and products."""
    pts = _check_points(points, dim)
    if not pts:
        raise ValueError("an image needs at least one point")
    if len(pts) > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded(f"point set exceeds {DEFAULT_POINT_BUDGET} points")
    d = len(pts[0])
    _check_axes(d, "point set")
    if not 1 <= u <= d:
        raise BadAdjacency(f"c_u requires 1 <= u <= {d}, got u={u}")
    masks = _neighbor_masks(pts, u, [_unit_steps] * d)
    return DigitalImage(
        points=pts, dim=d, adjacency=AdjacencyKind.cu(u), neighbor_masks=masks
    )


def build_explicit(n_vertices: int, edges: Iterable[Sequence[int]]) -> DigitalImage:
    """Abstract image on vertices 0..n_vertices-1 with the given edges."""
    if n_vertices < 1:
        raise ValueError("an image needs at least one vertex")
    if n_vertices > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded(f"image has more than {DEFAULT_POINT_BUDGET} vertices")
    masks = [0] * n_vertices
    for e in edges:
        if not _is_pair(e):
            raise ValueError(f"edge {e!r} must be a pair [a, b]")
        a, b = int(e[0]), int(e[1])
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise BadEdge(f"edge ({a},{b}) references a vertex out of range")
        if a == b:
            raise BadEdge(f"self-loop at vertex {a} is not allowed")
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return DigitalImage(
        points=None,
        dim=0,
        adjacency=AdjacencyKind.explicit(),
        neighbor_masks=tuple(masks),
    )


CycleIndexing = tuple[int, ...]


def build_cycle(v: int) -> tuple[DigitalImage, CycleIndexing]:
    """Abstract cycle of length v >= 4; returns the image and its circular order.

    Cycles are always built abstractly for uniformity across parities; use
    cycle_grid for a c_1 grid realization of realizable even lengths.
    """
    if v < 4:
        raise BadCycleLength(f"cycles need at least 4 vertices, got {v}")
    edges = ((i, (i + 1) % v) for i in range(v))
    return build_explicit(v, edges), tuple(range(v))


def cycle_grid(v: int) -> tuple[DigitalImage, CycleIndexing]:
    """c_1 grid realization of an even cycle as a rectangle perimeter.

    Realizable lengths are 4 and even v >= 8; length 6 admits no simple
    closed curve under c_1 and odd lengths admit none at all.
    """
    if v == 4:
        walk = [(0, 0), (0, 1), (1, 1), (1, 0)]
    elif v >= 8 and v % 2 == 0:
        b = (v - 4) // 2
        walk = [(0, y) for y in range(b + 1)]
        walk += [(1, b), (2, b)]
        walk += [(2, y) for y in range(b - 1, -1, -1)]
        walk += [(1, 0)]
    else:
        raise BadCycleLength(
            f"no c_1 rectangle-perimeter realization for length {v}"
        )
    img = build_from_points(walk, 1)
    indexing = tuple(img.point_index[p] for p in walk)
    return img, indexing


def product(imgs: Sequence[DigitalImage], u: int) -> DigitalImage:
    """Generalized normal product of factor images.

    A product vertex is a tuple of factor vertices; two product vertices are
    adjacent when between 1 and u factor coordinates are adjacent in their
    factor and the remaining coordinates are equal.  Vertices are ordered
    lexicographically by tuple, and adjacency comes from the grid fold with
    each factor's edges as its axis's steps.  When every factor is
    grid-embedded the product is embedded with concatenated coordinates.
    """
    k = len(imgs)
    if k < 1:
        raise ValueError("a product needs at least one factor")
    all_grid = all(f.is_grid for f in imgs)
    # an embedded product has the factors' coordinates as its axes
    _check_axes(sum(f.dim for f in imgs) if all_grid else k, "product")
    if not 1 <= u <= k:
        raise BadAdjacency(f"normal product requires 1 <= u <= {k}, got u={u}")
    count = 1
    for f in imgs:
        count *= f.n
        if count > DEFAULT_POINT_BUDGET:
            raise BudgetExceeded(f"product has more than {DEFAULT_POINT_BUDGET} points")
    tuples = tuple(itertools.product(*(range(f.n) for f in imgs)))
    masks = _neighbor_masks(
        tuples, u, [lambda c, m=f.neighbor_masks: _bits(m[c]) for f in imgs]
    )
    points = None
    if all_grid:
        points = tuple(
            tuple(c for j, f in enumerate(imgs) for c in f.points[t[j]])
            for t in tuples
        )
    kind = AdjacencyKind.npu(u, [f.adjacency for f in imgs])
    return DigitalImage(
        points=points,
        dim=sum(f.dim for f in imgs) if all_grid else 0,
        adjacency=kind,
        neighbor_masks=masks,
        factors=tuple(imgs),
        factor_tuples=tuples,
    )


def induced(img: DigitalImage, mask: SubsetMask) -> tuple[DigitalImage, tuple[int, ...]]:
    """Subimage induced on the masked vertices, plus their ambient indices.

    The induced adjacency keeps exactly the ambient edges between kept
    vertices, which for c_u images coincides with re-applying the c_u rule.
    """
    check_mask(img, mask)
    ids = tuple(_bits(mask))
    if not ids:
        raise ValueError("cannot induce on an empty subset")
    pos = {a: i for i, a in enumerate(ids)}
    masks = []
    for a in ids:
        m = 0
        kept = img.neighbor_masks[a] & mask
        for b in _bits(kept):
            m |= 1 << pos[b]
        masks.append(m)
    points = tuple(img.points[a] for a in ids) if img.points is not None else None
    sub = DigitalImage(
        points=points,
        dim=img.dim,
        adjacency=img.adjacency if points is not None else AdjacencyKind.explicit(),
        neighbor_masks=tuple(masks),
    )
    return sub, ids


# -- metric and queries ----------------------------------------------------


def _bfs_row(masks: Sequence[int], x: int) -> list[int]:
    """Breadth-first distances from x over neighbour bitmasks, INF for
    vertices in other components.

    Each layer is one mask: the union of the previous layer's neighbour
    masks, less the vertices already seen.  A layer is emptied from its
    top bit down: bit_length reads that bit directly, where isolating the
    lowest bit takes a negation and an and over the whole mask, which
    counts on images of thousands of vertices.
    """
    row = [INF] * len(masks)
    seen = layer = 1 << x
    d = 0
    while layer:
        grown = 0
        while layer:
            v = layer.bit_length() - 1
            row[v] = d
            grown |= masks[v]
            layer ^= 1 << v
        layer = grown & ~seen
        seen |= layer
        d += 1
    return row


def _all_pairs_distances(img: DigitalImage) -> list[list[int]]:
    masks = img.neighbor_masks
    return [_bfs_row(masks, x) for x in range(img.n)]


def metric(img: DigitalImage) -> np.ndarray:
    """Shortest-path metric of the image as a read-only uint16 matrix, with
    INF between components, built from dist_lists() on each call.  The one
    function that needs numpy, which the library does not depend on."""
    try:
        import numpy as np
    except ImportError:
        raise ImportError("metric() needs numpy; install numpy to use it") from None
    d = np.array(img.dist_lists(), dtype=np.uint16)
    d.flags.writeable = False
    return d


def diameter(img: DigitalImage) -> int:
    return img.diameter_value()


def metric_ball(img: DigitalImage, x: int, m: int) -> SubsetMask:
    """Mask of vertices within distance m of x."""
    out = 0
    for j, d in enumerate(img.dist_row(x)):
        if d <= m:
            out |= 1 << j
    return out


def _c1_masks(img: DigitalImage) -> tuple[int, ...]:
    """c_1 neighbour masks of a grid image's points, whatever its own
    adjacency: the grid fold with one unit step per axis."""
    return _neighbor_masks(img.points, 1, [_unit_steps] * img.dim)


def boundary(img: DigitalImage) -> SubsetMask:
    """Vertices with some c_1-adjacent lattice point outside the image:
    those with fewer than 2 * dim c_1 neighbours in it.

    Only grid-embedded images have a boundary in this sense.
    """
    if img.points is None:
        raise NotEmbedded("boundary requires a grid-embedded image")
    c1, inner = _c1_masks(img), 2 * img.dim
    return mask_from_indices(i for i, m in enumerate(c1) if bin(m).count("1") < inner)


def unique_shortest_path(img: DigitalImage, x: int, y: int) -> list[int] | None:
    """The unique geodesic from x to y as vertex indices, or None if several.

    The interval {v : d(x, v) + d(v, y) = d(x, y)}, read from the rows of
    x and y, holds exactly the vertices on some geodesic, at least one at
    each distance 0..d(x, y) from x.  So the geodesic is unique when the
    interval has d(x, y) + 1 vertices, and is those vertices by distance.
    """
    if not (0 <= x < img.n and 0 <= y < img.n):
        raise ValueError("vertex index out of range")
    rx, ry = img.dist_row(x), img.dist_row(y)
    d = rx[y]
    if d >= INF:
        raise Disconnected("vertices lie in different components")
    between = [v for v in range(img.n) if rx[v] + ry[v] == d]
    if len(between) != d + 1:
        return None
    return sorted(between, key=rx.__getitem__)


def is_k_cover(img: DigitalImage, mask: SubsetMask, k: int) -> bool:
    """Every vertex lies within distance k of some vertex of the subset."""
    check_mask(img, mask)
    if k < 0:
        raise ValueError("cover radius must be nonnegative")
    if mask == 0:
        return img.n == 0
    return all(min(col) <= k for col in zip(*map(img.dist_row, _bits(mask))))


def is_dominating(img: DigitalImage, mask: SubsetMask) -> bool:
    """Every vertex equals or is adjacent to some vertex of the subset."""
    return is_k_cover(img, mask, 1)


def leaves(img: DigitalImage) -> SubsetMask:
    out = 0
    for i in range(img.n):
        if img.degree(i) == 1:
            out |= 1 << i
    return out


def is_tree(img: DigitalImage) -> bool:
    return img.is_connected() and img.edge_count == img.n - 1


# -- grid isometries -------------------------------------------------------


def apply_grid_isometry(
    img: DigitalImage,
    *,
    axis_perm: Sequence[int],
    signs: Sequence[int],
    shift: Sequence[int],
) -> tuple[DigitalImage, list[int]]:
    """Apply p'[i] = signs[i] * p[axis_perm[i]] + shift[i] to a c_u grid image.

    Axis permutations, reflections, and translations preserve c_u adjacency,
    so the result is the same image up to relabeling.  Returns the new image
    and the map from old vertex indices to new ones.
    """
    if img.points is None or img.adjacency.kind != "cu":
        raise NotEmbedded("grid isometries apply to c_u grid images")
    d = img.dim
    if sorted(axis_perm) != list(range(d)) or len(signs) != d or len(shift) != d:
        raise ValueError("isometry parameters must match the image dimension")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    moved = [
        tuple(signs[i] * p[axis_perm[i]] + shift[i] for i in range(d))
        for p in img.points
    ]
    out = build_from_points(moved, img.adjacency.u)
    vmap = [out.point_index[q] for q in moved]
    return out, vmap


def map_mask(mask: SubsetMask, vmap: Sequence[int]) -> SubsetMask:
    """Push a subset mask through a vertex index map."""
    out = 0
    for i in _bits(mask):
        out |= 1 << vmap[i]
    return out
