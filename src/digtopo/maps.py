"""Maps between digital images: continuity, displacement, search, homotopy.

A map is continuous when adjacent vertices land on equal or adjacent
vertices.  For total maps this is equivalent to being nonexpansive in the
shortest-path metric, which is what the search engine exploits: each
value assigned cuts every candidate set, all packed into one int, to the
metric ball it allows, so every completed assignment that survives is
continuous, and no continuous map is missed.

All searches are deterministic: vertices are assigned in a fixed order
(canonical, or breadth-first from a distinguished subset) and candidate
values are tried in ascending canonical order, so the first witness found
is the first in search order.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
    Disconnected,
    DomainMismatch,
    NotACycle,
    Unclassifiable,
)
from .image import (
    INF,
    DigitalImage,
    SubsetMask,
    _bits,
    check_mask,
    mask_from_indices,
)

#: Enumeration and search refuse images with more vertices than this.
DEFAULT_MAX_VERTICES = 16

#: Default cap on attempted assignments in a counterexample search.
DEFAULT_NODE_BUDGET = 5_000_000

#: Default cap on maps visited by the homotopy breadth-first search, and
#: on maps classified by the cycle census (the CLI's --budget-maps).
DEFAULT_MAX_VISITED = 200_000


class _MapFields(NamedTuple):
    domain: DigitalImage
    codomain: DigitalImage
    table: tuple[int, ...]


class MapTable(_MapFields):
    """A total map between digital images, stored as an index table.
    Every way of building one, _make, _replace and pickle included,
    validates the table in __post_init__."""

    __slots__ = ()

    def __new__(cls, domain, codomain, table):
        self = tuple.__new__(cls, (domain, codomain, table))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __post_init__(self):
        if len(self.table) != self.domain.n:
            raise ValueError("table length must equal the domain size")
        t = self.table
        if t and (min(t) < 0 or max(t) >= self.codomain.n):
            raise ValueError("table entry out of codomain range")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def image_mask(self) -> SubsetMask:
        return mask_from_indices(self.table)

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            v == i for i, v in enumerate(self.table)
        )


def identity(img: DigitalImage) -> MapTable:
    return MapTable(img, img, tuple(range(img.n)))


def constant(img: DigitalImage, v: int) -> MapTable:
    return MapTable(img, img, (v,) * img.n)


def from_point_function(
    dom: DigitalImage, cod: DigitalImage, fn: Callable[[tuple], tuple]
) -> MapTable:
    """Build a table from a coordinate-level function on grid images."""
    table = []
    for p in dom.points:
        q = tuple(fn(p))
        if q not in cod.point_index:
            raise ValueError(f"function sends {p} to {q}, outside the codomain")
        table.append(cod.point_index[q])
    return MapTable(dom, cod, tuple(table))


def compose(g: MapTable, f: MapTable) -> MapTable:
    """g after f; the inner codomain must match the outer domain."""
    if f.codomain != g.domain:
        raise DomainMismatch("codomain of the inner map must equal the outer domain")
    return MapTable(f.domain, g.codomain, tuple(g.table[v] for v in f.table))


def _continuous_on(f: MapTable, mask: SubsetMask) -> bool:
    """Adjacent vertices of the masked set map to equal or adjacent
    vertices."""
    nbrs, t = f.domain.neighbor_masks, f.table
    for a in _bits(mask):
        star = f.codomain.nstar_mask(t[a])
        for b in _bits(nbrs[a] & mask >> a + 1 << a + 1):
            if not star >> t[b] & 1:
                return False
    return True


def is_continuous(f: MapTable) -> bool:
    """Adjacent vertices map to equal or adjacent vertices."""
    return _continuous_on(f, (1 << f.domain.n) - 1)


def fixed_points(f: MapTable) -> SubsetMask:
    if f.domain != f.codomain:
        raise DomainMismatch("fixed points require a self-map")
    out = 0
    for i, v in enumerate(f.table):
        if i == v:
            out |= 1 << i
    return out


def displacement(f: MapTable) -> int:
    """Largest distance any vertex moves; requires a connected self-map."""
    if f.domain != f.codomain:
        raise DomainMismatch("displacement requires a self-map")
    if not f.domain.is_connected():
        raise Disconnected("displacement requires a connected image")
    dist = f.domain.dist_lists()
    return max(dist[i][v] for i, v in enumerate(f.table))


def is_n_map(f: MapTable, n: int) -> bool:
    """Continuous self-map moving every vertex at most n."""
    return is_continuous(f) and displacement(f) <= n


def is_n_map_on(f: MapTable, mask: SubsetMask, n: int) -> bool:
    """The restriction of f to the masked set is continuous (under the
    induced adjacency) and moves each of its vertices at most n.

    An empty set restricts vacuously, so the answer is then True.
    """
    if f.domain != f.codomain:
        raise DomainMismatch("restricted displacement requires a self-map")
    check_mask(f.domain, mask)
    row, t = f.domain.dist_row, f.table
    if any(row(a)[t[a]] > n for a in _bits(mask)):
        return False
    return _continuous_on(f, mask)


def is_retraction(f: MapTable) -> bool:
    """Continuous self-map fixing every vertex of its image."""
    if f.domain != f.codomain:
        raise DomainMismatch("retractions are self-maps")
    if not is_continuous(f):
        return False
    return all(f.table[v] == v for v in set(f.table))


# -- search engine ---------------------------------------------------------


class _CapHit(Exception):
    pass


def _check_vertex_cap(what: str, max_vertices: int, *sizes: int) -> None:
    """Refuse work on more than max_vertices vertices."""
    for n in sizes:
        if n > max_vertices:
            raise BudgetExceeded(
                f"{what} on {n} vertices exceeds the {max_vertices}-vertex cap"
            )


def _assignments(
    dist: Sequence[Sequence[int]],
    balls: Sequence[Sequence[int]],
    order: Sequence[int],
    cand: Sequence[int],
    viol: Sequence[int] | None = None,
    nodes: list[int] | None = None,
    cap: float = math.inf,
    cuts: list[int | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all surviving complete assignments in canonical DFS order.

    Vertices are assigned in order, values ascending from their candidate
    masks.  Once x takes v, a vertex y at distance r keeps its candidates in
    balls[v][r], in v's largest ball past the last radius, or all at INF.
    With viol, only assignments placing some x on a value in viol[x] are
    yielded and branches that no longer can are cut.  nodes[0], when given,
    counts attempted assignments, and attempt cap + 1 raises _CapHit.

    A depth packs every candidate mask in one int, y's at bit y*(k + 1) for
    k codomain vertices, under a guard bit kept 0.  A node ANDs in
    cuts[x*k + v], built when v is first tried at x; adds k ones to each
    field, setting its guard exactly when it is nonempty; and ANDs with the
    packed viol.  One guard and viol mask serve every depth: every caller
    passes a permutation as order, so a field is cut as before or assigned,
    and holds just its value once assigned.  The cut at y = x is {v}, and a
    later v' at x' lies in v's ball of radius d(x, x'), so by symmetry (at
    INF and past the last radius too) v is in the ball of v' cutting x.  So
    assigned fields never empty, nor add viol bits while vio is false.
    """
    n, k = len(dist), len(balls)
    full, w, top = (1 << k) - 1, k + 1, (len(balls[0]) - 1 if balls else 0)
    order = list(order)
    last = len(order) - 1
    assign, tally = [0] * n, [0] if nodes is None else nodes
    if last < 0:
        yield tuple(assign)
        return
    cuts = [None] * (n * k) if cuts is None else cuts
    lsb = ((1 << n * w) - 1) // ((1 << w) - 1)  # the lowest bit of every field
    ones, guard, packed, vmask = lsb * full, lsb << k, 0, 0
    for y in range(n):
        packed |= cand[y] << y * w
        vmask |= viol[y] << y * w if viol else 0
    # without viol every assignment counts as violating, so none is cut
    states = [(packed, viol is None)] + [None] * last
    pos, values = 0, [_bits(cand[order[0]])] + [None] * last
    while pos >= 0:
        x, (cur, violated), row = order[pos], states[pos], order[pos] * k
        for v in values[pos]:
            tally[0] += 1
            if tally[0] > cap:
                raise _CapHit
            assign[x] = v
            vio = violated or viol[x] >> v & 1
            if pos == last:
                if vio:
                    yield tuple(assign)
                continue
            cut = cuts[row + v]
            if cut is None:
                bv, cut = balls[v], 0
                for r in reversed(dist[x]):
                    cut = cut << w | (bv[r] if r <= top else bv[top] if r < INF else full)
                cuts[row + v] = cut
            nc = cur & cut
            if (nc + ones) & guard != guard or not (vio or nc & vmask):
                continue
            pos += 1
            states[pos] = nc, vio
            values[pos] = _bits(nc >> order[pos] * w & full)
            break
        else:
            pos -= 1


class SearchOutcome(NamedTuple):
    """Result of a counterexample search.

    status is "witness" (violating map found), "exhausted" (none exists),
    or "budget" (node budget hit first).  nodes counts attempted
    assignments in the deterministic search order; on "budget" it is the
    budget itself.
    """

    status: str
    witness: MapTable | None
    nodes: int


def _bfs_order_from(img: DigitalImage, mask: SubsetMask) -> list[int]:
    """Vertices sorted by breadth-first distance from the masked set,
    ties broken by canonical index.  An empty set gives canonical order.

    The distance from the set is the least metric distance to one of its
    vertices, read from the cached metric rows.
    """
    rows = [img.dist_lists()[a] for a in _bits(mask)]
    if not rows:
        return list(range(img.n))
    da = [min(col) for col in zip(*rows)]
    return sorted(range(img.n), key=da.__getitem__)


class _Query:
    """One limiting query, checked once, the vertex cap before any distance:
    the image, m, viol (for each vertex, the vertices farther than n from
    it), and the node counter and budget that all its searches share."""

    def __init__(
        self, img: DigitalImage, m: int, n: int, node_budget: float, max_vertices: int
    ) -> None:
        if node_budget < 0:
            raise ValueError("node budget must be nonnegative")
        if m < 0 or n < 0:
            raise ValueError("displacement bounds must be nonnegative")
        _check_vertex_cap("search", max_vertices, img.n)
        self.img, self.m, self.full = img, m, (1 << img.n) - 1
        self.set_n(n)  # builds the metric, so the connectivity test reads its row 0
        if not img.is_connected():
            raise Disconnected("counterexample search requires a connected image")
        self.budget, self.nodes, self.cuts = node_budget, [0], [None] * img.n**2
        # A connected image of 4 or more vertices, each of degree 2, is a
        # cycle; pos[x] is x's place in its walk.
        self.pos = None
        if img.n >= 4 and all(b.bit_count() == 2 for b in img.neighbor_masks):
            self.pos = sorted(range(img.n), key=cycle_indexing(img).__getitem__)

    def set_n(self, n: int) -> None:
        # A query's image is connected (__init__ refuses any other), so a
        # radius past its diameter allows every vertex and a violation past
        # it is impossible.
        self.n, balls = n, self.img.ball_masks()
        self.viol = [self.full & ~by_r[n] if n < len(by_r) else 0 for by_r in balls]

    def tables(self, subset: SubsetMask) -> Iterator[tuple[int, ...]]:
        """One subset's counterexample tables: vertices assigned
        breadth-first from the subset, subset vertices kept within m, and
        some vertex placed on a value in viol.  A subset that cannot
        violate gives an empty iterator and no node."""
        check_mask(self.img, subset)
        balls = self.img.ball_masks()
        cand = [self.full] * self.img.n
        for a in _bits(subset):
            cand[a] = balls[a][self.m] if self.m < len(balls[a]) else self.full
        if not any(c & w for c, w in zip(cand, self.viol)):
            return iter(())
        dist, order = self.img.dist_lists(), _bfs_order_from(self.img, subset)
        return _assignments(
            dist, balls, order, cand, self.viol, self.nodes, self.budget, self.cuts
        )

    def search(self, subset: SubsetMask) -> SearchOutcome:
        """First counterexample for one subset, with the nodes it spent.

        On a v-cycle, a nonempty subset whose longest gap g between
        cyclically consecutive positions has 2m + 2g < v holds for every
        n >= m, so it is exhausted with no node.  Let f be continuous and
        move each subset position at most m.  Lift the image of an arc
        a -> b between consecutive positions, of length h <= g, to the
        integer line: a walk of h steps from a + e to b + d + kv with
        |e|, |d| <= m.  A walk of h steps spans at most h, so k != 0 would
        need v <= 2h + 2m, which 2m + 2g < v excludes.  With k = 0 the
        point a + t lands within t of a + e and within h - t of b + d,
        hence in [a + t - m, a + t + m].  The arcs cover the cycle, so f
        is an m-map, and an n-map.  A witness still comes only from the
        search, so it stays the first in search order.
        """
        check_mask(self.img, subset)
        if self.pos and subset and self.n >= self.m:
            v = len(self.pos)
            if 2 * (self.m + _longest_gap(v, sorted(self.pos[a] for a in _bits(subset)))) < v:
                return SearchOutcome("exhausted", None, 0)
        start = self.nodes[0]
        try:
            w = next(self.tables(subset), None)
        except _CapHit:
            self.nodes[0] = self.budget
            return SearchOutcome("budget", None, self.budget - start)
        if w is None:
            return SearchOutcome("exhausted", None, self.nodes[0] - start)
        return SearchOutcome("witness", MapTable(self.img, self.img, w), self.nodes[0] - start)


def run_counterexample_search(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> SearchOutcome:
    """Search for a continuous self-map whose restriction to the subset
    moves each subset vertex at most m while some vertex moves more than n.

    The search assigns vertices breadth-first from the subset, in one
    depth-first pass that stops at the first witness or once node_budget
    assignments have been tried.  A negative node_budget raises
    ValueError.
    """
    return _Query(img, m, n, node_budget, max_vertices).search(subset)


def search_counterexample(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> MapTable | None:
    """First counterexample in search order, None if none exists.

    Raises BudgetExceeded when the node budget ran out before the space
    was exhausted; that outcome is deliberately distinct from None.
    """
    out = run_counterexample_search(
        img, subset, m, n, node_budget=node_budget, max_vertices=max_vertices
    )
    if out.status == "budget":
        raise BudgetExceeded(
            f"search stopped after {out.nodes} nodes without exhausting the space"
        )
    return out.witness


def iter_counterexamples(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> Iterator[MapTable]:
    """All counterexamples for the query, in deterministic search order."""
    tables = _Query(img, m, n, math.inf, max_vertices).tables(subset)
    return (MapTable(img, img, t) for t in tables)


def enumerate_continuous_self_maps(img: DigitalImage) -> Iterator[MapTable]:
    """Every continuous self-map exactly once, in lexicographic table order."""
    return continuous_maps_between(img, img)


def continuous_maps_between(
    dom: DigitalImage, cod: DigitalImage
) -> Iterator[MapTable]:
    """Every continuous map from dom to cod, in lexicographic table order."""
    _check_vertex_cap("enumeration", DEFAULT_MAX_VERTICES, dom.n, cod.n)
    cand = [(1 << cod.n) - 1] * dom.n
    for table in _assignments(dom.dist_lists(), cod.ball_masks(), range(dom.n), cand):
        yield MapTable(dom, cod, table)


# -- homotopy --------------------------------------------------------------


def _check_homotopy_args(f: MapTable, g: MapTable) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DomainMismatch("homotopy compares maps between the same images")
    if not (is_continuous(f) and is_continuous(g)):
        raise ValueError("homotopy is defined for continuous maps")


def _one_step_neighbors(
    dom: DigitalImage, cod: DigitalImage, table: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    # One homotopy step: every vertex may move to an equal or adjacent value,
    # and the result must again be continuous.
    cand = [cod.nstar_mask(v) for v in table]
    return _assignments(dom.dist_lists(), cod.ball_masks(), range(dom.n), cand)


def is_homotopic(
    f: MapTable,
    g: MapTable,
    *,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> bool:
    """Whether a chain of one-step deformations links f to g.

    Breadth-first search over continuous maps, where one step changes every
    vertex by at most one adjacency hop.  Visited maps are memoized by
    table; exceeding max_visited raises BudgetExceeded.
    """
    _check_homotopy_args(f, g)
    _check_vertex_cap("homotopy search", DEFAULT_MAX_VERTICES, f.domain.n)
    if f.table == g.table:
        return True
    target = g.table
    visited = {f.table}
    queue = deque([f.table])
    while queue:
        cur = queue.popleft()
        for nb in _one_step_neighbors(f.domain, f.codomain, cur):
            if nb == target:
                return True
            if nb not in visited:
                visited.add(nb)
                if len(visited) > max_visited:
                    raise BudgetExceeded(
                        f"homotopy search visited more than {max_visited} maps"
                    )
                queue.append(nb)
    return False


def is_rigid(img: DigitalImage) -> bool:
    """The homotopy class of the identity contains only the identity.

    Homotopy classes are the connected components of the one-step map
    graph, so the identity sits alone exactly when its one-step
    neighborhood contains nothing else.  Those neighbors are the
    continuous self-maps moving every vertex at most one step, so this
    is the same question as only_identity_is_1map, which answers both.
    """
    return only_identity_is_1map(img)


def only_identity_is_1map(img: DigitalImage) -> bool:
    """No continuous self-map other than the identity moves every vertex
    by at most one step; equivalently, the image is rigid."""
    _check_vertex_cap("rigidity check", DEFAULT_MAX_VERTICES, img.n)
    ident = tuple(range(img.n))
    for nb in _one_step_neighbors(img, img, ident):
        if nb != ident:
            return False
    return True


# -- cycle self-maps -------------------------------------------------------

NONSURJECTIVE = "nonsurjective"
ROTATION = "rotation"
FLIP_ROTATION = "flip_rotation"


class CycleMapClass(NamedTuple):
    """Class of a continuous cycle self-map relative to the derived
    circular indexing: nonsurjective, a rotation by d, or a reflection
    composed with a rotation by d (position i goes to d - i)."""

    kind: str
    d: int | None = None


def cycle_indexing(img: DigitalImage) -> tuple[int, ...]:
    """Circular vertex order of a cycle image, derived deterministically.

    Starts at vertex 0 and walks toward its lowest-index neighbor, anew on
    every call; an image that is not a cycle raises NotACycle.
    """
    if img.n < 4:
        raise NotACycle("cycles have at least 4 vertices")
    if any(img.degree(i) != 2 for i in range(img.n)):
        raise NotACycle("image is not 2-regular")
    # A 2-regular walk that visits every vertex once and closes is one
    # cycle, so the image is connected without a separate check.
    order = [0]
    prev, cur = -1, 0
    for _ in range(img.n - 1):
        nxt = min(w for w in _bits(img.neighbor_masks[cur]) if w != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) < img.n or not img.adjacent(order[-1], order[0]):
        raise NotACycle("walk from vertex 0 did not close into one cycle")
    return tuple(order)


def _longest_gap(v: int, pos: Sequence[int]) -> int:
    """Longest gap between cyclically consecutive positions of a v-cycle,
    given sorted and nonempty; v for a single position."""
    return max(b - a for a, b in zip(pos, [*pos[1:], pos[0] + v]))


def _position_table(idx: tuple[int, ...], d: int, step: int) -> tuple[int, ...]:
    """Table of the automorphism sending position i to position d + step*i
    of the circular indexing idx."""
    v = len(idx)
    table = [0] * v
    for i in range(v):
        table[idx[i]] = idx[(d + step * i) % v]
    return tuple(table)


def rotation(img: DigitalImage, d: int) -> MapTable:
    """Rotation by d positions along the derived circular indexing."""
    return MapTable(img, img, _position_table(cycle_indexing(img), d, 1))


def flip_map(img: DigitalImage) -> MapTable:
    """Reflection fixing position 0: position i goes to -i."""
    return MapTable(img, img, _position_table(cycle_indexing(img), 0, -1))


_NONSURJECTIVE = CycleMapClass(NONSURJECTIVE)


def _classify_table(table: tuple[int, ...], idx: tuple[int, ...]) -> CycleMapClass:
    """Class of a continuous self-map table of the cycle walked by idx.

    Surjective continuous self-maps of a cycle are exactly its graph
    automorphisms, and an automorphism is fixed by the images of positions
    0 and 1: f(idx[0]) sits at position d, and f(idx[1]) one step after it
    for a rotation by d, else one step before it for a flip.  A surjective
    table that differs from that automorphism raises Unclassifiable.
    """
    if len(set(table)) < len(table):
        return _NONSURJECTIVE
    d = idx.index(table[idx[0]])
    step = 1 if idx[(d + 1) % len(idx)] == table[idx[1]] else -1
    if table != _position_table(idx, d, step):
        raise Unclassifiable("surjective cycle self-map is not an automorphism")
    return CycleMapClass(ROTATION if step == 1 else FLIP_ROTATION, d)


def classify_cycle_map(img: DigitalImage, f: MapTable) -> CycleMapClass:
    """Classify a continuous cycle self-map: nonsurjective, a rotation, or
    a flipped rotation; anything else raises Unclassifiable."""
    idx = cycle_indexing(img)
    if f.domain != img or f.codomain != img:
        raise DomainMismatch("map is not a self-map of the given cycle")
    if not is_continuous(f):
        raise ValueError("cycle classification applies to continuous maps")
    return _classify_table(f.table, idx)


class CycleCensus(NamedTuple):
    """Continuous self-maps of a cycle counted by class kind; maps that
    fit no class are counted as unclassified."""

    counts: dict[str, int]
    unclassified: int

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.unclassified


def cycle_map_census(img: DigitalImage, *, max_maps: int) -> CycleCensus:
    """Classify every continuous self-map of a cycle image.

    The maps come from continuous_maps_between, whose forward checking
    admits only continuous tables, so each is classified without the
    continuity check that classify_cycle_map makes on a map it is handed.
    Raises BudgetExceeded when the map after the max_maps-th arrives.
    """
    if max_maps < 0:
        raise ValueError("max_maps must be nonnegative")
    idx = cycle_indexing(img)
    counts = dict.fromkeys((NONSURJECTIVE, ROTATION, FLIP_ROTATION), 0)
    unclassified = 0
    for total, f in enumerate(continuous_maps_between(img, img), 1):
        if total > max_maps:
            raise BudgetExceeded(f"classification stopped after {max_maps} maps")
        try:
            counts[_classify_table(f.table, idx).kind] += 1
        except Unclassifiable:
            unclassified += 1
    return CycleCensus(counts, unclassified)
