"""Verdicts on freezing, cold, and limiting sets, with certificates.

A subset A of a connected image is (m, n)-limiting when every continuous
self-map whose restriction to A is an m-map is itself an n-map.  Freezing
sets are the (0, 0) case, s-cold sets the (0, s) case.  The empty set
restricts vacuously, so it is (m, n)-limiting exactly when every
continuous self-map is an n-map.

Verdicts come from the counterexample search: a failed query carries the
first violating map in search order, a held query reports the exhausted
node count, and a blown budget is a third outcome distinct from both.
Limitedness only grows with the subset, so minimality reduces to checking
single deletions, and a witness refutes every subset it moves little.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (
    BadCycleLength,
    BudgetExceeded,
    NotAProduct,
    NotAValidTriple,
    NotEmbedded,
)
from .image import (
    DigitalImage,
    SubsetMask,
    _bits,
    _c1_masks,
    boundary,
    check_mask,
    mask_from_indices,
)
from .maps import (
    DEFAULT_MAX_VERTICES,
    DEFAULT_NODE_BUDGET,
    MapTable,
    SearchOutcome,
    _longest_gap,
    _Query,
    cycle_indexing,
    run_counterexample_search,
)


class LimitingVerdict(NamedTuple):
    """Outcome of a limiting-set query.

    holds is True, False, or None for undecided-within-budget.  A False
    limiting verdict carries the violating map; a False minimality verdict
    instead carries the proper subset that still limits.
    """

    holds: bool | None
    witness: MapTable | None
    nodes: int
    subset_witness: SubsetMask | None = None


def _verdict(outcome: SearchOutcome) -> LimitingVerdict:
    if outcome.status == "witness":
        return LimitingVerdict(False, outcome.witness, outcome.nodes)
    if outcome.status == "exhausted":
        return LimitingVerdict(True, None, outcome.nodes)
    return LimitingVerdict(None, None, outcome.nodes)


def is_limiting(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> LimitingVerdict:
    """Decide whether the subset is (m, n)-limiting."""
    outcome = run_counterexample_search(
        img, subset, m, n, node_budget=node_budget, max_vertices=max_vertices
    )
    return _verdict(outcome)


def is_freezing(img: DigitalImage, subset: SubsetMask, **kw) -> LimitingVerdict:
    """Fixing the subset forces the identity; the (0, 0)-limiting case."""
    return is_limiting(img, subset, 0, 0, **kw)


def is_s_cold(img: DigitalImage, subset: SubsetMask, s: int, **kw) -> LimitingVerdict:
    """Fixing the subset forces an s-map; the (0, s)-limiting case."""
    return is_limiting(img, subset, 0, s, **kw)


def is_minimal_limiting(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> LimitingVerdict:
    """The subset is (m, n)-limiting and no single deletion still is.

    Limitedness is monotone in the subset, so a limiting proper subset is
    always contained in some single deletion; checking deletions suffices.
    The query is checked once, and node_budget caps the nodes of all these
    searches together: each gets what the earlier ones left.
    """
    q = _Query(img, m, n, node_budget, max_vertices)
    base = _verdict(q.search(subset))
    if base.holds is not True:
        return base
    for a in _bits(subset):
        smaller = subset & ~(1 << a)
        status = q.search(smaller).status
        if status == "budget":
            return LimitingVerdict(None, None, q.nodes[0])
        if status == "exhausted":
            return LimitingVerdict(False, None, q.nodes[0], subset_witness=smaller)
    return LimitingVerdict(True, None, q.nodes[0])


class MinimalSetResult(NamedTuple):
    """Minimal limiting sets found up to a size cap, in discovery order.

    complete is False when the node budget ran out; sets found before the
    cutoff are still reported.  nodes counts the nodes of the searches
    that ran; searched counts those searches and skipped the subsets that
    a forced point's move or an earlier result decided without one.
    """

    sets: list[SubsetMask]
    complete: bool
    nodes: int
    searched: int = 0
    skipped: int = 0


def _forced_points(img: DigitalImage, m: int, n: int) -> tuple[SubsetMask, bool]:
    """F, the vertices every (m, n)-limiting set holds, and whether some
    move refutes every subset, on a connected image.  The map moving only
    x, to y, is continuous exactly when every neighbour of x is y or
    adjacent to y; it moves x by d(x, y) and nothing else.  With
    d(x, y) > n it is a witness, and its S_f is V minus x when
    d(x, y) > m, so x is forced, and V otherwise, so nothing limits."""
    dist, nbrs = img.dist_lists(), img.neighbor_masks
    forced, refutes_all = 0, False
    for x, row in enumerate(dist):
        for y, d in enumerate(row):
            if d > n and not nbrs[x] & ~(nbrs[y] | 1 << y):
                forced |= (d > m) << x
                refutes_all |= d <= m
    return forced, refutes_all


def find_minimal_limiting_sets(
    img: DigitalImage,
    m: int,
    n: int,
    size_cap: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> MinimalSetResult:
    """All minimal (m, n)-limiting sets with at most size_cap vertices.

    Subsets are scanned smallest-first in lexicographic index order, and a
    subset is searched only when no earlier result decides it.  Two facts
    decide the others:

    - every superset of a limiting set is limiting, so a subset holding a
      set already found is limiting but not minimal;
    - a witness f moves every vertex of S_f = {x : d(x, f(x)) <= m} at
      most m and some vertex more than n, so it refutes every subset of
      S_f.

    A subset is skipped when it holds a found set or lies inside the S_f
    of a stored witness.  A search that finds a witness stores its S_f;
    only maximal S_f masks are kept, since one inside another refutes
    nothing more.  The first masks come before any search, from the
    single-vertex moves of _forced_points: V minus x for each forced
    point x, so the scan visits only the supersets of F and counts the
    other subsets of each size it reaches as skipped.  When a move
    refutes every subset (its S_f is V), or F has more than size_cap
    vertices, those masks decide every subset up to the cap, and the
    result is complete with no set and no node.

    A search that exhausts proves its subset A minimal.  A proper subset
    B of A lies in a first mask when it misses a forced point, and was
    reached earlier otherwise, being smaller.  B holds no found set G, or
    G would lie in A too and A would have been skipped; for the same
    reason B itself was not found.  So B was refuted, by a search or by a
    stored S_f, and no proper subset of A is limiting.  Conversely a
    minimal limiting set L holds no other found set (that set would be a
    limiting proper subset) and lies in no S_f (that witness would refute
    it), so L is searched and found.  The sets are therefore exactly
    those of a scan that searches every subset.

    The query is checked once, before the forced points are read, and has
    one budget.  nodes counts only the searches that ran, and node_budget,
    which must be nonnegative, caps their total: each search gets what the
    earlier ones left.  On a complete result, searched + skipped is the
    number of subsets with at most size_cap vertices.
    """
    if size_cap < 0:
        raise ValueError("size cap must be nonnegative")
    q = _Query(img, m, n, node_budget, max_vertices)
    forced, refutes_all = _forced_points(img, m, n)
    rest = [x for x in range(img.n) if not forced >> x & 1]
    k = img.n + 1 if refutes_all else img.n - len(rest)  # least size visited
    top = min(size_cap, img.n)
    dist = img.dist_lists()
    found: list[SubsetMask] = []
    refuted: list[SubsetMask] = []  # maximal S_f masks of the searched witnesses
    searched = 0
    skipped = sum(math.comb(img.n, size) for size in range(min(k, top + 1)))
    for size in range(k, top + 1):
        skipped += math.comb(img.n, size) - math.comb(len(rest), size - k)
        for combo in itertools.combinations(rest, size - k):
            mask = forced | mask_from_indices(combo)
            if _decided(mask, found, refuted):
                skipped += 1
                continue
            v = q.search(mask)
            searched += 1
            if v.status == "budget":
                return MinimalSetResult(found, False, q.nodes[0], searched, skipped)
            if v.status == "exhausted":
                found.append(mask)
                continue
            s_f = mask_from_indices(x for x, y in enumerate(v.witness.table) if dist[x][y] <= m)
            refuted = [s for s in refuted if s & ~s_f] + [s_f]
    return MinimalSetResult(found, True, q.nodes[0], searched, skipped)


def _decided(mask: SubsetMask, found: list[SubsetMask], refuted: list[SubsetMask]) -> bool:
    """The subset lies inside a witness's S_f or holds a found set.  The
    few maximal S_f masks decide most subsets, so they are read first."""
    for s in refuted:
        if mask | s == s:
            return True
    for f in found:
        if f & mask == f:
            return True
    return False


def limiting_profile(
    img: DigitalImage,
    subset: SubsetMask,
    m: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> int:
    """Least n for which the subset is (m, n)-limiting.

    Starts at n = 0.  A witness f keeps the subset within m and moves some
    vertex D(f) > n, so it refutes every n below D(f), and the next n
    tried is D(f).  No map moves a vertex past the diameter, so the scan
    ends.  The query is checked once, the vertex cap before any distance
    is read, and node_budget caps the nodes of all its searches together.
    """
    n = 0
    q = _Query(img, m, n, node_budget, max_vertices)
    while True:
        v = q.search(subset)
        if v.status == "budget":
            raise BudgetExceeded(f"profile undecided at n={n} after {q.nodes[0]} nodes")
        if v.status == "exhausted":
            return n
        n = max(row[y] for row, y in zip(img.dist_lists(), v.witness.table))
        q.set_n(n)


# -- cycle bounds ----------------------------------------------------------


def surjectivity_threshold(v: int) -> int:
    """Largest t such that every continuous self-map of a length-v cycle
    with displacement at most t is surjective."""
    if v < 4:
        raise BadCycleLength(f"cycles need at least 4 vertices, got {v}")
    if (v - 2) % 4 == 0:
        return (v - 2) // 4 - 1
    return (v - 2) // 4


def cycle_triple_bound(img: DigitalImage, i: int, j: int, k: int) -> int:
    """Largest m such that three cycle positions are (m', m')-limiting for
    every m' <= m; the bound is exact.

    The positions must cut the cycle into three arcs, each strictly
    shorter than half the cycle, so that the pairwise shorter arcs are
    unique and cover everything.  With v the cycle length and g the
    longest arc, the bound is (v - 2g - 1) // 2, the largest m with
    2m + 2g < v.  Since g >= v/3 it never exceeds the surjectivity
    threshold.

    Soundness is the longest-gap bound that the counterexample search
    applies to every cycle subset (maps._Query.search): a subset whose
    longest gap g has 2m + 2g < v is (m, n)-limiting for every n >= m,
    by lifting each arc's image to the integer line.

    Sharpness: at m = bound + 1, 2m + 2g >= v.  Fix the third position,
    send a to a - m and b to b + m, and let the long arc's image run
    backwards the short way between them (v - g - 2m <= g steps).  The
    positions move at most m, but the long arc's image is folded, so
    some point of it moves more than m: on C12 with (0, 4, 8) and m = 2,
    (0,0,0,1,2,1,0,11,10,9,10,11) sends 6 to 0.

    The earlier formula, the least of the surjectivity threshold and
    every half arc rounded down, is refuted by such folded maps: it is
    too high for 109 of the 136 valid triples on C6..C16 that start at
    position 0, and it gives 2 for (0, 4, 8) on C12.
    """
    idx = cycle_indexing(img)
    v = len(idx)
    pos = sorted({i, j, k})
    if len(pos) != 3 or not all(0 <= p < v for p in pos):
        raise NotAValidTriple("positions must be three distinct indices on the cycle")
    g = _longest_gap(v, pos)
    if 2 * g >= v:
        raise NotAValidTriple(
            "each arc between consecutive positions must be shorter than half the cycle"
        )
    return (v - 2 * g - 1) // 2


# -- displacement bounds ---------------------------------------------------


def cover_displacement_bound(m: int, k: int) -> int:
    """Displacement forced on the whole image when a k-cover is an m-map:
    m + 2k."""
    if m < 0 or k < 0:
        raise ValueError("bounds take nonnegative arguments")
    return m + 2 * k


def retract_displacement_bound(n: int, h: int, eps: int) -> int:
    """Displacement bound n + 2h + eps transported through a retraction
    whose points sit within h of the retract and whose limiting data has
    slack eps."""
    if n < 0 or h < 0 or eps < 0:
        raise ValueError("bounds take nonnegative arguments")
    return n + 2 * h + eps


# -- structural sufficient conditions --------------------------------------


def boundary_cold_condition(img: DigitalImage, subset: SubsetMask) -> bool:
    """Sufficient condition for a 1-cold subset of a c_2 rectangle:
    the subset lies on the boundary and omits no two c_1-adjacent
    boundary points.
    """
    if img.points is None or img.dim != 2 or img.adjacency.label() != "c2":
        raise NotEmbedded("condition applies to two-dimensional c_2 images")
    lo0 = min(p[0] for p in img.points)
    hi0 = max(p[0] for p in img.points)
    lo1 = min(p[1] for p in img.points)
    hi1 = max(p[1] for p in img.points)
    if img.n != (hi0 - lo0 + 1) * (hi1 - lo1 + 1):
        raise NotEmbedded("condition applies to full rectangles")
    check_mask(img, subset)
    bd = boundary(img)
    if subset & ~bd:
        return False
    missing = bd & ~subset
    c1 = _c1_masks(img)
    return not any(c1[a] & missing for a in _bits(missing))


# -- products --------------------------------------------------------------


class FactorReport(NamedTuple):
    """Per-factor limiting verdicts for a product query, with the product's
    own verdict."""

    product: LimitingVerdict
    factors: list[LimitingVerdict]


def factor_limitedness(
    prod: DigitalImage,
    subset: SubsetMask,
    m: int,
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> FactorReport:
    """Verdicts for each factor with the subset projected onto it.

    Requires an image built by product() using the full normal product
    (u equal to the factor count); the transfer from product to factors
    is only valid there.  The product and each factor are separate
    queries, each checked on its own and given the full node_budget.
    """
    if prod.factors is None or prod.factor_tuples is None:
        raise NotAProduct("image does not carry product structure")
    if prod.adjacency.kind != "npu" or prod.adjacency.u != len(prod.factors):
        raise NotAProduct(
            "factor transfer needs the full normal product (u = factor count)"
        )
    check_mask(prod, subset)
    kw = dict(node_budget=node_budget, max_vertices=max_vertices)
    product_verdict = is_limiting(prod, subset, m, n, **kw)
    reports = []
    for i, factor in enumerate(prod.factors):
        proj = 0
        for vtx in _bits(subset):
            proj |= 1 << prod.factor_tuples[vtx][i]
        reports.append(is_limiting(factor, proj, m, n, **kw))
    return FactorReport(product_verdict, reports)
