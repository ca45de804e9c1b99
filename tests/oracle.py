"""Independent oracles for cross-checking the library.

Everything here recomputes results from first principles with none of the
library's pruning or bitmask machinery: plain dict/list BFS,
full |X|^|X| filtering for map spaces, and literal definitions for the
metric quantities.  Intentionally slow; only meant for tiny inputs.

Cycle self-maps are listed as closed walks instead, which reaches C12; the
cycle-triple thresholds reduce that list with numpy, applying the literal
definition of (m, m)-limiting to every listed map at once.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

INF = float("inf")


def adjacency_sets(img) -> list[set[int]]:
    out = []
    for x in range(img.n):
        mask = img.neighbors_of(x)
        out.append({y for y in range(img.n) if mask >> y & 1})
    return out


def cu_adjacent(p, q, u: int) -> bool:
    """Literal c_u rule: all coordinates within 1, between 1 and u differ."""
    if p == q:
        return False
    diffs = sum(1 for a, b in zip(p, q) if a != b)
    return diffs <= u and all(abs(a - b) <= 1 for a, b in zip(p, q))


def np_adjacent(factor_adj: list[list[set[int]]], s, t, u: int) -> bool:
    """Literal normal product NP_u rule on factor-vertex tuples: between 1
    and u coordinates differ, each along an edge of its factor."""
    moved = [j for j, (a, b) in enumerate(zip(s, t)) if a != b]
    return 1 <= len(moved) <= u and all(t[j] in factor_adj[j][s[j]] for j in moved)


def bfs_distances(adj: list[set[int]], start: int) -> list[float]:
    dist = [INF] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] == INF:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def all_distances(img) -> list[list[float]]:
    adj = adjacency_sets(img)
    return [bfs_distances(adj, x) for x in range(img.n)]


def is_continuous_table(adj_dom, adj_cod, table) -> bool:
    for x in range(len(adj_dom)):
        for y in adj_dom[x]:
            fx, fy = table[x], table[y]
            if fx != fy and fy not in adj_cod[fx]:
                return False
    return True


def is_continuous_on(adj_dom, adj_cod, table, vertices) -> bool:
    """Edge by edge: every edge with both ends in vertices goes to equal
    or adjacent values."""
    for x in vertices:
        for y in adj_dom[x]:
            fx, fy = table[x], table[y]
            if y in vertices and fx != fy and fy not in adj_cod[fx]:
                return False
    return True


def lattice_boundary(points) -> set[tuple[int, ...]]:
    """Points with a lattice neighbour, one coordinate off by one,
    outside the set: a walk over every axis and both directions."""
    pts = set(points)
    out = set()
    for p in pts:
        for axis in range(len(p)):
            for step in (-1, 1):
                q = list(p)
                q[axis] += step
                if tuple(q) not in pts:
                    out.add(p)
    return out


def geodesic_count(adj: list[set[int]], x: int, y: int) -> int:
    """Number of shortest x-y paths: each vertex sums the counts of its
    neighbours one step closer to x, layer by layer."""
    dist = bfs_distances(adj, x)
    count = [0] * len(adj)
    count[x] = 1
    for v in sorted((v for v in range(len(adj)) if dist[v] < INF), key=dist.__getitem__):
        if v != x:
            count[v] = sum(count[w] for w in adj[v] if dist[w] == dist[v] - 1)
    return count[y]


def continuous_self_maps(img) -> set[tuple[int, ...]]:
    """All continuous self-maps by filtering every one of n^n tables."""
    adj = adjacency_sets(img)
    out = set()
    for table in itertools.product(range(img.n), repeat=img.n):
        if is_continuous_table(adj, adj, table):
            out.add(table)
    return out


def continuous_maps_between(dom, cod) -> set[tuple[int, ...]]:
    adj_d = adjacency_sets(dom)
    adj_c = adjacency_sets(cod)
    out = set()
    for table in itertools.product(range(cod.n), repeat=dom.n):
        if is_continuous_table(adj_d, adj_c, table):
            out.add(table)
    return out


def displacement_of(table, dist) -> float:
    return max(dist[x][table[x]] for x in range(len(table)))


def restriction_bounded(table, dist, subset_indices, m: int) -> bool:
    return all(dist[a][table[a]] <= m for a in subset_indices)


def limiting_counterexamples(img, subset_indices, m: int, n: int):
    """Continuous self-maps bounded by m on the subset but not n-maps."""
    dist = all_distances(img)
    out = []
    for table in sorted(continuous_self_maps(img)):
        if restriction_bounded(table, dist, subset_indices, m) and displacement_of(
            table, dist
        ) > n:
            out.append(table)
    return out


def is_limiting(img, subset_indices, m: int, n: int) -> bool:
    return not limiting_counterexamples(img, subset_indices, m, n)


def is_freezing(img, subset_indices) -> bool:
    return is_limiting(img, subset_indices, 0, 0)


def is_s_cold(img, subset_indices, s: int) -> bool:
    return is_limiting(img, subset_indices, 0, s)


def hausdorff(img, ids0, ids1) -> float:
    dist = all_distances(img)
    if not ids0 or not ids1:
        raise ValueError("hausdorff needs nonempty subsets")
    d01 = max(min(dist[a][b] for b in ids1) for a in ids0)
    d10 = max(min(dist[b][a] for a in ids0) for b in ids1)
    return max(d01, d10)


def min_max_displacement(img, dom_ids, cod_ids) -> float:
    """Least displacement over continuous maps from one induced subset to
    the other, displacement in the ambient metric; brute force."""
    dist = all_distances(img)
    adj = adjacency_sets(img)
    adj_dom = [set() for _ in dom_ids]
    pos_d = {v: i for i, v in enumerate(dom_ids)}
    for i, v in enumerate(dom_ids):
        for w in adj[v]:
            if w in pos_d:
                adj_dom[i].add(pos_d[w])
    adj_cod = [set() for _ in cod_ids]
    pos_c = {v: i for i, v in enumerate(cod_ids)}
    for i, v in enumerate(cod_ids):
        for w in adj[v]:
            if w in pos_c:
                adj_cod[i].add(pos_c[w])
    best = INF
    for table in itertools.product(range(len(cod_ids)), repeat=len(dom_ids)):
        if not is_continuous_table(adj_dom, adj_cod, table):
            continue
        worst = max(dist[v][cod_ids[table[i]]] for i, v in enumerate(dom_ids))
        best = min(best, worst)
    return best


def metric_of_continuity(img, ids0, ids1) -> float:
    return max(
        min_max_displacement(img, ids0, ids1), min_max_displacement(img, ids1, ids0)
    )


def subset_diameter(img, ids) -> float:
    dist = all_distances(img)
    return max(dist[a][b] for a in ids for b in ids)


def connected_graphs(n: int):
    """Every labeled connected graph on n vertices as an edge list."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        if n == 1 or all(d < INF for d in bfs_distances(adj, 0)):
            yield edges


def cycle_self_maps(v: int):
    """Every continuous self-map of the v-cycle (v >= 4), as a table.

    Consecutive positions go to equal or adjacent positions, so a map is a
    start value plus v steps of -1, 0 or +1 that close up: their sum is a
    multiple of v.
    """
    for steps in itertools.product((-1, 0, 1), repeat=v):
        if sum(steps) % v:
            continue
        walk = list(itertools.accumulate(steps[:-1], initial=0))
        for start in range(v):
            yield tuple((start + w) % v for w in walk)


def cycle_profiles(v: int) -> list[list[int]]:
    """For each m <= v // 2 and each set A of C_v positions, as a bitmask,
    the largest displacement of a continuous self-map that moves every
    point of A at most m: A is (m, n)-limiting exactly when it is <= n.

    Each listed map raises the entry of the points it moves at most m;
    one sum-over-supersets pass, taking the max, then carries every entry
    to each subset, since a map counts for A exactly when A lies among
    those points.
    """
    moves = set()
    for table in cycle_self_maps(v):
        moves.add(tuple(min((t - x) % v, (x - t) % v) for x, t in enumerate(table)))
    out = []
    for m in range(v // 2 + 1):
        worst = [0] * (1 << v)
        for moved in moves:
            within = sum(1 << x for x, d in enumerate(moved) if d <= m)
            worst[within] = max(worst[within], max(moved))
        for x in range(v):
            for a in range(1 << v):
                if not a >> x & 1:
                    worst[a] = max(worst[a], worst[a | 1 << x])
        out.append(worst)
    return out


def _trace_of_power(step: list[list[int]], v: int) -> int:
    n = len(step)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(v):
        power = [
            [sum(power[i][k] * step[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(power[i][i] for i in range(n))


def cycle_closed_walk_count(v: int) -> int:
    """trace((A + I)^v) for the v-cycle's adjacency matrix A, in exact
    integers: the number of continuous self-maps of C_v."""
    step = [[int((i - j) % v in (0, 1, v - 1)) for j in range(v)] for i in range(v)]
    return _trace_of_power(step, v)


def closed_walk_count(img, v: int) -> int:
    """trace((A + I)^v) for the image's adjacency matrix A, in exact
    integers: the number of continuous maps from the v-cycle to the image.

    Such a map is a closed walk of v steps in which each step stays put or
    crosses an edge, and A + I counts exactly those steps.
    """
    adj = adjacency_sets(img)
    step = [[int(i == j or j in adj[i]) for j in range(img.n)] for i in range(img.n)]
    return _trace_of_power(step, v)


def cycle_triple_thresholds(v: int) -> dict[tuple[int, int, int], int]:
    """Exact (m, m) threshold of every valid triple of C_v positions.

    A triple is valid when each of its three arcs is shorter than v/2.  Its
    threshold is the largest m such that the triple is (m', m')-limiting
    for every m' <= m: one less than the least m at which some listed map
    moves the triple at most m and some point more than m.
    """
    flat = np.fromiter(
        itertools.chain.from_iterable(cycle_self_maps(v)), dtype=np.int8
    )
    offset = (flat.reshape(-1, v) - np.arange(v, dtype=np.int8)) % v
    moved = np.minimum(offset, v - offset)
    worst = moved.max(axis=1)
    triples = [
        t
        for t in itertools.combinations(range(v), 3)
        if all(2 * g < v for g in (t[1] - t[0], t[2] - t[1], v - t[2] + t[0]))
    ]
    out = {}
    # No map moves a point more than v // 2, so (m, m) holds from there on.
    for m in range(v // 2 + 1):
        if len(out) == len(triples):
            break
        # For each map moving some point more than m, the set of points it
        # moves at most m, as a bitmask over positions.
        within = moved[worst > m] <= m
        sets = np.zeros(len(within), dtype=np.int32)
        for x in range(v):
            sets |= within[:, x].astype(np.int32) << x
        sets = np.unique(sets)
        for t in triples:
            want = sum(1 << a for a in t)
            if t not in out and np.any((sets & want) == want):
                out[t] = m - 1
    return {t: out.get(t, v // 2) for t in triples}


class _CapReached(Exception):
    pass


def forward_checking_tables(dist, balls, order, cand, viol, cap):
    """Every table of a plain forward-checking search, with its node count.

    Vertices are assigned in the given order and values tried in
    ascending order from their candidate sets.  Once x takes v, each
    later vertex y keeps only the candidates in v's ball of radius
    d(x, y): the largest ball when the radius passes the last one, and
    every vertex when x and y are not connected (distance INF).  A value
    that empties a later candidate set is dropped.  With viol given, a
    table counts only when it places some x on a value in viol[x], and a
    branch is dropped once neither an assigned value nor a later
    candidate can do so.  Each attempted assignment is one node, and the
    attempt after the cap-th stops the search.

    Returns (tables, nodes, capped).
    """
    full = (1 << len(balls)) - 1
    tables, assign, nodes = [], [0] * len(dist), [0]

    def ball(v, r):
        return full if r == INF else balls[v][min(r, len(balls[v]) - 1)]

    def visit(pos, cands, vio):
        if pos == len(order):
            tables.append(tuple(assign))
            return
        x, later = order[pos], order[pos + 1 :]
        for v in range(len(balls)):
            if not cands[x] >> v & 1:
                continue
            nodes[0] += 1
            if nodes[0] > cap:
                raise _CapReached
            assign[x] = v
            now = vio or bool(viol[x] >> v & 1)
            cut = list(cands)
            for y in later:
                cut[y] = cands[y] & ball(v, dist[x][y])
            if all(cut[y] for y in later) and (
                now or any(cut[y] & viol[y] for y in later)
            ):
                visit(pos + 1, cut, now)

    try:
        visit(0, list(cand), viol is None)
    except _CapReached:
        return tables, nodes[0], True
    return tables, nodes[0], False
