"""Output checks that rely on none of digtopo's own code.

Graphs are rebuilt from the image specs with plain Python, distances come
from breadth-first search, and census totals from the closed form
trace((A + I)^v).  A claim that a set holds is re-decided by a small
constraint search of this module's own (``counterexample``).  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque


class Graph:
    """Vertices in the library's canonical order, with labels and BFS distances."""

    def __init__(self, labels: list[str], adj: list[set[int]]):
        self.labels = labels
        self.adj = adj
        self.n = len(labels)
        self.dist = [_bfs(adj, s) for s in range(self.n)]
        # closed[v]: bit mask of v and its neighbours
        self.closed = [sum(1 << u for u in adj[v]) | 1 << v for v in range(self.n)]

    def ball(self, v: int, r: int) -> int:
        """Bit mask of the vertices within distance r of v."""
        return sum(1 << u for u, d in enumerate(self.dist[v]) if d <= r)

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.dist)


def _bfs(adj: list[set[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    if min(dist) < 0:
        raise ValueError("benchmark images must be connected")
    return dist


def _grid(points: list[tuple[int, ...]], u: int) -> tuple[list, list[set[int]]]:
    points = sorted(points)
    adj = [set() for _ in points]
    for i, j in itertools.combinations(range(len(points)), 2):
        diff = [abs(a - b) for a, b in zip(points[i], points[j])]
        if max(diff) <= 1 and 1 <= sum(diff) <= u:
            adj[i].add(j)
            adj[j].add(i)
    return points, adj


def _structure(spec: dict) -> tuple[list | None, list[set[int]]]:
    """(points or None, adjacency) of an image spec."""
    ctor = spec.get("constructor")
    if ctor == "box":
        ranges = [range(lo, hi + 1) for lo, hi in spec["intervals"]]
        return _grid(list(itertools.product(*ranges)), int(spec["adjacency"][1:]))
    if ctor is None:
        return _grid([tuple(p) for p in spec["points"]], int(spec["adjacency"][1:]))
    if ctor == "cycle":
        v = spec["v"]
        return None, [{(i - 1) % v, (i + 1) % v} for i in range(v)]
    if ctor == "explicit":
        adj = [set() for _ in range(spec["n"])]
        for a, b in spec["edges"]:
            adj[a].add(b)
            adj[b].add(a)
        return None, adj
    if ctor == "product":
        factors = [_structure(f) for f in spec["factors"]]
        u = spec["u"]
        tuples = list(itertools.product(*(range(len(adj)) for _, adj in factors)))
        adj = [set() for _ in tuples]
        for i, j in itertools.combinations(range(len(tuples)), 2):
            moved = [k for k in range(len(factors)) if tuples[i][k] != tuples[j][k]]
            if len(moved) <= u and all(
                tuples[j][k] in factors[k][1][tuples[i][k]] for k in moved
            ):
                adj[i].add(j)
                adj[j].add(i)
        points = None
        if all(pts is not None for pts, _ in factors):
            points = [
                tuple(c for k, (pts, _) in enumerate(factors) for c in pts[t[k]])
                for t in tuples
            ]
        return points, adj
    raise ValueError(f"unknown constructor {ctor!r}")


def graph_of(spec: dict) -> Graph:
    points, adj = _structure(spec)
    if points is None:
        labels = [str(i) for i in range(len(adj))]
    else:
        labels = ["(" + ",".join(str(c) for c in p) + ")" for p in points]
    return Graph(labels, adj)


def census_total(v: int) -> int:
    """Continuous self-maps of the v-cycle: trace((A + I)^v), exactly."""
    m = [[1 if (j - i) % v in (0, 1, v - 1) else 0 for j in range(v)] for i in range(v)]
    p = [[int(i == j) for j in range(v)] for i in range(v)]
    for _ in range(v):
        p = [[sum(p[i][k] * m[k][j] for k in range(v)) for j in range(v)] for i in range(v)]
    return sum(p[i][i] for i in range(v))


def digest(stdout: str) -> str:
    """Digest of a --json report with its node count left out: node counts
    measure search effort, which an optimisation may legitimately change,
    while every other field is the answer."""
    report = json.loads(stdout)
    report.pop("nodes", None)
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- independent counterexample search -------------------------------------

#: Search nodes one claim may take.  The claims of the benchmark's requests
#: take a few dozen at most; a request with a claim that needs more is left
#: unchecked (``check`` raises Undecided) rather than failed.
SOLVE_BUDGET = 20_000


class Undecided(Exception):
    """The independent search ran out of its node budget."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _propagate(g: Graph, doms: list[int], queue: list[int]) -> bool:
    """Arc consistency for continuity: f(u) must equal or neighbour f(v)
    for every edge uv.  False when some domain empties."""
    while queue:
        v = queue.pop()
        reach = 0
        for b in _bits(doms[v]):
            reach |= g.closed[b]
        for u in g.adj[v]:
            d = doms[u] & reach
            if d != doms[u]:
                if not d:
                    return False
                doms[u] = d
                queue.append(u)
    return True


def _extend(g: Graph, doms: list[int], nodes: list[int]) -> list[int] | None:
    nodes[0] += 1
    if nodes[0] > SOLVE_BUDGET:
        raise Undecided
    open_ = [v for v in range(g.n) if doms[v] & (doms[v] - 1)]
    if not open_:
        return [d.bit_length() - 1 for d in doms]
    v = min(open_, key=lambda v: doms[v].bit_count())
    for b in _bits(doms[v]):
        trial = list(doms)
        trial[v] = 1 << b
        if _propagate(g, trial, [v]):
            t = _extend(g, trial, nodes)
            if t is not None:
                return t
    return None


def counterexample(g: Graph, subset: list[int], m: int, n: int) -> list[int] | None:
    """A continuous self-map, as a table, that moves each subset vertex at
    most m and some vertex more than n; None when there is none, that is,
    when the subset is (m, n)-limiting.  Raises Undecided past the budget."""
    full = (1 << g.n) - 1
    base = [full] * g.n
    for a in subset:
        base[a] = g.ball(a, m)
    nodes = [0]
    for x in range(g.n):  # the vertex that moves more than n
        doms = list(base)
        doms[x] &= ~g.ball(x, n)
        if doms[x] and _propagate(g, doms, list(range(g.n))):
            t = _extend(g, doms, nodes)
            if t is not None:
                return t
    return None


def _claim(g: Graph, subset: list[int], m: int, n: int, limiting: bool) -> list[str]:
    """Problems with the claim that subset is (or is not) (m, n)-limiting."""
    t = counterexample(g, subset, m, n)
    if limiting and t is not None:
        return [f"{subset} is claimed ({m},{n})-limiting, but the map {t} refutes it"]
    if not limiting and t is None:
        return [f"{subset} is claimed not ({m},{n})-limiting, but no map refutes it"]
    return []


# -- per-command checks ----------------------------------------------------


def _check_witness(g: Graph, w: dict, subset: list[int], m: int, n: int) -> list[str]:
    t = w.get("table")
    if not isinstance(t, list) or len(t) != g.n or any(
        not isinstance(v, int) or not 0 <= v < g.n for v in t
    ):
        return ["witness table is not a map of the image"]
    out = []
    moves = [[g.labels[i], g.labels[v]] for i, v in enumerate(t) if i != v]
    if w.get("moves") != moves:
        out.append("witness moves disagree with the table or the vertex labels")
    if any(t[j] != t[i] and t[j] not in g.adj[t[i]] for i in range(g.n) for j in g.adj[i]):
        out.append("witness is not continuous")
    if any(g.dist[a][t[a]] > m for a in subset):
        out.append(f"witness moves a subset vertex more than m={m}")
    if all(g.dist[x][t[x]] <= n for x in range(g.n)):
        out.append(f"witness moves no vertex more than n={n}")
    return out


def _check_verdict(req: dict, code: int, rep: dict, g: Graph) -> list[str]:
    holds = {0: True, 1: False, 2: None}[code]
    if rep.get("holds") is not holds:
        return [f"exit {code} disagrees with holds={rep.get('holds')!r}"]
    w = rep.get("witness")
    proper = rep.get("limiting_proper_subset")
    s, m, n = req["subset"], req["m"], req["n"]
    if holds is not False:
        if w is not None or proper is not None:
            return ["undecided or held verdict carries a witness"]
        if holds is None:
            return []
        out = _claim(g, s, m, n, limiting=True)
        if req.get("minimal"):  # no single deletion is still limiting
            for a in s:
                out += _claim(g, [x for x in s if x != a], m, n, limiting=False)
        return out
    if w is not None:
        return _check_witness(g, w, s, m, n)
    if not req.get("minimal") or proper is None:
        return ["failed verdict carries no witness"]
    if len(proper) != len(s) - 1 or not set(proper) < set(s):
        return ["limiting proper subset is not a single deletion"]
    return _claim(g, proper, m, n, limiting=True)


def _check_profile(req: dict, rep: dict, g: Graph) -> list[str]:
    p = rep.get("profile")
    if not isinstance(p, int) or not 0 <= p <= g.diameter:
        return [f"profile {p!r} outside [0, diameter={g.diameter}]"]
    # the least n for which the subset is (m, n)-limiting
    out = _claim(g, req["subset"], req["m"], p, limiting=True)
    if p > 0:
        out += _claim(g, req["subset"], req["m"], p - 1, limiting=False)
    return out


def _check_metrics(req: dict, rep: dict, g: Graph) -> list[str]:
    a, b = req["set0"], req["set1"]
    h = max(
        max(min(g.dist[x][y] for y in b) for x in a),
        max(min(g.dist[x][y] for x in a) for y in b),
    )
    out = []
    if rep.get("hausdorff") != h:
        out.append(f"hausdorff {rep.get('hausdorff')!r} != BFS value {h}")
    d = rep.get("delta")
    if not isinstance(d, int) or not h <= d <= g.diameter:
        out.append(f"metric of continuity {d!r} outside [hausdorff, diameter]")
    return out


def _check_rigidity(code: int, rep: dict) -> list[str]:
    # A continuous 1-map is exactly a one-step homotopy neighbour of the
    # identity, so the two answers must agree.
    rigid = rep.get("rigid")
    if rigid is not (code == 0) or rep.get("only_identity_is_1map") is not rigid:
        return ["rigidity answers disagree with each other or with the exit code"]
    return []


def _check_find_minimal(req: dict, rep: dict, g: Graph, families: dict) -> list[str]:
    if rep.get("complete") is not True:
        return ["find-minimal did not complete"]
    want = families.get(req["image"])
    if want is None:
        return [f"no pinned answer for family {req['image']}"]
    sets = [s["indices"] for s in rep.get("sets", [])]
    out = []
    for s in rep["sets"]:
        ids = s["indices"]
        if ids != sorted(set(ids)) or any(not 0 <= i < g.n for i in ids) or len(ids) > req["cap"]:
            out.append(f"set {ids} is malformed or above the size cap")
        elif s["labels"] != [g.labels[i] for i in ids]:
            out.append(f"set {ids} has wrong labels")
    keys = [(len(s), s) for s in sets]
    if keys != sorted(keys) or len(set(map(tuple, sets))) != len(sets):
        out.append("sets are not in smallest-first lexicographic order")
    if any(set(a) < set(b) for a in sets for b in sets):
        out.append("reported sets are not minimal: one contains another")
    if sets != want:
        out.append(f"sets {sets} differ from the family's pinned answer {want}")
    return out


def _check_census(req: dict, rep: dict) -> list[str]:
    v = req["v"]
    total = census_total(v)
    counts = rep.get("counts", {})
    want = {"nonsurjective": total - 2 * v, "rotation": v, "flip_rotation": v}
    out = []
    if rep.get("total") != total:
        out.append(f"total {rep.get('total')!r} != trace((A+I)^{v}) = {total}")
    if counts != want or rep.get("unclassified") != 0:
        out.append(f"counts {counts} != {want} or maps left unclassified")
    return out


def check(req: dict, code, stdout: str, graphs: dict[str, Graph], families: dict) -> list[str]:
    """Problems with one request's exit code and --json output; families
    holds each find-minimal family's pinned sets (pins.json).  Raises
    Undecided when the independent search cannot decide a claim."""
    if code not in req["exit"]:
        return [f"exit code {code!r}, expected one of {req['exit']}"]
    try:
        lines = stdout.splitlines()
        if len(lines) != 1:
            raise ValueError(f"{len(lines)} output lines")
        rep = json.loads(lines[0])
        if not isinstance(rep, dict):
            raise ValueError("report is not an object")
    except ValueError as exc:
        return [f"unreadable --json output: {exc}"]
    if rep.get("schema") != "1" or rep.get("command") != req["argv"][0]:
        return ["report schema or command is wrong"]
    kind = req["kind"]
    g = graphs.get(req.get("image"))
    try:
        if kind == "classify-cycle-maps":
            return _check_census(req, rep)
        if kind == "find-minimal":
            return _check_find_minimal(req, rep, g, families)
        if kind == "profile":
            return _check_profile(req, rep, g)
        if kind == "metrics":
            return _check_metrics(req, rep, g)
        if kind == "rigidity":
            return _check_rigidity(code, rep)
        return _check_verdict(req, code, rep, g)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"report is missing or mistypes a field: {exc!r}"]
