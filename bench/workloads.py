"""Seeded request lists and input files for the benchmark workloads.

This module does not import digtopo, so the set-up probe can time
``import digtopo`` and input generation together in a fresh process.

Each request is a dict holding the CLI argv (always with ``--json``) and
what the checker needs to judge the output: the image key, subset indices,
displacement bounds and the exit codes allowed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from math import comb, prod

DEFAULT_SEED = 0
WORKLOADS = ("verdicts", "minimal_sets", "census")

#: Image kinds of the verdicts workload; together they use every file
#: constructor (box, cycle, explicit, points, product).
IMAGE_KINDS = ("box_c1", "box_c2", "box_c3", "cycle", "explicit", "points", "product")

#: Verdict commands; each runs once per image and repetition.
VERDICT_KINDS = (
    "limiting",
    "limiting_min",
    "freezing",
    "freezing_min",
    "cold",
    "cold_min",
    "profile",
    "metrics",
    "rigidity",
)

VERDICT_REPS = 4
THREADED_REP = 0  # one repetition in four passes --threads 2
BUDGET_NODES = 3  # below the vertex count, so a search that must assign
                  # every vertex before it can decide always runs out

#: find-minimal families: (name, image spec before translation, m, n, size cap).
#: Five families whose costs differ by at least a fifth from one another, so
#: the nearest-rank median and p90 of a run always fall inside one family's
#: samples, whatever the number of passes.
MINIMAL_FAMILIES = (
    ("box4x4c1_00", ("box", [[0, 3], [0, 3]], 1), 0, 0, 4),
    ("box4x4c2_00", ("box", [[0, 3], [0, 3]], 2), 0, 0, 4),
    ("box8x2c2_12", ("box", [[0, 7], [0, 1]], 2), 1, 2, 4),
    ("box5x3c1_01", ("box", [[0, 4], [0, 2]], 1), 0, 1, 3),
    ("cycle16_22", ("cycle", 16), 2, 2, 4),
)

CENSUS_LENGTHS = (6, 7, 8, 9, 10)


WORK_ROOT = ".bench_work"


def work_dir(workload: str, seed: int) -> str:
    """Relative directory of a workload's input files; outputs echo it."""
    return os.path.join(WORK_ROOT, f"{workload}-s{seed}")


# -- image specs -----------------------------------------------------------


def _box(rng: random.Random, dims: list[int], u: int) -> dict:
    lo = [rng.randint(-3, 3) for _ in dims]
    return {
        "constructor": "box",
        "intervals": [[a, a + d - 1] for a, d in zip(lo, dims)],
        "adjacency": f"c{u}",
    }


def _explicit(rng: random.Random) -> dict:
    n = rng.randint(9, 16)
    edges = {(rng.randrange(i), i) for i in range(1, n)}  # random tree
    while len(edges) < n - 1 + rng.randint(1, 3):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return {"constructor": "explicit", "n": n, "edges": sorted(map(list, edges))}


def _points(rng: random.Random) -> dict:
    n = rng.randint(9, 16)
    pts = {(0, 0)}
    while len(pts) < n:  # grow by c1 steps, so the set is c1- and c2-connected
        x, y = rng.choice(sorted(pts))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        pts.add((x + dx, y + dy))
    pts = [list(p) for p in pts]
    rng.shuffle(pts)
    return {"dim": 2, "adjacency": f"c{rng.randint(1, 2)}", "points": pts}


_FACTORS = {
    "P2": {"constructor": "box", "intervals": [[0, 1]], "adjacency": "c1"},
    "P3": {"constructor": "box", "intervals": [[0, 2]], "adjacency": "c1"},
    "P4": {"constructor": "box", "intervals": [[0, 3]], "adjacency": "c1"},
    "C4": {"constructor": "cycle", "v": 4},
    "C5": {"constructor": "cycle", "v": 5},
}
_PRODUCTS = (("P3", "P3"), ("P3", "P4"), ("P4", "P4"), ("C4", "P3"), ("C5", "P2"), ("P3", "C5"))


def _product(rng: random.Random) -> dict:
    a, b = rng.choice(_PRODUCTS)
    return {"constructor": "product", "u": rng.randint(1, 2), "factors": [_FACTORS[a], _FACTORS[b]]}


def image_spec(kind: str, rng: random.Random) -> dict:
    if kind == "box_c1":
        return _box(rng, rng.choice(([3, 3], [3, 4], [4, 3], [3, 5], [2, 6], [4, 4])), 1)
    if kind == "box_c2":
        return _box(rng, rng.choice(([3, 3], [3, 4], [4, 3], [3, 5], [2, 6], [4, 4])), 2)
    if kind == "box_c3":
        return _box(rng, rng.choice(([2, 2, 3], [2, 3, 2], [3, 2, 2], [2, 2, 4])), 3)
    if kind == "cycle":
        return {"constructor": "cycle", "v": rng.randint(9, 16)}
    if kind == "explicit":
        return _explicit(rng)
    if kind == "points":
        return _points(rng)
    if kind == "product":
        return _product(rng)
    raise ValueError(f"unknown image kind {kind!r}")


def spec_size(spec: dict) -> int:
    """Vertex count of an image spec, computed from the spec alone."""
    ctor = spec.get("constructor")
    if ctor == "box":
        return prod(hi - lo + 1 for lo, hi in spec["intervals"])
    if ctor == "cycle":
        return spec["v"]
    if ctor == "explicit":
        return spec["n"]
    if ctor == "product":
        return prod(spec_size(f) for f in spec["factors"])
    return len(spec["points"])


# -- request lists ---------------------------------------------------------


def _subset(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(n), rng.randint(lo, min(hi, n))))


def _verdicts(rng: random.Random, wd: str) -> tuple[dict, list[dict]]:
    images: dict[str, dict] = {}
    files: dict[str, object] = {}
    requests: list[dict] = []

    def add_subset(ids: list[int]) -> str:
        name = os.path.join(wd, f"set_{len(files):03d}.json")
        files[name] = {"indices": ids}
        return name

    for rep in range(VERDICT_REPS):
        for kind in IMAGE_KINDS:
            key = f"{kind}_{rep}"
            spec = image_spec(kind, rng)
            images[key] = spec
            path = os.path.join(wd, f"img_{key}.json")
            files[path] = spec
            n = spec_size(spec)
            threads = ["--threads", "2"] if rep == THREADED_REP else []
            for vk in VERDICT_KINDS:
                req = {"kind": vk, "image": key, "exit": [0, 1]}
                if vk == "rigidity":
                    argv = ["rigidity", "--image", path]
                elif vk == "metrics":
                    s0, s1 = _subset(rng, n, 1, 6), _subset(rng, n, 1, 6)
                    req.update(set0=s0, set1=s1, exit=[0])
                    argv = ["metrics", "--image", path, "--set0", add_subset(s0),
                            "--set1", add_subset(s1)]
                else:
                    ids = _subset(rng, n, 2, n - 1)
                    req["subset"] = ids
                    sp = add_subset(ids)
                    # m = 1 only on cycles: on denser images an m = 1 search
                    # can take 10^5 nodes, and one such outlier would swamp
                    # the load and metric cost this workload is meant to load.
                    m = 1 if kind == "cycle" else 0
                    if vk == "profile":
                        req.update(m=m, exit=[0])
                        argv = ["profile", "--image", path, "--set", sp, "--m", str(m)]
                    elif vk.startswith("limiting"):
                        nn = m + rng.randint(0, 2)
                        req.update(m=m, n=nn)
                        argv = ["verify-limiting", "--image", path, "--set", sp,
                                "--m", str(m), "--n", str(nn)]
                    elif vk.startswith("freezing"):
                        req.update(m=0, n=0)
                        argv = ["verify-freezing", "--image", path, "--set", sp]
                    else:
                        s = rng.randint(1, 2)
                        req.update(m=0, n=s)
                        argv = ["verify-cold", "--image", path, "--set", sp, "--s", str(s)]
                    if vk.endswith("_min"):
                        req["minimal"] = True
                        argv.append("--minimal")
                    argv += threads
                req["argv"] = argv + ["--json"]
                requests.append(req)
            if rep < 2:
                # One budget-capped freezing query per image kind and
                # repetition pair: a single fixed vertex always admits a
                # non-identity map, so the capped search must exit 2.
                ids = [rng.randrange(n)]
                sp = add_subset(ids)
                requests.append({
                    "kind": "budget", "image": key, "subset": ids, "m": 0, "n": 0,
                    "exit": [2],
                    "argv": ["verify-freezing", "--image", path, "--set", sp,
                             "--budget-nodes", str(BUDGET_NODES), "--json"],
                })
    rng.shuffle(requests)
    return {"images": images, "files": files}, requests


def _minimal_sets(rng: random.Random, wd: str) -> tuple[dict, list[dict]]:
    images, files, requests = {}, {}, []
    for name, (ctor, *params), m, n, cap in MINIMAL_FAMILIES:
        if ctor == "box":
            intervals, u = params
            shift = [rng.randint(-5, 5) for _ in intervals]
            intervals = [[lo + s, hi + s] for (lo, hi), s in zip(intervals, shift)]
            if rng.random() < 0.5:
                spec = {"constructor": "box", "intervals": intervals, "adjacency": f"c{u}"}
            else:  # the same image written as a point list
                pts = itertools.product(*(range(lo, hi + 1) for lo, hi in intervals))
                spec = {"dim": len(intervals), "adjacency": f"c{u}", "points": [list(p) for p in pts]}
        else:
            (v,) = params
            if rng.random() < 0.5:
                spec = {"constructor": "cycle", "v": v}
            else:  # the same image as build_cycle makes it
                spec = {"constructor": "explicit", "n": v,
                        "edges": [[i, (i + 1) % v] for i in range(v)]}
        images[name] = spec
        path = os.path.join(wd, f"img_{name}.json")
        files[path] = spec
        size = spec_size(spec)
        requests.append({
            "kind": "find-minimal", "image": name, "m": m, "n": n, "cap": cap, "exit": [0],
            "items": sum(comb(size, k) for k in range(min(cap, size) + 1)),
            "argv": ["find-minimal", "--image", path, "--m", str(m), "--n", str(n),
                     "--size-cap", str(cap), "--json"],
        })
    rng.shuffle(requests)
    return {"images": images, "files": files}, requests


def _census(rng: random.Random, wd: str) -> tuple[dict, list[dict]]:
    requests = [
        {"kind": "classify-cycle-maps", "v": v, "exit": [0],
         "argv": ["classify-cycle-maps", "--v", str(v), "--json"]}
        for v in CENSUS_LENGTHS
    ]
    rng.shuffle(requests)
    return {"images": {}, "files": {}}, requests


def generate(workload: str, seed: int, wd: str) -> tuple[dict, list[dict]]:
    """Inputs and request list of a workload, with input files placed under
    wd; equal arguments give equal results."""
    makers = {"verdicts": _verdicts, "minimal_sets": _minimal_sets, "census": _census}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return makers[workload](rng, wd)


def write_inputs(wd: str, inputs: dict, requests: list[dict]) -> None:
    """Write every input file and the request list under wd."""
    os.makedirs(wd, exist_ok=True)
    for path, payload in inputs["files"].items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    with open(os.path.join(wd, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(requests, fh)
