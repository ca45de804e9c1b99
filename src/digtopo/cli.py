"""Command-line front end.

Exit codes: 0 when the queried property holds, 1 when it fails (a witness
is reported), 2 when a budget ran out before a decision, 3 for input
errors.  With --json each command emits exactly one JSON object with a
"schema" field; identical invocations produce byte-identical output, so
timing is reported only in the human-readable form.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import fileio, limiting, maps, metrics
from .errors import BudgetExceeded, DigitalTopologyError, Unclassifiable
from .image import DigitalImage, build_cycle, mask_indices
from .maps import MapTable

SCHEMA = "1"

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every run() shares it."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON report")
    common.add_argument(
        "--budget-nodes",
        type=int,
        default=maps.DEFAULT_NODE_BUDGET,
        help="cap on attempted assignments in searches",
    )
    common.add_argument(
        "--budget-maps",
        type=int,
        default=maps.DEFAULT_MAX_VISITED,
        help="cap on maps enumerated or visited",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored; searches run single-threaded",
    )

    parser = _Parser(prog="digtopo", description="digital image map analysis")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify-limiting", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--set", required=True, dest="subset")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--minimal", action="store_true", help="also require minimality")

    p = sub.add_parser("verify-freezing", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--set", required=True, dest="subset")
    p.add_argument("--minimal", action="store_true")

    p = sub.add_parser("verify-cold", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--set", required=True, dest="subset")
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--minimal", action="store_true")

    p = sub.add_parser("find-minimal", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--size-cap", required=True, type=int)

    p = sub.add_parser("profile", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--set", required=True, dest="subset")
    p.add_argument("--m", required=True, type=int)

    p = sub.add_parser("classify-cycle-maps", parents=[common])
    p.add_argument("--v", required=True, type=int)

    p = sub.add_parser("rigidity", parents=[common])
    p.add_argument("--image", required=True)

    p = sub.add_parser("metrics", parents=[common])
    p.add_argument("--image", required=True)
    p.add_argument("--set0", required=True)
    p.add_argument("--set1", required=True)

    p = sub.add_parser("export-dot", parents=[common])
    p.add_argument("--image", required=True)

    return parser


def _witness_json(f: MapTable) -> dict:
    moves = [
        [f.domain.vertex_label(i), f.codomain.vertex_label(v)]
        for i, v in enumerate(f.table)
        if i != v or f.domain != f.codomain
    ]
    return {"table": list(f.table), "moves": moves}


def _witness_lines(f: MapTable) -> list[str]:
    out = []
    for i, v in enumerate(f.table):
        if v != i:
            out.append(f"  {f.domain.vertex_label(i)} -> {f.codomain.vertex_label(v)}")
    if not out:
        out.append("  (identity)")
    return out


def _verdict_exit(holds: bool | None) -> int:
    if holds is None:
        return EXIT_UNKNOWN
    return EXIT_HOLDS if holds else EXIT_FAILS


def _emit_verdict(args, query: dict, verdict, started: float) -> int:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": query,
        "holds": verdict.holds,
        "nodes": verdict.nodes,
        "witness": _witness_json(verdict.witness) if verdict.witness else None,
    }
    if verdict.subset_witness is not None:
        report["limiting_proper_subset"] = mask_indices(verdict.subset_witness)
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        word = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[verdict.holds]
        print(f"{args.command}: {word} ({verdict.nodes} nodes, {elapsed_ms} ms)")
        if verdict.witness is not None:
            print("witness:")
            for line in _witness_lines(verdict.witness):
                print(line)
        if verdict.subset_witness is not None:
            ids = mask_indices(verdict.subset_witness)
            print(f"smaller limiting subset: {ids}")
    return _verdict_exit(verdict.holds)


def _load_query(args) -> tuple[DigitalImage, int]:
    img = fileio.load_image(args.image)
    subset = fileio.load_subset(args.subset, img)
    return img, subset


def _cmd_verify(args, m: int, n: int) -> int:
    started = time.perf_counter()
    img, subset = _load_query(args)
    kw = dict(node_budget=args.budget_nodes, threads=args.threads)
    if args.minimal:
        verdict = limiting.is_minimal_limiting(img, subset, m, n, **kw)
    else:
        verdict = limiting.is_limiting(img, subset, m, n, **kw)
    query = {
        "image": args.image,
        "set": args.subset,
        "m": m,
        "n": n,
        "minimal": args.minimal,
    }
    return _emit_verdict(args, query, verdict, started)


def _cmd_find_minimal(args) -> int:
    started = time.perf_counter()
    img = fileio.load_image(args.image)
    res = limiting.find_minimal_limiting_sets(
        img,
        args.m,
        args.n,
        args.size_cap,
        node_budget=args.budget_nodes,
        threads=args.threads,
    )
    sets = [
        {
            "indices": mask_indices(mask),
            "labels": [img.vertex_label(i) for i in mask_indices(mask)],
        }
        for mask in res.sets
    ]
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": {
            "image": args.image,
            "m": args.m,
            "n": args.n,
            "size_cap": args.size_cap,
        },
        "sets": sets,
        "complete": res.complete,
        "nodes": res.nodes,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        state = "complete" if res.complete else "INCOMPLETE (budget)"
        print(
            f"find-minimal: {len(res.sets)} minimal sets, {state} "
            f"({res.nodes} nodes, {res.searched} subsets searched, "
            f"{res.skipped} skipped, {elapsed_ms} ms)"
        )
        for s in sets:
            print("  {" + ", ".join(s["labels"]) + "}")
    return EXIT_HOLDS if res.complete else EXIT_UNKNOWN


def _cmd_profile(args) -> int:
    started = time.perf_counter()
    img, subset = _load_query(args)
    n = limiting.limiting_profile(
        img, subset, args.m, node_budget=args.budget_nodes, threads=args.threads
    )
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": {"image": args.image, "set": args.subset, "m": args.m},
        "profile": n,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"profile: least n = {n} for m = {args.m} ({elapsed_ms} ms)")
    return EXIT_HOLDS


def _cmd_classify(args) -> int:
    started = time.perf_counter()
    img, _ = build_cycle(args.v)
    counts = {maps.NONSURJECTIVE: 0, maps.ROTATION: 0, maps.FLIP_ROTATION: 0}
    total = 0
    unclassified = 0
    for f in maps.enumerate_continuous_self_maps(img):
        total += 1
        if total > args.budget_maps:
            raise BudgetExceeded(
                f"classification stopped after {args.budget_maps} maps"
            )
        try:
            counts[maps.classify_cycle_map(img, f).kind] += 1
        except Unclassifiable:
            unclassified += 1
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": {"v": args.v},
        "total": total,
        "counts": counts,
        "unclassified": unclassified,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(
            f"classify-cycle-maps: v={args.v}, {total} continuous self-maps "
            f"({elapsed_ms} ms)"
        )
        for kind, c in counts.items():
            print(f"  {kind}: {c}")
        if unclassified:
            print(f"  UNCLASSIFIED: {unclassified}")
    return EXIT_HOLDS if unclassified == 0 else EXIT_FAILS


def _cmd_rigidity(args) -> int:
    started = time.perf_counter()
    img = fileio.load_image(args.image)
    rigid = maps.is_rigid(img)
    only_id = maps.only_identity_is_1map(img)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": {"image": args.image},
        "rigid": rigid,
        "only_identity_is_1map": only_id,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"rigidity: {'RIGID' if rigid else 'NOT RIGID'} ({elapsed_ms} ms)")
        print(f"  only identity is a 1-map: {only_id}")
    return EXIT_HOLDS if rigid else EXIT_FAILS


def _cmd_metrics(args) -> int:
    started = time.perf_counter()
    img = fileio.load_image(args.image)
    m0 = fileio.load_subset(args.set0, img)
    m1 = fileio.load_subset(args.set1, img)
    h = metrics.hausdorff(img, m0, m1)
    d = metrics.metric_of_continuity(img, m0, m1)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "query": {"image": args.image, "set0": args.set0, "set1": args.set1},
        "hausdorff": h,
        "delta": d,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"metrics: hausdorff={h} delta={d} ({elapsed_ms} ms)")
    return EXIT_HOLDS


def _cmd_export_dot(args) -> int:
    img = fileio.load_image(args.image)
    dot = fileio.to_dot(img)
    if args.json:
        report = {"schema": SCHEMA, "command": args.command, "dot": dot}
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.write(dot)
    return EXIT_HOLDS


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _ArgError("a command is required")
        if args.command == "verify-limiting":
            return _cmd_verify(args, args.m, args.n)
        if args.command == "verify-freezing":
            return _cmd_verify(args, 0, 0)
        if args.command == "verify-cold":
            return _cmd_verify(args, 0, args.s)
        if args.command == "find-minimal":
            return _cmd_find_minimal(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "classify-cycle-maps":
            return _cmd_classify(args)
        if args.command == "rigidity":
            return _cmd_rigidity(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "export-dot":
            return _cmd_export_dot(args)
        raise _ArgError(f"unknown command {args.command!r}")
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (DigitalTopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
