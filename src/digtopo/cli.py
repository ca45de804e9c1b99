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
from dataclasses import dataclass, field

from . import fileio, limiting, maps, metrics
from .errors import BudgetExceeded, DigitalTopologyError
from .image import build_cycle, mask_indices
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


def _budget(text: str) -> int:
    """A budget argument: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every run() shares it."""
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON report")
    common.add_argument(
        "--budget-nodes",
        type=_budget,
        default=maps.DEFAULT_NODE_BUDGET,
        help="cap on attempted assignments in searches",
    )
    common.add_argument(
        "--budget-maps",
        type=_budget,
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


@dataclass
class _Report:
    """What one command found.

    fields go into the JSON report after schema, command and query (a
    query of None is left out).  The first human line is the command,
    then head, then stats and the elapsed time in parentheses; lines
    follow it.  A head of None prints lines alone, with no timing line.
    """

    code: int
    query: dict | None
    fields: dict
    head: str | None
    stats: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def _verify(args, m: int, n: int) -> _Report:
    img = fileio.load_image(args.image)
    subset = fileio.load_subset(args.subset, img)
    check = limiting.is_minimal_limiting if args.minimal else limiting.is_limiting
    v = check(img, subset, m, n, node_budget=args.budget_nodes)
    fields = {
        "holds": v.holds,
        "nodes": v.nodes,
        "witness": _witness_json(v.witness) if v.witness else None,
    }
    lines = []
    if v.witness is not None:
        lines = ["witness:"] + _witness_lines(v.witness)
    if v.subset_witness is not None:
        fields["limiting_proper_subset"] = mask_indices(v.subset_witness)
        lines.append(f"smaller limiting subset: {mask_indices(v.subset_witness)}")
    query = {
        "image": args.image,
        "set": args.subset,
        "m": m,
        "n": n,
        "minimal": args.minimal,
    }
    code = {True: EXIT_HOLDS, False: EXIT_FAILS, None: EXIT_UNKNOWN}[v.holds]
    word = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[v.holds]
    return _Report(code, query, fields, word, [f"{v.nodes} nodes"], lines)


def _find_minimal(args) -> _Report:
    img = fileio.load_image(args.image)
    res = limiting.find_minimal_limiting_sets(
        img, args.m, args.n, args.size_cap, node_budget=args.budget_nodes
    )
    sets = [
        {
            "indices": mask_indices(mask),
            "labels": [img.vertex_label(i) for i in mask_indices(mask)],
        }
        for mask in res.sets
    ]
    query = {
        "image": args.image,
        "m": args.m,
        "n": args.n,
        "size_cap": args.size_cap,
    }
    state = "complete" if res.complete else "INCOMPLETE (budget)"
    return _Report(
        EXIT_HOLDS if res.complete else EXIT_UNKNOWN,
        query,
        {"sets": sets, "complete": res.complete, "nodes": res.nodes},
        f"{len(res.sets)} minimal sets, {state}",
        [
            f"{res.nodes} nodes",
            f"{res.searched} subsets searched",
            f"{res.skipped} skipped",
        ],
        ["  {" + ", ".join(s["labels"]) + "}" for s in sets],
    )


def _profile(args) -> _Report:
    img = fileio.load_image(args.image)
    subset = fileio.load_subset(args.subset, img)
    n = limiting.limiting_profile(img, subset, args.m, node_budget=args.budget_nodes)
    query = {"image": args.image, "set": args.subset, "m": args.m}
    head = f"least n = {n} for m = {args.m}"
    return _Report(EXIT_HOLDS, query, {"profile": n}, head)


def _classify(args) -> _Report:
    img, _ = build_cycle(args.v)
    census = maps.cycle_map_census(img, max_maps=args.budget_maps)
    counts, unclassified, total = census.counts, census.unclassified, census.total
    lines = [f"  {kind}: {c}" for kind, c in counts.items()]
    if unclassified:
        lines.append(f"  UNCLASSIFIED: {unclassified}")
    return _Report(
        EXIT_HOLDS if unclassified == 0 else EXIT_FAILS,
        {"v": args.v},
        {"total": total, "counts": counts, "unclassified": unclassified},
        f"v={args.v}, {total} continuous self-maps",
        lines=lines,
    )


def _rigidity(args) -> _Report:
    # is_rigid and only_identity_is_1map answer the same question
    rigid = maps.is_rigid(fileio.load_image(args.image))
    return _Report(
        EXIT_HOLDS if rigid else EXIT_FAILS,
        {"image": args.image},
        {"rigid": rigid, "only_identity_is_1map": rigid},
        "RIGID" if rigid else "NOT RIGID",
        lines=[f"  only identity is a 1-map: {rigid}"],
    )


def _metrics(args) -> _Report:
    img = fileio.load_image(args.image)
    m0 = fileio.load_subset(args.set0, img)
    m1 = fileio.load_subset(args.set1, img)
    h = metrics.hausdorff(img, m0, m1)
    d = metrics.metric_of_continuity(img, m0, m1)
    query = {"image": args.image, "set0": args.set0, "set1": args.set1}
    fields = {"hausdorff": h, "delta": d}
    return _Report(EXIT_HOLDS, query, fields, f"hausdorff={h} delta={d}")


def _export_dot(args) -> _Report:
    dot = fileio.to_dot(fileio.load_image(args.image))
    return _Report(EXIT_HOLDS, None, {"dot": dot}, None, lines=dot.splitlines())


COMMANDS = {
    "verify-limiting": lambda args: _verify(args, args.m, args.n),
    "verify-freezing": lambda args: _verify(args, 0, 0),
    "verify-cold": lambda args: _verify(args, 0, args.s),
    "find-minimal": _find_minimal,
    "profile": _profile,
    "classify-cycle-maps": _classify,
    "rigidity": _rigidity,
    "metrics": _metrics,
    "export-dot": _export_dot,
}


def _emit(args, r: _Report, started: float) -> int:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if args.json:
        report = {"schema": SCHEMA, "command": args.command}
        if r.query is not None:
            report["query"] = r.query
        report.update(r.fields)
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        if r.head is not None:
            stats = ", ".join(r.stats + [f"{elapsed_ms} ms"])
            print(f"{args.command}: {r.head} ({stats})")
        for line in r.lines:
            print(line)
    return r.code


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _ArgError("a command is required")
        started = time.perf_counter()
        return _emit(args, COMMANDS[args.command](args), started)
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
