"""Command-line front end.

Exit codes: 0 when the queried property holds, 1 when it fails (a witness
is reported), 2 when a budget ran out before a decision, 3 for input
errors.  With --json each command emits exactly one JSON object with a
"schema" field; identical invocations produce byte-identical output, so
timing is reported only in the human-readable form.

Each command is declared once, in COMMANDS, with the flags it takes from
_FLAGS; any other flag, an abbreviation of one included, is a usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, NamedTuple, Sequence

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


#: add_argument keywords of every flag.  Each dest is the key the flag has
#: in the JSON query; --s is the n of a (0, s)-limiting query.
_FLAGS = {
    "--image": dict(required=True),
    "--set": dict(required=True),
    "--set0": dict(required=True),
    "--set1": dict(required=True),
    "--m": dict(required=True, type=int),
    "--n": dict(required=True, type=int),
    "--s": dict(required=True, type=int, dest="n"),
    "--size-cap": dict(required=True, type=int),
    "--v": dict(required=True, type=int),
    "--minimal": dict(action="store_true", help="also require minimality"),
    "--budget-nodes": dict(type=_budget, default=maps.DEFAULT_NODE_BUDGET,
                           help="cap on attempted assignments, over all searches"),
    "--budget-maps": dict(type=_budget, default=maps.DEFAULT_MAX_VISITED,
                          help="cap on maps enumerated"),
    "--json": dict(action="store_true", help="emit one JSON report"),
    "--threads": dict(type=int, default=1,
                      help="accepted and ignored; searches run single-threaded"),
}

#: Flags that steer a command without entering its JSON query.
_CONTROLS = ("--budget-nodes", "--budget-maps", "--json", "--threads")


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


class _Report(NamedTuple):
    """What one command found.

    fields go into the JSON report after schema, command and query.  The
    first human line is the command, then head, then stats and the
    elapsed time in parentheses; lines follow it.  A head of None prints
    lines alone, with no timing line.
    """

    code: int
    fields: dict
    head: str | None
    stats: Sequence[str] = ()
    lines: Sequence[str] = ()


def _verify(args) -> _Report:
    img = fileio.load_image(args.image)
    subset = fileio.load_subset(args.set, img)
    check = limiting.is_minimal_limiting if args.minimal else limiting.is_limiting
    v = check(img, subset, args.m, args.n, node_budget=args.budget_nodes)
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
    code = {True: EXIT_HOLDS, False: EXIT_FAILS, None: EXIT_UNKNOWN}[v.holds]
    word = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[v.holds]
    return _Report(code, fields, word, [f"{v.nodes} nodes"], lines)


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
    state = "complete" if res.complete else "INCOMPLETE (budget)"
    return _Report(
        EXIT_HOLDS if res.complete else EXIT_UNKNOWN,
        {"sets": sets, "complete": res.complete, "nodes": res.nodes},
        f"{len(res.sets)} minimal sets, {state}",
        [f"{res.nodes} nodes", f"{res.searched} subsets searched",
         f"{res.skipped} skipped"],
        ["  {" + ", ".join(s["labels"]) + "}" for s in sets],
    )


def _profile(args) -> _Report:
    img = fileio.load_image(args.image)
    subset = fileio.load_subset(args.set, img)
    n = limiting.limiting_profile(img, subset, args.m, node_budget=args.budget_nodes)
    return _Report(EXIT_HOLDS, {"profile": n}, f"least n = {n} for m = {args.m}")


def _classify(args) -> _Report:
    img, _ = build_cycle(args.v)
    census = maps.cycle_map_census(img, max_maps=args.budget_maps)
    counts, unclassified, total = census.counts, census.unclassified, census.total
    lines = [f"  {kind}: {c}" for kind, c in counts.items()]
    if unclassified:
        lines.append(f"  UNCLASSIFIED: {unclassified}")
    return _Report(
        EXIT_HOLDS if unclassified == 0 else EXIT_FAILS,
        {"total": total, "counts": counts, "unclassified": unclassified},
        f"v={args.v}, {total} continuous self-maps",
        lines=lines,
    )


def _rigidity(args) -> _Report:
    # is_rigid and only_identity_is_1map answer the same question
    rigid = maps.is_rigid(fileio.load_image(args.image))
    return _Report(
        EXIT_HOLDS if rigid else EXIT_FAILS,
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
    return _Report(EXIT_HOLDS, {"hausdorff": h, "delta": d}, f"hausdorff={h} delta={d}")


def _export_dot(args) -> _Report:
    dot = fileio.to_dot(fileio.load_image(args.image))
    return _Report(EXIT_HOLDS, {"dot": dot}, None, lines=dot.splitlines())


class _Command(NamedTuple):
    """A command's handler, the flags it takes besides --json and
    --threads, and the query values it fixes.  Its JSON query echoes those
    values and every flag not in _CONTROLS; an echo of False leaves the
    query out."""

    handler: Callable[[argparse.Namespace], _Report]
    flags: str
    fixed: dict = {}
    echo: bool = True


COMMANDS = {
    "verify-limiting": _Command(_verify, "--image --set --m --n --minimal --budget-nodes"),
    "verify-freezing": _Command(
        _verify, "--image --set --minimal --budget-nodes", {"m": 0, "n": 0}
    ),
    "verify-cold": _Command(_verify, "--image --set --s --minimal --budget-nodes", {"m": 0}),
    "find-minimal": _Command(_find_minimal, "--image --m --n --size-cap --budget-nodes"),
    "profile": _Command(_profile, "--image --set --m --budget-nodes"),
    "classify-cycle-maps": _Command(_classify, "--v --budget-maps"),
    "rigidity": _Command(_rigidity, "--image"),
    "metrics": _Command(_metrics, "--image --set0 --set1"),
    "export-dot": _Command(_export_dot, "--image", echo=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from COMMANDS and
    _FLAGS; parsing leaves it unchanged, so every run() shares it.  Each
    subparser records the dests of its query as its query default."""
    parser = _Parser(
        prog="digtopo", description="digital image map analysis", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command")
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        query = list(cmd.fixed)
        for flag in cmd.flags.split() + ["--json", "--threads"]:
            action = p.add_argument(flag, **_FLAGS[flag])
            if flag not in _CONTROLS:
                query.append(action.dest)
        p.set_defaults(query=tuple(query) if cmd.echo else (), **cmd.fixed)
    return parser


def _emit(args, r: _Report, started: float) -> int:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if args.json:
        report = {"schema": SCHEMA, "command": args.command}
        if args.query:
            report["query"] = {key: getattr(args, key) for key in args.query}
        report.update(r.fields)
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        if r.head is not None:
            stats = ", ".join([*r.stats, f"{elapsed_ms} ms"])
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
        return _emit(args, COMMANDS[args.command].handler(args), started)
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
