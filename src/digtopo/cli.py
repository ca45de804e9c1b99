"""Command-line front end.

Exit codes: 0 when the queried property holds, 1 when it fails (a witness
is reported), 2 when a budget ran out before a decision, 3 for input
errors and for a report that stdout could not take.  With --json each
command emits exactly one JSON object with a "schema" field; identical
invocations produce byte-identical output, so timing is reported only in
the human-readable form.

Each command is declared once, in COMMANDS, with the flags it takes from
_FLAGS; _parse reads both.  Any other flag, an abbreviation of one
included, is a usage error.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace
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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _budget(text: str) -> int:
    """A budget argument: a nonnegative integer."""
    value = _int(text)
    if value < 0:
        raise ValueError(f"budget must be nonnegative, got {value}")
    return value


#: (dest, reader, default) of every flag.  Each dest is the key the flag has
#: in the JSON query; --s is the n of a (0, s)-limiting query.  A switch has
#: no reader and takes no value; a flag with no default is required.
_FLAGS = {
    "--image": ("image", str, None),
    "--set": ("set", str, None),
    "--set0": ("set0", str, None),
    "--set1": ("set1", str, None),
    "--m": ("m", _int, None),
    "--n": ("n", _int, None),
    "--s": ("n", _int, None),
    "--size-cap": ("size_cap", _int, None),
    "--v": ("v", _int, None),
    "--minimal": ("minimal", None, False),
    "--budget-nodes": ("budget_nodes", _budget, maps.DEFAULT_NODE_BUDGET),
    "--budget-maps": ("budget_maps", _budget, maps.DEFAULT_MAX_VISITED),
    "--json": ("json", None, False),
    "--threads": ("threads", _int, 1),  # accepted and ignored
}

#: Namespace keys kept out of the JSON query: the command and its controls.
_CONTROLS = ("command", "budget_nodes", "budget_maps", "json", "threads")


def _witness_json(f: MapTable) -> dict:
    """A witness self-map's table and the vertices it moves, as labels."""
    label = f.domain.vertex_label
    moves = [[label(i), label(v)] for i, v in enumerate(f.table) if i != v]
    return {"table": list(f.table), "moves": moves}


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
        lines = ["witness:"] + [f"  {a} -> {b}" for a, b in fields["witness"]["moves"]]
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
    values and every flag it takes but the _CONTROLS; an echo of False
    leaves the query out."""

    handler: Callable[[SimpleNamespace], _Report]
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


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The command named first, its fixed values, and each flag's value or
    default under its dest; None once -h or --help printed the usage.  A
    usage error raises ValueError in argparse's words: a bad value where
    it is met, then missing required flags, then unknown tokens."""
    if not argv:
        raise ValueError("a command is required")
    if "-h" in argv or "--help" in argv:
        for name in argv[:1] if argv[0] in COMMANDS else COMMANDS:
            flags = COMMANDS[name].flags.split() + ["--json", "--threads"]
            words = [flag if _FLAGS[flag][2] is None else f"[{flag}]" for flag in flags]
            print("usage: digtopo", name, *words)
        return None
    if argv[0] not in COMMANDS:
        raise ValueError(f"invalid command {argv[0]!r} (choose from {', '.join(COMMANDS)})")
    taken = COMMANDS[argv[0]].flags.split() + ["--json", "--threads"]
    args = SimpleNamespace(command=argv[0], **COMMANDS[argv[0]].fixed)
    vars(args).update((_FLAGS[flag][0], _FLAGS[flag][2]) for flag in taken)
    unknown = []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in taken or eq and _FLAGS[flag][1] is None:  # a switch takes no value
            unknown.append(token)
            continue
        dest, reader, _ = _FLAGS[flag]
        if reader is not None and not eq:
            value = next(tokens, None)  # a negative int, but no other flag, is a value
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                raise ValueError(f"argument {flag}: expected one argument")
        try:
            setattr(args, dest, True if reader is None else reader(value))
        except ValueError as exc:
            raise ValueError(f"argument {flag}: {exc}") from None
    missing = [flag for flag in taken if getattr(args, _FLAGS[flag][0]) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _emit(args, r: _Report, started: float) -> int:
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if args.json:
        report = {"schema": SCHEMA, "command": args.command}
        if COMMANDS[args.command].echo:
            report["query"] = {k: v for k, v in vars(args).items() if k not in _CONTROLS}
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
    try:
        args = _parse(argv)
        if args is None:
            return 0
        started = time.perf_counter()
        return _emit(args, COMMANDS[args.command].handler(args), started)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (DigitalTopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left, so the report was lost: that is no verdict.  The
        # interpreter flushes stdout again at exit, so it goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
