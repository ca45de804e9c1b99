"""JSON file formats for images, subsets, and maps, plus DOT export.

Image files are one JSON object.  Grid constructors:

    {"constructor": "box", "intervals": [[0,2],[0,2]], "adjacency": "c1"}
    {"constructor": "cycle", "v": 8}
    {"constructor": "explicit", "n": 5, "edges": [[0,1],[1,2]]}
    {"constructor": "product", "u": 2, "factors": [<image>, <image>]}
    {"dim": 2, "adjacency": "c2", "points": [[0,0],[0,1]]}

Subset files hold {"points": [...]} or {"indices": [...]}.  Map files hold
{"table": [...]} where entries are either codomain indices in domain order
or [input, output] pairs (points for grid images, indices otherwise).
"""

from __future__ import annotations

import json
import os
import re

from .errors import DigitalTopologyError, InputFileError
from .image import (
    DigitalImage,
    SubsetMask,
    build_box,
    build_cycle,
    build_explicit,
    build_from_points,
    mask_from_indices,
    mask_from_points,
    product,
)
from .maps import MapTable

_ADJ_RE = re.compile(r"^c(\d+)$")

#: The most bytes an input file may hold.  The edge list of every pair of
#: 4096 vertices, the point budget, takes about 108 MiB.
_MAX_FILE_BYTES = 1 << 27

#: What malformed values raise inside the constructors: wrong types, bad
#: literals and shapes, and non-finite numbers such as 1e400.
_MALFORMED = (TypeError, ValueError, OverflowError)


def _ints(value, field: str, source: str):
    """The value, once every number, string, boolean or null in it, at any
    list depth, is a JSON integer; objects are left to the constructors,
    which name a wrong shape.  Python's int() would truncate 2.5 and read
    "3" or true, so the file is refused instead."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):  # plain ints need no visit; bools are pushed
            stack.extend(x for x in reversed(v) if type(x) is not int)
        elif not isinstance(v, dict) and (isinstance(v, bool) or not isinstance(v, int)):
            raise InputFileError(
                f"{source}: field {field!r} holds {json.dumps(v)[:40]}, which is no integer"
            )
    return value


def _parse_u(value, source: str) -> int:
    if not isinstance(value, str):
        raise InputFileError(f"{source}: field 'adjacency' must be a string like 'c1'")
    m = _ADJ_RE.match(value)
    if not m:
        raise InputFileError(f"{source}: field 'adjacency' must match 'c<u>', got {value!r}")
    return int(m.group(1))


def image_from_spec(data: dict, *, source: str = "<image>") -> DigitalImage:
    """Build an image from its file form; errors name the offending field."""
    if not isinstance(data, dict):
        raise InputFileError(f"{source}: image description must be a JSON object")
    try:
        ctor = data.get("constructor")
        if ctor == "box":
            intervals = _ints(data["intervals"], "intervals", source)
            return build_box(intervals, _parse_u(data["adjacency"], source))
        if ctor == "cycle":
            img, _ = build_cycle(int(_ints(data["v"], "v", source)))
            return img
        if ctor == "explicit":
            n = int(_ints(data["n"], "n", source))
            return build_explicit(n, _ints(data["edges"], "edges", source))
        if ctor == "product":
            factors = [
                image_from_spec(f, source=f"{source}.factors[{i}]")
                for i, f in enumerate(data["factors"])
            ]
            return product(factors, int(_ints(data["u"], "u", source)))
        if ctor is None and "points" in data:
            dim = int(_ints(data["dim"], "dim", source)) if "dim" in data else None
            return build_from_points(
                _ints(data["points"], "points", source),
                _parse_u(data["adjacency"], source),
                dim=dim,
            )
    except KeyError as exc:
        raise InputFileError(f"{source}: missing field {exc.args[0]!r}") from exc
    except _MALFORMED as exc:
        raise InputFileError(f"{source}: {exc}") from exc
    raise InputFileError(
        f"{source}: field 'constructor' must be box, cycle, explicit, or product, "
        "or the object must carry 'points'"
    )


def subset_from_spec(data: dict, img: DigitalImage, *, source: str = "<subset>") -> SubsetMask:
    if not isinstance(data, dict):
        raise InputFileError(f"{source}: subset description must be a JSON object")
    try:
        if "points" in data:
            return mask_from_points(img, _ints(data["points"], "points", source))
        if "indices" in data:
            indices = [int(i) for i in _ints(data["indices"], "indices", source)]
            if any(not 0 <= i < img.n for i in indices):
                raise InputFileError(f"{source}: field 'indices' out of vertex range")
            return mask_from_indices(indices)
    except InputFileError:
        raise
    except _MALFORMED as exc:
        raise InputFileError(f"{source}: {exc}") from exc
    except DigitalTopologyError as exc:
        raise InputFileError(f"{source}: {exc}") from exc
    raise InputFileError(f"{source}: subset needs a 'points' or 'indices' field")


def map_from_spec(
    data: dict,
    dom: DigitalImage,
    cod: DigitalImage | None = None,
    *,
    source: str = "<map>",
) -> MapTable:
    if cod is None:
        cod = dom
    if not isinstance(data, dict) or "table" not in data:
        raise InputFileError(f"{source}: map needs a 'table' field")
    entries = _ints(data["table"], "table", source)
    if not isinstance(entries, list):
        raise InputFileError(f"{source}: field 'table' must be a list")
    try:
        if all(isinstance(e, int) for e in entries):
            return MapTable(dom, cod, entries)
        table = [None] * dom.n
        for e in entries:
            src, dst = e
            i = _vertex_of(dom, src, source)
            if table[i] is not None:
                raise InputFileError(
                    f"{source}: vertex {dom.vertex_label(i)} is listed twice in field 'table'"
                )
            table[i] = _vertex_of(cod, dst, source)
        if any(v is None for v in table):
            raise InputFileError(f"{source}: field 'table' does not cover the domain")
        return MapTable(dom, cod, table)
    except _MALFORMED as exc:
        raise InputFileError(f"{source}: {exc}") from exc


def _vertex_of(img: DigitalImage, value, source: str) -> int:
    if isinstance(value, int):
        if not 0 <= value < img.n:
            raise InputFileError(f"{source}: vertex index {value} out of range")
        return value
    if img.point_index is None:
        raise InputFileError(f"{source}: point-valued entries need a grid image")
    key = tuple(int(c) for c in value)
    if key not in img.point_index:
        raise InputFileError(f"{source}: point {list(key)} is not a vertex")
    return img.point_index[key]


def map_to_spec(f: MapTable) -> dict:
    return {"table": list(f.table)}


def load_image(path: str) -> DigitalImage:
    return image_from_spec(_load_json(path), source=path)


def load_subset(path: str, img: DigitalImage) -> SubsetMask:
    return subset_from_spec(_load_json(path), img, source=path)


def load_map(path: str, dom: DigitalImage, cod: DigitalImage | None = None) -> MapTable:
    return map_from_spec(_load_json(path), dom, cod, source=path)


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            # a regular file is read at its own size, so that a small one
            # allocates no cap-sized buffer; a pipe or device reports size 0
            size = os.fstat(fh.fileno()).st_size
            raw = fh.read(min(size or _MAX_FILE_BYTES, _MAX_FILE_BYTES) + 1)
        if len(raw) > _MAX_FILE_BYTES:
            raise InputFileError(f"{path}: file is larger than {_MAX_FILE_BYTES} bytes")
        return json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON or bytes, or an integer too long to read
        raise InputFileError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InputFileError(f"{path}: JSON nested too deeply") from exc


# -- DOT export ------------------------------------------------------------


def to_dot(img: DigitalImage) -> str:
    """Undirected DOT graph; vertex labels are coordinates for grid images
    and indices otherwise.  Output is deterministic."""
    lines = ["graph digital_image {"]
    for i in range(img.n):
        lines.append(f'  "{img.vertex_label(i)}";')
    for i, j in img.edge_list():
        lines.append(f'  "{img.vertex_label(i)}" -- "{img.vertex_label(j)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_EDGE_RE = re.compile(r'^\s*"([^"]+)"\s*--\s*"([^"]+)"\s*;\s*$')
_DOT_NODE_RE = re.compile(r'^\s*"([^"]+)"\s*;\s*$')


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Labels and edges of a DOT graph in the shape produced by to_dot."""
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for line in text.splitlines():
        me = _DOT_EDGE_RE.match(line)
        if me:
            edges.append((me.group(1), me.group(2)))
            continue
        mn = _DOT_NODE_RE.match(line)
        if mn:
            labels.append(mn.group(1))
    return labels, edges
