"""Malformed image and subset files end in exit code 3, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from digtopo import fileio
from digtopo.cli import run

#: JSON literals that no integer field accepts: non-finite or overflowing
#: numbers, NaN, values of the wrong type, and values int() would truncate
#: or read as a number: a fraction, a numeric string and a boolean.
BAD_INT = st.sampled_from(
    ["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "null", '"x"', "[]", "{}", "[1]",
     "2.5", '"3"', "true"]
)

#: Image files with one integer field replaced by a BAD_INT literal.
IMAGE_TEMPLATES = (
    '{"constructor":"box","intervals":[[0,%s]],"adjacency":"c1"}',
    '{"constructor":"box","intervals":[[0,1],[%s,2]],"adjacency":"c2"}',
    '{"constructor":"cycle","v":%s}',
    '{"constructor":"explicit","n":%s,"edges":[[0,1]]}',
    '{"constructor":"explicit","n":3,"edges":[[0,1],[1,%s]]}',
    '{"constructor":"product","u":%s,"factors":[{"constructor":"cycle","v":4}]}',
    '{"constructor":"product","u":1,"factors":[{"constructor":"cycle","v":%s}]}',
    '{"dim":%s,"adjacency":"c1","points":[[0,0],[0,1]]}',
    '{"adjacency":"c1","points":[[0,0],[0,%s]]}',
)

#: One well-formed file of each constructor, with the fields it needs.
VALID_IMAGES = (
    ({"constructor": "box", "intervals": [[0, 1], [0, 2]], "adjacency": "c1"},
     ("intervals", "adjacency")),
    ({"constructor": "cycle", "v": 5}, ("v",)),
    ({"constructor": "explicit", "n": 3, "edges": [[0, 1], [1, 2]]}, ("n", "edges")),
    ({"constructor": "product", "u": 1, "factors": [{"constructor": "cycle", "v": 4}]},
     ("u", "factors")),
    ({"adjacency": "c2", "points": [[0, 0], [1, 1]]}, ("adjacency", "points")),
)

_ADJ_RE = re.compile(r"^c(\d+)$")

#: The subset files are read against this 3x3 box.
BOX3 = {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c1"}

SUBSET_TEMPLATES = (
    '{"indices":[0,%s]}',
    '{"points":[[0,0],[%s,1]]}',
    '{"points":[[0,%s]]}',
)

small = st.integers(-3, 6)


def _not_json_object(text: str) -> bool:
    try:
        return not isinstance(json.loads(text), dict)
    except ValueError:
        return True


@st.composite
def bad_edges(draw) -> str:
    """An explicit image whose edge list holds one edge that is too short,
    a self-loop, or out of range."""
    n = draw(st.integers(2, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]).map(list), max_size=4))
    a = draw(st.integers(0, n - 1))
    bad = draw(st.sampled_from([
        [], [a], [a, a], [a, n + draw(st.integers(0, 3))], [a, -1 - draw(st.integers(0, 3))],
    ]))
    edges.insert(draw(st.integers(0, len(edges))), bad)
    return json.dumps({"constructor": "explicit", "n": n, "edges": edges})


@st.composite
def missing_field(draw) -> str:
    spec, required = draw(st.sampled_from(VALID_IMAGES))
    spec = dict(spec)
    del spec[draw(st.sampled_from(required))]
    return json.dumps(spec)


@st.composite
def bad_adjacency(draw) -> str:
    spec = dict(VALID_IMAGES[0][0])
    label = draw(st.one_of(
        st.text(max_size=4).filter(lambda s: not _ADJ_RE.match(s)),
        st.sampled_from(["c0", "c3", "c17"]),
        st.integers(0, 3),
    ))
    spec["adjacency"] = label
    return json.dumps(spec)


@st.composite
def bad_constructor(draw) -> str:
    name = draw(st.one_of(
        st.text(max_size=6).filter(lambda s: s not in ("box", "cycle", "explicit", "product")),
        st.integers(), st.none(),
    ))
    return json.dumps({"constructor": name, "v": 5, "n": 2, "edges": []})


json_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)

not_an_object = st.one_of(
    json_junk.map(json.dumps),
    st.text(max_size=12).filter(_not_json_object),
)

malformed_images = st.one_of(
    st.builds(lambda t, v: t % v, st.sampled_from(IMAGE_TEMPLATES), BAD_INT),
    bad_edges(),
    missing_field(),
    bad_adjacency(),
    bad_constructor(),
    not_an_object,
)

malformed_subsets = st.one_of(
    st.builds(lambda t, v: t % v, st.sampled_from(SUBSET_TEMPLATES), BAD_INT),
    st.builds(lambda i: json.dumps({"indices": [i]}), st.integers(9, 40) | st.integers(-9, -1)),
    st.builds(
        lambda p: json.dumps({"points": [list(p)]}),
        st.tuples(small, small).filter(lambda p: not (0 <= p[0] <= 2 and 0 <= p[1] <= 2))
        | st.tuples(small) | st.tuples(small, small, small),
    ),
    st.dictionaries(st.text(max_size=4).filter(lambda k: k not in ("points", "indices")),
                    json_junk, max_size=3).map(json.dumps),
    not_an_object,
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    image = root / "box3.json"
    image.write_text(json.dumps(BOX3))
    subset = root / "corner.json"
    subset.write_text(json.dumps({"indices": [0]}))
    return root, str(image), str(subset)


@given(text=malformed_images)
@example(text='{"constructor":"box","intervals":[[0,1e400]],"adjacency":"c1"}')
@example(text='{"constructor":"cycle","v":1e400}')
@example(text='{"constructor":"explicit","n":2,"edges":[[0]]}')
@settings(max_examples=150, deadline=None)
def test_malformed_image_exits_3(files, text):
    root, _, subset = files
    path = root / "image.json"
    path.write_text(text)
    code, out, err = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert code == 3, (text, out, err)
    assert out == ""
    assert err.startswith("error: ")


@given(text=malformed_subsets)
@settings(max_examples=100, deadline=None)
def test_malformed_subset_exits_3(files, text):
    root, image, _ = files
    path = root / "subset.json"
    path.write_text(text)
    code, out, err = _run(["verify-freezing", "--image", image, "--set", str(path)])
    assert code == 3, (text, out, err)
    assert out == ""
    assert err.startswith("error: ")


def test_integer_too_long_to_read_names_the_file(files):
    root, _, subset = files
    path = root / "long_int.json"
    path.write_text('{"constructor":"cycle","v":1' + "0" * 5000 + "}")
    code, out, err = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert code == 3 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON")


@pytest.mark.parametrize("spec", [
    {"constructor": "explicit", "n": 3, "edges": [{"a": 1, "b": 2}]},
    {"constructor": "box", "intervals": [{"a": 1, "b": 2}], "adjacency": "c1"},
])
def test_pair_given_as_object_is_named(files, spec):
    root, _, subset = files
    path = root / "object_pair.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert code == 3, err
    assert out == ""
    assert "must be a pair" in err and "missing field" not in err


def test_file_past_the_byte_cap_is_refused(files, monkeypatch):
    root, _, subset = files
    text = '{"constructor":"cycle","v":8}'
    monkeypatch.setattr(fileio, "_MAX_FILE_BYTES", len(text))
    path = root / "capped.json"
    path.write_text(text)
    code, out, _ = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert code == 1 and out
    path.write_text(text + " ")
    code, out, err = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert (code, out) == (3, "")
    assert err == f"error: {path}: file is larger than {len(text)} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_file_is_refused(files):
    _, _, subset = files
    code, out, err = _run(["verify-freezing", "--image", "/dev/zero", "--set", subset])
    assert (code, out) == (3, "")
    assert err.startswith("error: /dev/zero: file is larger than")


@pytest.mark.parametrize("spec", [
    {"constructor": "box", "intervals": [[0, 0]] * 10_000, "adjacency": "c10000"},
    {"constructor": "box", "intervals": [[0, 0]] * 20_000, "adjacency": "c20000"},
    {"adjacency": "c1", "points": [[0] * 1_000_000]},
    {"constructor": "product", "u": 1,
     "factors": [{"constructor": "cycle", "v": 4}] * 65},
    {"constructor": "product", "u": 1,
     "factors": [{"constructor": "box", "intervals": [[0, 0]] * 40, "adjacency": "c1"}] * 2},
], ids=["box-10000", "box-20000", "points-1000000", "product-65", "product-80-coords"])
def test_too_many_axes_are_refused_quickly(files, spec):
    """A small file must not demand work in proportion to its axis count
    times its adjacency's u; like the point budget, the axis cap exits 2."""
    root, _, subset = files
    path = root / "axes.json"
    path.write_text(json.dumps(spec))
    started = time.perf_counter()
    code, out, err = _run(["verify-freezing", "--image", str(path), "--set", subset])
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("unknown: ") and err.endswith("has more than 64 axes\n")
