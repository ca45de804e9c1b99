"""JSON image/subset/map formats and DOT export."""

from __future__ import annotations

import pytest

from digtopo.errors import InputFileError
from digtopo.fileio import (
    image_from_spec,
    load_image,
    load_map,
    load_subset,
    map_from_spec,
    map_to_spec,
    parse_dot,
    subset_from_spec,
    to_dot,
)
from digtopo.image import build_box, build_cycle, mask_from_points
from digtopo.maps import identity, is_continuous


def test_image_box_form():
    img = image_from_spec(
        {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c2"}
    )
    assert img == build_box([(0, 2), (0, 2)], 2)


def test_image_cycle_form():
    img = image_from_spec({"constructor": "cycle", "v": 8})
    assert img == build_cycle(8)[0]


def test_image_explicit_form():
    img = image_from_spec({"constructor": "explicit", "n": 3, "edges": [[0, 1], [1, 2]]})
    assert img.n == 3
    assert img.edge_list() == [(0, 1), (1, 2)]


def test_image_points_form():
    img = image_from_spec(
        {"adjacency": "c1", "points": [[0, 0], [0, 1], [1, 1]]}
    )
    assert img.n == 3
    assert img.adjacency.label() == "c1"


def test_image_product_form():
    img = image_from_spec(
        {
            "constructor": "product",
            "u": 2,
            "factors": [
                {"constructor": "box", "intervals": [[0, 1]], "adjacency": "c1"},
                {"constructor": "box", "intervals": [[0, 2]], "adjacency": "c1"},
            ],
        }
    )
    assert img.n == 6
    assert img.factors is not None


def test_image_errors_name_source_and_field():
    with pytest.raises(InputFileError, match="<image>.*adjacency"):
        image_from_spec({"constructor": "box", "intervals": [[0, 1]], "adjacency": "k9"})
    with pytest.raises(InputFileError, match="missing field"):
        image_from_spec({"constructor": "box", "adjacency": "c1"})
    with pytest.raises(InputFileError, match="constructor"):
        image_from_spec({"constructor": "pyramid"})
    with pytest.raises(InputFileError, match="custom.json"):
        image_from_spec({"constructor": "pyramid"}, source="custom.json")


def test_subset_forms(path3):
    assert subset_from_spec({"points": [[0], [2]]}, path3) == 0b101
    assert subset_from_spec({"indices": [0, 2]}, path3) == 0b101
    with pytest.raises(InputFileError, match="indices"):
        subset_from_spec({"indices": [7]}, path3)
    with pytest.raises(InputFileError):
        subset_from_spec({"something": []}, path3)


def test_map_forms(path3):
    f = map_from_spec({"table": [0, 1, 2]}, path3)
    assert f.is_identity()
    g = map_from_spec({"table": [[[0], [2]], [[1], [1]], [[2], [0]]]}, path3)
    assert g.table == (2, 1, 0)
    assert is_continuous(g)
    with pytest.raises(InputFileError):
        map_from_spec({"table": [0, 1]}, path3)
    with pytest.raises(InputFileError):
        map_from_spec({}, path3)


def test_map_index_pairs(path3):
    """Pairs of vertex indices load on an abstract image; a source listed
    twice, in either form, an index out of range and a table that misses a
    vertex are refused."""
    c4, _ = build_cycle(4)
    assert map_from_spec({"table": [[0, 1], [1, 2], [3, 0], [2, 3]]}, c4).table == (1, 2, 3, 0)
    refused = {
        "vertex 0 is listed twice": ([[0, 1], [0, 2], [1, 1], [2, 2], [3, 3]], c4),
        r"vertex \(0\) is listed twice": ([[[0], [2]], [[0], [1]], [[1], [1]], [[2], [0]]], path3),
        "index 4 out of range": ([[0, 4], [1, 1], [2, 2], [3, 3]], c4),
        "index -1 out of range": ([[-1, 0], [1, 1], [2, 2], [3, 3]], c4),
        "does not cover": ([[0, 1], [1, 2], [2, 3]], c4),
    }
    for message, (table, img) in refused.items():
        with pytest.raises(InputFileError, match=message):
            map_from_spec({"table": table}, img)


def test_map_round_trip(path3):
    f = identity(path3)
    spec = map_to_spec(f)
    assert map_from_spec(spec, path3).table == f.table


def test_load_functions(tmp_path, write_json):
    img_path = write_json(
        "img.json", {"constructor": "box", "intervals": [[0, 2]], "adjacency": "c1"}
    )
    img = load_image(img_path)
    assert img.n == 3
    sub_path = write_json("sub.json", {"points": [[0]]})
    assert load_subset(sub_path, img) == 0b001
    map_path = write_json("map.json", {"table": [0, 0, 1]})
    assert load_map(map_path, img).table == (0, 0, 1)
    with pytest.raises(InputFileError, match="missing.json"):
        load_image(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFileError):
        load_image(str(bad))


def test_dot_round_trip(square_c2, path3, cycle8):
    for img in (square_c2, path3, cycle8):
        labels, edges = parse_dot(to_dot(img))
        assert labels == [img.vertex_label(i) for i in range(img.n)]
        want = {
            (img.vertex_label(a), img.vertex_label(b)) for a, b in img.edge_list()
        }
        assert {tuple(e) for e in edges} == want


def test_dot_labels(square_c1):
    text = to_dot(square_c1)
    assert '"(0,0)"' in text
    assert "--" in text
