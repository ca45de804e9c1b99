"""Contracts of the result records: fields, defaults, immutability, and
the validation every MapTable goes through however the public API builds
it."""

from __future__ import annotations

import pickle

import pytest

from digtopo.cli import _Report
from digtopo.image import AdjacencyKind, build_cycle
from digtopo.limiting import FactorReport, LimitingVerdict, MinimalSetResult
from digtopo.maps import CycleMapClass, MapTable, SearchOutcome


@pytest.fixture
def c4():
    return build_cycle(4)[0]


RECORDS = {
    AdjacencyKind: ("kind", "u", "factors"),
    MapTable: ("domain", "codomain", "table"),
    SearchOutcome: ("status", "witness", "nodes"),
    CycleMapClass: ("kind", "d"),
    LimitingVerdict: ("holds", "witness", "nodes", "subset_witness"),
    MinimalSetResult: ("sets", "complete", "nodes", "searched", "skipped"),
    FactorReport: ("product", "factors"),
    _Report: ("code", "fields", "head", "stats", "lines"),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_keep_their_names_and_order(cls):
    assert cls._fields == RECORDS[cls]


def test_defaults():
    tag = AdjacencyKind("explicit")
    assert (tag.u, tag.factors) == (None, None)
    assert CycleMapClass("nonsurjective").d is None
    assert LimitingVerdict(True, None, 3).subset_witness is None
    r = MinimalSetResult([], True, 0)
    assert (r.searched, r.skipped) == (0, 0)


def test_reports_share_no_mutable_default():
    a, b = _Report(0, {}, "a"), _Report(0, {}, None)
    for r in (a, b):
        assert (r.stats, r.lines) == ((), ())
    # a list default would be one object shared by every report
    for default in _Report._field_defaults.values():
        hash(default)


BAD_TABLES = [(0, 1, 2), (0, 1, 2, -1), (0, 1, 2, 4), (0.5, 1, 2, 3), [0, 1, 2, 4]]


@pytest.mark.parametrize(
    "bad", BAD_TABLES, ids=["short", "negative", "past-the-end", "float", "list-past-the-end"]
)
def test_map_table_validates_however_built(c4, bad):
    good = MapTable(c4, c4, (0, 1, 2, 3))
    builders = [
        lambda: MapTable(c4, c4, bad),
        lambda: MapTable(domain=c4, codomain=c4, table=bad),
        lambda: MapTable._make((c4, c4, bad)),
        lambda: good._replace(table=bad),
        # an invalid tuple smuggled past the constructor fails on load
        lambda: pickle.loads(pickle.dumps(tuple.__new__(MapTable, (c4, c4, bad)))),
    ]
    for build in builders:
        with pytest.raises(ValueError):
            build()


def test_map_table_round_trips(c4):
    f = MapTable(c4, c4, (1, 2, 3, 0))
    assert pickle.loads(pickle.dumps(f)) == f
    assert MapTable._make(f) == f
    assert f._replace(table=(0, 0, 0, 0)).table == (0, 0, 0, 0)
    with pytest.raises(TypeError):
        MapTable._make((c4, c4))
    # a list table is stored as a tuple, so the map hashes and sets hold it
    listed = [
        MapTable(c4, c4, [1, 2, 3, 0]),
        MapTable._make((c4, c4, [1, 2, 3, 0])),
        f._replace(table=[1, 2, 3, 0]),
        pickle.loads(pickle.dumps(tuple.__new__(MapTable, (c4, c4, [1, 2, 3, 0])))),
    ]
    for g in listed:
        assert type(g.table) is tuple and g == f and hash(g) == hash(f)
    assert len({f, *listed}) == 1


def test_map_table_is_immutable(c4):
    f = MapTable(c4, c4, (1, 2, 3, 0))
    for name in ("domain", "codomain", "table", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, (0, 0, 0, 0))
    assert f.table == (1, 2, 3, 0)


def test_equal_maps_are_equal_and_hash_alike(c4):
    f = MapTable(c4, c4, (1, 2, 3, 0))
    g = MapTable(build_cycle(4)[0], build_cycle(4)[0], (1, 2, 3, 0))
    assert f == g and hash(f) == hash(g)
    assert f != MapTable(c4, c4, (0, 1, 2, 3))
    assert repr(f) == f"MapTable(domain={c4!r}, codomain={c4!r}, table=(1, 2, 3, 0))"
