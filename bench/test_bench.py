"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import checks
import run
import spans
import workloads

run._import_digtopo()
from digtopo import cli  # noqa: E402

SEED = 12345  # not the default seed, so no pinned digest hides a failure

with open(run.PINS, encoding="utf-8") as _fh:
    PINS = json.load(_fh)


def _requests(workload: str, tmp_path, keep):
    inputs, requests = workloads.generate(workload, SEED, str(tmp_path / workload))
    workloads.write_inputs(str(tmp_path / workload), inputs, requests)
    graphs = {k: checks.graph_of(s) for k, s in inputs["images"].items()}
    return [r for r in requests if keep(r)], graphs


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(1, 101), 90) == (90, 10)
    assert run.percentile(range(1, 21), 50) == (10, 10)
    with pytest.raises(ValueError):
        run.percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        run.percentile(range(1, 20), 50)


def test_census_closed_form():
    assert [checks.census_total(v) for v in (6, 10, 11)] == [858, 89550, 282205]


class _Corrupt:
    """Stands in for digtopo.cli: passes every request through, except
    that the target request's report is rewritten by corrupt(report), which
    returns the new exit code."""

    def __init__(self, target: list[str], corrupt):
        self.target, self.corrupt = target, corrupt

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        rep = json.loads(out.getvalue())
        if argv == self.target:
            code = self.corrupt(rep)
        print(json.dumps(rep, sort_keys=True, separators=(",", ":")))
        return code


def _flip_witness_entry(g: checks.Graph):
    """Moves one witness table entry to the vertex farthest from the true
    value and rewrites the move list to match, so only the independent
    checks can notice."""

    def corrupt(rep):
        t = rep["witness"]["table"]
        t[0] = max(range(g.n), key=lambda v: g.dist[t[0]][v])
        rep["witness"]["moves"] = [[g.labels[x], g.labels[v]] for x, v in enumerate(t) if x != v]
        return 1

    return corrupt


def _claim_holds(rep):
    """Turns a failed verdict into a held one, as a search that prunes a
    witness away would report it."""
    rep["holds"], rep["witness"] = True, None
    return 0


def test_corrupted_witness_raises_fail_frac(tmp_path):
    requests, graphs = _requests(
        "verdicts", tmp_path, lambda r: r["kind"] in ("freezing", "limiting", "cold")
    )
    clean = run.run_pass(cli, requests)
    assert run.judge(requests, [clean], graphs, PINS, None) == (0, [], 0)
    target = next(
        req for req, (code, _) in zip(requests, clean.results)
        if code == 1 and graphs[req["image"]].diameter >= 3
    )
    corrupt = _Corrupt(target["argv"], _flip_witness_entry(graphs[target["image"]]))
    failed, problems, _ = run.judge(requests, [run.run_pass(corrupt, requests)], graphs, PINS, None)
    assert failed == 1
    assert "not continuous" in problems[0]


def test_wrong_holds_verdict_raises_fail_frac(tmp_path):
    requests, graphs = _requests(
        "verdicts", tmp_path, lambda r: r["kind"] in ("freezing", "limiting", "cold")
    )
    clean = run.run_pass(cli, requests)
    targets = [req for req, (code, _) in zip(requests, clean.results) if code == 1]
    assert len(targets) >= 5
    for target in targets[:5]:
        bad = run.run_pass(_Corrupt(target["argv"], _claim_holds), requests)
        failed, problems, _ = run.judge(requests, [bad], graphs, PINS, None)
        assert failed == 1
        assert "limiting, but the map" in problems[0]


def test_wrong_find_minimal_answer_raises_fail_frac(tmp_path):
    requests, graphs = _requests("minimal_sets", tmp_path, lambda r: r["image"] == "box4x4c1_00")
    assert PINS["minimal_sets_families"]["box4x4c1_00"] == [[0, 3, 12, 15]]

    def drop_sets(rep):  # well formed, ordered and an antichain, but wrong
        rep["sets"] = []
        return 0

    bad = run.run_pass(_Corrupt(requests[0]["argv"], drop_sets), requests)
    failed, problems, _ = run.judge(requests, [bad], graphs, PINS, None)
    assert failed == 1
    assert "pinned answer" in problems[0]


def _digtopo_attributes():
    import digtopo.image
    import digtopo.maps

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "digtopo" or name.startswith("digtopo."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (digtopo.image.DigitalImage, digtopo.maps.MapTable):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_attribute_and_changes_no_output(tmp_path):
    verdicts, graphs = _requests("verdicts", tmp_path, lambda r: True)
    minimal, mgraphs = _requests("minimal_sets", tmp_path, lambda r: r["image"] == "box5x3c1_01")
    census, _ = _requests("census", tmp_path, lambda r: r["v"] == 6)
    requests = verdicts[:60] + minimal + census
    graphs.update(mgraphs)
    before = _digtopo_attributes()

    plain = run.run_pass(cli, requests)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer.patched) > len(spans.TARGETS)  # re-exports are wrapped too
        assert all(before[(owner.__name__, a)] is not getattr(owner, a)
                   for owner, a, _ in tracer.patched)
        traced = run.run_pass(cli, requests, tracer)
    finally:
        tracer.restore()

    after = _digtopo_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced.results == plain.results
    assert run.judge(requests, [plain, traced], graphs, PINS, None) == (0, [], 0)
    summary = tracer.summary()
    assert summary["cli.run"]["calls"] == len(requests)
    assert summary["maps.enum"]["calls"] == checks.census_total(6) + 1  # + the final stop
    assert tracer.counters["enum.maps"] == checks.census_total(6)
