"""Golden CLI output: the exact --json bytes and exit code of every command,
and its human output with the millisecond timings masked.

The input files describe the conftest fixtures and are read through
relative paths, so the query echoed in each report is the same on every
machine.
"""

from __future__ import annotations

import json
import re

import pytest

from digtopo import fileio
from digtopo.cli import run

FILES = {
    "sq1.json": {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c1"},
    "sq2.json": {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c2"},
    "c8.json": {"constructor": "cycle", "v": 8},
    "tree.json": {"points": [[0, 0], [1, 0], [2, 0], [1, 1]], "adjacency": "c1"},
    "point.json": {"constructor": "box", "intervals": [[0, 0]], "adjacency": "c1"},
    "corners.json": {"points": [[0, 0], [0, 2], [2, 0], [2, 2]]},
    "full.json": {"points": [[x, y] for x in range(3) for y in range(3)]},
    "row.json": {"points": [[x, 0] for x in range(3)]},
    "c8_035.json": {"indices": [0, 3, 5]},
    "c8_0356.json": {"indices": [0, 3, 5, 6]},
    "leaves.json": {"indices": [0, 2, 3]},
}

CASES = {
    "limiting-holds": ["verify-limiting", "--image", "sq2.json", "--set", "corners.json",
                       "--m", "0", "--n", "1"],
    "limiting-fails": ["verify-limiting", "--image", "sq2.json", "--set", "corners.json",
                       "--m", "1", "--n", "1"],
    "limiting-minimal": ["verify-limiting", "--image", "tree.json", "--set", "leaves.json",
                         "--m", "0", "--n", "0", "--minimal"],
    "freezing-fails": ["verify-freezing", "--image", "sq2.json", "--set", "corners.json"],
    "freezing-budget": ["verify-freezing", "--image", "sq2.json", "--set", "corners.json",
                        "--budget-nodes", "1"],
    "freezing-minimal": ["verify-freezing", "--image", "c8.json", "--set", "c8_035.json",
                         "--minimal"],
    "freezing-not-minimal": ["verify-freezing", "--image", "c8.json", "--set",
                             "c8_0356.json", "--minimal"],
    "cold-minimal": ["verify-cold", "--image", "sq2.json", "--set", "corners.json",
                     "--s", "1", "--minimal"],
    "find-minimal": ["find-minimal", "--image", "c8.json", "--m", "0", "--n", "0",
                     "--size-cap", "3"],
    "find-minimal-budget": ["find-minimal", "--image", "sq1.json", "--m", "0", "--n", "0",
                            "--size-cap", "4", "--budget-nodes", "40"],
    "find-minimal-budget-hit": ["find-minimal", "--image", "c8.json", "--m", "0", "--n", "0",
                                "--size-cap", "3", "--budget-nodes", "40"],
    "profile": ["profile", "--image", "sq2.json", "--set", "corners.json", "--m", "1"],
    "classify": ["classify-cycle-maps", "--v", "6"],
    "classify-budget": ["classify-cycle-maps", "--v", "8", "--budget-maps", "10"],
    "rigidity-point": ["rigidity", "--image", "point.json"],
    "rigidity-tree": ["rigidity", "--image", "tree.json"],
    "rigidity-cycle": ["rigidity", "--image", "c8.json"],
    "metrics": ["metrics", "--image", "sq1.json", "--set0", "full.json",
                "--set1", "row.json"],
    "export-dot": ["export-dot", "--image", "tree.json"],
}

GOLDEN_JSON = {
    'classify': (0, '{"command":"classify-cycle-maps","counts":{"flip_rotation":6,"nonsurjective":846,"rotation":6},"query":{"v":6},"schema":"1","total":858,"unclassified":0}\n'),
    'classify-budget': (2, ''),
    'cold-minimal': (0, '{"command":"verify-cold","holds":true,"nodes":42,"query":{"image":"sq2.json","m":0,"minimal":true,"n":1,"set":"corners.json"},"schema":"1","witness":null}\n'),
    'export-dot': (0, '{"command":"export-dot","dot":"graph digital_image {\\n  \\"(0,0)\\";\\n  \\"(1,0)\\";\\n  \\"(1,1)\\";\\n  \\"(2,0)\\";\\n  \\"(0,0)\\" -- \\"(1,0)\\";\\n  \\"(1,0)\\" -- \\"(1,1)\\";\\n  \\"(1,0)\\" -- \\"(2,0)\\";\\n}\\n","schema":"1"}\n'),
    'find-minimal': (0, '{"command":"find-minimal","complete":true,"nodes":122,"query":{"image":"c8.json","m":0,"n":0,"size_cap":3},"schema":"1","sets":[{"indices":[0,2,5],"labels":["0","2","5"]},{"indices":[0,3,5],"labels":["0","3","5"]},{"indices":[0,3,6],"labels":["0","3","6"]},{"indices":[1,3,6],"labels":["1","3","6"]},{"indices":[1,4,6],"labels":["1","4","6"]},{"indices":[1,4,7],"labels":["1","4","7"]},{"indices":[2,4,7],"labels":["2","4","7"]},{"indices":[2,5,7],"labels":["2","5","7"]}]}\n'),
    'find-minimal-budget': (0, '{"command":"find-minimal","complete":true,"nodes":4,"query":{"image":"sq1.json","m":0,"n":0,"size_cap":4},"schema":"1","sets":[{"indices":[0,2,6,8],"labels":["(0,0)","(0,2)","(2,0)","(2,2)"]}]}\n'),
    'find-minimal-budget-hit': (2, '{"command":"find-minimal","complete":false,"nodes":40,"query":{"image":"c8.json","m":0,"n":0,"size_cap":3},"schema":"1","sets":[]}\n'),
    'freezing-budget': (2, '{"command":"verify-freezing","holds":null,"nodes":1,"query":{"image":"sq2.json","m":0,"minimal":false,"n":0,"set":"corners.json"},"schema":"1","witness":null}\n'),
    'freezing-fails': (1, '{"command":"verify-freezing","holds":false,"nodes":9,"query":{"image":"sq2.json","m":0,"minimal":false,"n":0,"set":"corners.json"},"schema":"1","witness":{"moves":[["(1,2)","(1,1)"],["(2,1)","(1,1)"]],"table":[0,1,2,3,4,4,6,4,8]}}\n'),
    'freezing-minimal': (0, '{"command":"verify-freezing","holds":true,"nodes":24,"query":{"image":"c8.json","m":0,"minimal":true,"n":0,"set":"c8_035.json"},"schema":"1","witness":null}\n'),
    'freezing-not-minimal': (1, '{"command":"verify-freezing","holds":false,"limiting_proper_subset":[0,3,6],"nodes":16,"query":{"image":"c8.json","m":0,"minimal":true,"n":0,"set":"c8_0356.json"},"schema":"1","witness":null}\n'),
    'limiting-fails': (1, '{"command":"verify-limiting","holds":false,"nodes":9,"query":{"image":"sq2.json","m":1,"minimal":false,"n":1,"set":"corners.json"},"schema":"1","witness":{"moves":[["(0,1)","(0,0)"],["(0,2)","(0,1)"],["(1,0)","(0,0)"],["(1,1)","(0,0)"],["(1,2)","(0,0)"],["(2,0)","(1,0)"],["(2,1)","(0,0)"],["(2,2)","(1,1)"]],"table":[0,0,1,0,0,0,3,0,4]}}\n'),
    'limiting-holds': (0, '{"command":"verify-limiting","holds":true,"nodes":3,"query":{"image":"sq2.json","m":0,"minimal":false,"n":1,"set":"corners.json"},"schema":"1","witness":null}\n'),
    'limiting-minimal': (0, '{"command":"verify-limiting","holds":true,"nodes":15,"query":{"image":"tree.json","m":0,"minimal":true,"n":0,"set":"leaves.json"},"schema":"1","witness":null}\n'),
    'metrics': (0, '{"command":"metrics","delta":2,"hausdorff":2,"query":{"image":"sq1.json","set0":"full.json","set1":"row.json"},"schema":"1"}\n'),
    'profile': (0, '{"command":"profile","profile":2,"query":{"image":"sq2.json","m":1,"set":"corners.json"},"schema":"1"}\n'),
    'rigidity-cycle': (1, '{"command":"rigidity","only_identity_is_1map":false,"query":{"image":"c8.json"},"rigid":false,"schema":"1"}\n'),
    'rigidity-point': (0, '{"command":"rigidity","only_identity_is_1map":true,"query":{"image":"point.json"},"rigid":true,"schema":"1"}\n'),
    'rigidity-tree': (1, '{"command":"rigidity","only_identity_is_1map":false,"query":{"image":"tree.json"},"rigid":false,"schema":"1"}\n'),
}

GOLDEN_HUMAN = {
    'classify': (0, 'classify-cycle-maps: v=6, 858 continuous self-maps (N ms)\n  nonsurjective: 846\n  rotation: 6\n  flip_rotation: 6\n'),
    'classify-budget': (2, ''),
    'cold-minimal': (0, 'verify-cold: HOLDS (42 nodes, N ms)\n'),
    'export-dot': (0, 'graph digital_image {\n  "(0,0)";\n  "(1,0)";\n  "(1,1)";\n  "(2,0)";\n  "(0,0)" -- "(1,0)";\n  "(1,0)" -- "(1,1)";\n  "(1,0)" -- "(2,0)";\n}\n'),
    'find-minimal': (0, 'find-minimal: 8 minimal sets, complete (122 nodes, 23 subsets searched, 70 skipped, N ms)\n  {0, 2, 5}\n  {0, 3, 5}\n  {0, 3, 6}\n  {1, 3, 6}\n  {1, 4, 6}\n  {1, 4, 7}\n  {2, 4, 7}\n  {2, 5, 7}\n'),
    'find-minimal-budget': (0, 'find-minimal: 1 minimal sets, complete (4 nodes, 1 subsets searched, 255 skipped, N ms)\n  {(0,0), (0,2), (2,0), (2,2)}\n'),
    'find-minimal-budget-hit': (2, 'find-minimal: 0 minimal sets, INCOMPLETE (budget) (40 nodes, 6 subsets searched, 1 skipped, N ms)\n'),
    'freezing-budget': (2, 'verify-freezing: UNKNOWN (1 nodes, N ms)\n'),
    'freezing-fails': (1, 'verify-freezing: FAILS (9 nodes, N ms)\nwitness:\n  (1,2) -> (1,1)\n  (2,1) -> (1,1)\n'),
    'freezing-minimal': (0, 'verify-freezing: HOLDS (24 nodes, N ms)\n'),
    'freezing-not-minimal': (1, 'verify-freezing: FAILS (16 nodes, N ms)\nsmaller limiting subset: [0, 3, 6]\n'),
    'limiting-fails': (1, 'verify-limiting: FAILS (9 nodes, N ms)\nwitness:\n  (0,1) -> (0,0)\n  (0,2) -> (0,1)\n  (1,0) -> (0,0)\n  (1,1) -> (0,0)\n  (1,2) -> (0,0)\n  (2,0) -> (1,0)\n  (2,1) -> (0,0)\n  (2,2) -> (1,1)\n'),
    'limiting-holds': (0, 'verify-limiting: HOLDS (3 nodes, N ms)\n'),
    'limiting-minimal': (0, 'verify-limiting: HOLDS (15 nodes, N ms)\n'),
    'metrics': (0, 'metrics: hausdorff=2 delta=2 (N ms)\n'),
    'profile': (0, 'profile: least n = 2 for m = 1 (N ms)\n'),
    'rigidity-cycle': (1, 'rigidity: NOT RIGID (N ms)\n  only identity is a 1-map: False\n'),
    'rigidity-point': (0, 'rigidity: RIGID (N ms)\n  only identity is a 1-map: True\n'),
    'rigidity-tree': (1, 'rigidity: NOT RIGID (N ms)\n  only identity is a 1-map: False\n'),
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch, square_c1, square_c2, cycle8, t_tree):
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    for name, img in (("sq1.json", square_c1), ("sq2.json", square_c2),
                      ("c8.json", cycle8), ("tree.json", t_tree)):
        assert fileio.load_image(name) == img
    return tmp_path


def _mask_ms(text: str) -> str:
    return re.sub(r"\b\d+ ms\)", "N ms)", text)


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_bytes_and_exit_code(golden_dir, capsys, case):
    code = run(CASES[case] + ["--json"])
    assert (code, capsys.readouterr().out) == GOLDEN_JSON[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_human_output_with_timings_masked(golden_dir, capsys, case):
    code = run(CASES[case])
    assert (code, _mask_ms(capsys.readouterr().out)) == GOLDEN_HUMAN[case]


def test_classify_budget_boundary_is_exact(capsys):
    """A map budget of exactly the census size gives the golden report;
    one map less leaves the census unknown."""
    argv = ["classify-cycle-maps", "--v", "6", "--json"]
    assert (run(argv + ["--budget-maps", "858"]), capsys.readouterr().out) == \
        GOLDEN_JSON["classify"]
    assert run(argv + ["--budget-maps", "857"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unknown: classification stopped after 857 maps\n"
