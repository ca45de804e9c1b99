"""Command-line behavior: exit codes, JSON reports, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import digtopo
from digtopo.cli import COMMANDS, run
from digtopo.fileio import parse_dot
from digtopo.image import DEFAULT_POINT_BUDGET


@pytest.fixture
def square_files(write_json):
    img = write_json(
        "sq.json",
        {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c2"},
    )
    corners = write_json("corners.json", {"points": [[0, 0], [0, 2], [2, 0], [2, 2]]})
    return img, corners


def _json_out(capsys) -> dict:
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    return json.loads(out[0])


def test_verify_limiting_holds(square_files, capsys):
    img, corners = square_files
    code = run(
        ["verify-limiting", "--image", img, "--set", corners, "--m", "0", "--n", "1",
         "--json"]
    )
    report = _json_out(capsys)
    assert code == 0
    assert report["schema"] == "1"
    assert report["holds"] is True
    assert report["witness"] is None


def test_verify_limiting_fails_with_witness(square_files, capsys):
    img, corners = square_files
    code = run(
        ["verify-limiting", "--image", img, "--set", corners, "--m", "1", "--n", "1",
         "--json"]
    )
    report = _json_out(capsys)
    assert code == 1
    assert report["holds"] is False
    assert len(report["witness"]["table"]) == 9
    assert all(len(move) == 2 for move in report["witness"]["moves"])


def test_verify_freezing_and_cold(square_files, capsys):
    img, corners = square_files
    assert run(["verify-freezing", "--image", img, "--set", corners]) == 1
    capsys.readouterr()
    assert run(["verify-cold", "--image", img, "--set", corners, "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out


def test_unknown_exit_on_budget(square_files, capsys):
    img, corners = square_files
    code = run(
        ["verify-freezing", "--image", img, "--set", corners, "--budget-nodes", "1"]
    )
    assert code == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_input_error_exits(square_files, capsys):
    img, corners = square_files
    assert run(["verify-limiting", "--image", "/no/such.json", "--set", corners,
                "--m", "0", "--n", "0"]) == 3
    assert run(["verify-limiting", "--image", img, "--set", corners, "--m", "0"]) == 3
    assert run(["not-a-command"]) == 3
    assert run([]) == 3
    capsys.readouterr()


def test_oversized_image_is_refused_before_building(write_json, capsys):
    corners = write_json("set.json", {"indices": [0]})
    for spec in (
        {"constructor": "explicit", "n": DEFAULT_POINT_BUDGET + 1, "edges": []},
        {"constructor": "cycle", "v": DEFAULT_POINT_BUDGET + 1},
    ):
        img = write_json("big.json", spec)
        # a construction budget, like a box's point budget: exit 2
        assert run(["verify-freezing", "--image", img, "--set", corners]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {DEFAULT_POINT_BUDGET} vertices" in captured.err


def test_runs_between_usage_errors_give_identical_output(square_files, capsys):
    img, corners = square_files
    argv = ["verify-cold", "--image", img, "--set", corners, "--s", "1", "--json"]
    outputs = []
    for _ in range(3):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert run(["verify-cold", "--image", img]) == 3
        capsys.readouterr()
    assert len(set(outputs)) == 1


def test_json_byte_identical_across_threads_and_runs(square_files, capsys):
    img, corners = square_files
    outputs = []
    for threads in ("1", "1", "2", "4"):
        run(
            ["verify-limiting", "--image", img, "--set", corners, "--m", "1",
             "--n", "1", "--json", "--threads", threads]
        )
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1


def test_human_output_reports_witness(square_files, capsys):
    img, corners = square_files
    run(["verify-limiting", "--image", img, "--set", corners, "--m", "1", "--n", "1"])
    out = capsys.readouterr().out
    assert "FAILS" in out
    assert "->" in out
    assert "nodes" in out


def test_minimal_flag(square_files, capsys):
    img, corners = square_files
    assert run(["verify-cold", "--image", img, "--set", corners, "--s", "1",
                "--minimal", "--json"]) == 0
    report = _json_out(capsys)
    assert report["query"]["minimal"] is True


def test_find_minimal(write_json, capsys):
    img = write_json(
        "seg.json", {"constructor": "box", "intervals": [[0, 1]], "adjacency": "c1"}
    )
    code = run(["find-minimal", "--image", img, "--m", "0", "--n", "0",
                "--size-cap", "2", "--json"])
    report = _json_out(capsys)
    assert code == 0
    assert report["complete"] is True
    assert report["sets"] == [{"indices": [0, 1], "labels": ["(0)", "(1)"]}]


def test_find_minimal_report_shape(write_json, capsys):
    img = write_json("c8.json", {"constructor": "cycle", "v": 8})
    argv = ["find-minimal", "--image", img, "--m", "0", "--n", "0", "--size-cap", "3"]
    assert run(argv + ["--json"]) == 0
    report = _json_out(capsys)
    # searched and skipped counts stay out of the JSON report
    assert sorted(report) == ["command", "complete", "nodes", "query", "schema", "sets"]
    assert len(report["sets"]) == 8
    assert run(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.search(r"\(\d+ nodes, \d+ subsets searched, \d+ skipped, \d+ ms\)$", first)


def test_find_minimal_refuses_a_disconnected_image(write_json, capsys):
    """Both isolated vertices are forced points, more than the cap of 1,
    yet the query is refused as disconnected."""
    img = write_json("two.json", {"constructor": "explicit", "n": 2, "edges": []})
    code = run(["find-minimal", "--image", img, "--m", "0", "--n", "0",
                "--size-cap", "1", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "connected" in captured.err


def test_profile(square_files, capsys):
    img, corners = square_files
    code = run(["profile", "--image", img, "--set", corners, "--m", "1", "--json"])
    report = _json_out(capsys)
    assert code == 0
    assert report["profile"] == 2


def test_classify_cycle_maps(capsys):
    code = run(["classify-cycle-maps", "--v", "6", "--json"])
    report = _json_out(capsys)
    assert code == 0
    assert report["total"] == 858
    assert report["counts"] == {
        "nonsurjective": 846, "rotation": 6, "flip_rotation": 6,
    }
    assert report["unclassified"] == 0


def test_classify_budget(capsys):
    assert run(["classify-cycle-maps", "--v", "8", "--budget-maps", "10"]) == 2
    capsys.readouterr()


def test_negative_budgets_are_usage_errors(square_files, capsys):
    img, corners = square_files
    for argv in (
        ["verify-freezing", "--image", img, "--set", corners, "--budget-nodes", "-1"],
        ["find-minimal", "--image", img, "--m", "0", "--n", "0", "--size-cap", "1",
         "--budget-nodes", "-3"],
        ["classify-cycle-maps", "--v", "6", "--budget-maps", "-1"],
        ["classify-cycle-maps", "--v", "6", "--budget-maps", "x"],
    ):
        assert run(argv + ["--json"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --budget-"), captured.err
    # zero budgets still run and report their budget outcome
    assert run(["verify-freezing", "--image", img, "--set", corners,
                "--budget-nodes", "0", "--json"]) == 2
    assert _json_out(capsys)["nodes"] == 0
    assert run(["classify-cycle-maps", "--v", "6", "--budget-maps", "0"]) == 2
    assert "stopped after 0 maps" in capsys.readouterr().err


def test_rigidity(write_json, capsys):
    img = write_json(
        "pt.json", {"constructor": "box", "intervals": [[0, 0]], "adjacency": "c1"}
    )
    code = run(["rigidity", "--image", img, "--json"])
    report = _json_out(capsys)
    assert code == 0
    assert report["rigid"] is True
    assert report["only_identity_is_1map"] is True
    cyc = write_json("c8.json", {"constructor": "cycle", "v": 8})
    assert run(["rigidity", "--image", cyc, "--json"]) == 1
    capsys.readouterr()


def test_metrics_command(write_json, capsys):
    img = write_json(
        "sq1.json",
        {"constructor": "box", "intervals": [[0, 2], [0, 2]], "adjacency": "c1"},
    )
    full = write_json(
        "full.json", {"points": [[x, y] for x in range(3) for y in range(3)]}
    )
    row = write_json("row.json", {"points": [[x, 0] for x in range(3)]})
    code = run(["metrics", "--image", img, "--set0", full, "--set1", row, "--json"])
    report = _json_out(capsys)
    assert code == 0
    assert report["hausdorff"] == 2
    assert report["delta"] == 2


def test_export_dot(square_files, capsys):
    img, _ = square_files
    assert run(["export-dot", "--image", img]) == 0
    labels, edges = parse_dot(capsys.readouterr().out)
    assert len(labels) == 9
    assert len(edges) == 20


def test_module_entry_point(square_files):
    img, corners = square_files
    proc = subprocess.run(
        [sys.executable, "-m", "digtopo", "verify-cold", "--image", img,
         "--set", corners, "--s", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "HOLDS" in proc.stdout


def test_import_leaves_numpy_and_scipy_unloaded():
    code = (
        "import sys, digtopo, digtopo.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # -S keeps site hooks, which may load these modules themselves, out of
    # the child; the package is found where this process imported it from
    root = os.path.dirname(os.path.dirname(os.path.abspath(digtopo.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import digtopo, digtopo.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'argparse', 'gettext') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SEARCH_COMMANDS = {"verify-limiting", "verify-freezing", "verify-cold", "find-minimal",
                   "profile"}


@pytest.fixture
def command_args(write_json):
    img = write_json("c8.json", {"constructor": "cycle", "v": 8})
    sub = write_json("c8_035.json", {"indices": [0, 3, 5]})
    return {
        "verify-limiting": ["--image", img, "--set", sub, "--m", "0", "--n", "0"],
        "verify-freezing": ["--image", img, "--set", sub],
        "verify-cold": ["--image", img, "--set", sub, "--s", "1"],
        "find-minimal": ["--image", img, "--m", "0", "--n", "0", "--size-cap", "1"],
        "profile": ["--image", img, "--set", sub, "--m", "0"],
        "classify-cycle-maps": ["--v", "6"],
        "rigidity": ["--image", img],
        "metrics": ["--image", img, "--set0", sub, "--set1", sub],
        "export-dot": ["--image", img],
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_flags_it_honours(command, command_args, capsys):
    """--json and --threads go with every command, --budget-nodes with the
    searching ones and --budget-maps with the census; any other flag is a
    usage error."""
    argv = [command] + command_args[command]
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    assert code != 3
    assert run(argv + ["--json", "--threads", "2"]) == code
    assert capsys.readouterr().out == out
    for flag, takers in (("--budget-nodes", SEARCH_COMMANDS),
                         ("--budget-maps", {"classify-cycle-maps"})):
        got = run(argv + ["--json", flag, "100000"])
        captured = capsys.readouterr()
        if command in takers:
            assert (got, captured.out) == (code, out), flag
        else:
            assert (got, captured.out) == (3, ""), flag
            assert captured.err == f"error: unrecognized arguments: {flag} 100000\n"


def test_abbreviated_flags_are_usage_errors(command_args, capsys):
    """A prefix of a flag is not that flag, even when it names only one."""
    img, sub = command_args["verify-freezing"][1], command_args["verify-freezing"][3]
    for argv in (
        ["verify-limiting", "--image", img, "--s", sub, "--m", "0", "--n", "0"],
        ["verify-freezing", "--image", img, "--set", sub, "--budget", "1"],
        ["verify-freezing", "--ima", img, "--set", sub],
        ["verify-freezing", "--image", img, "--se", sub],
        ["verify-freezing", "--image", img, "--set", sub, "--js"],
        [],
        ["not-a-command", "--image", img],
        ["--json"],
        ["verify-freezing", "--json"],
        ["verify-freezing", "--image"],
        ["verify-freezing", "--image", img, "--set", sub, "--json=1"],
        ["verify-freezing", "--image", img, "--set", sub, "--m", "x"],
        ["verify-freezing", "--image", img, "--set", sub, "-x"],
        ["verify-freezing", "--image", img, "--set", sub, "--", "--json"],
    ):
        assert run(argv) == 3, argv
        assert capsys.readouterr().out == "", argv


def test_usage_errors_keep_their_messages(command_args, capsys):
    """Bad values are reported where they are met, then missing required
    flags, then unknown tokens."""
    img, sub = command_args["verify-freezing"][1], command_args["verify-freezing"][3]
    for argv, err in (
        ([], "a command is required"),
        (["verify-limiting", "--image", img],
         "the following arguments are required: --set, --m, --n"),
        (["verify-limiting", "--bogus", "--image", img, "--set", sub, "--m", "0"],
         "the following arguments are required: --n"),
        (["verify-limiting", "--image", img, "--set", sub, "--m", "0", "--n"],
         "argument --n: expected one argument"),
        (["verify-limiting", "--image", img, "--set", sub, "--m", "a", "--n", "0", "--x"],
         "argument --m: invalid int value: 'a'"),
        (["verify-freezing", "--image", img, "--set", sub, "--budget-nodes", "-1"],
         "argument --budget-nodes: budget must be nonnegative, got -1"),
        (["verify-freezing", "--image", img, "--set", sub, "--budget-maps", "5"],
         "unrecognized arguments: --budget-maps 5"),
    ):
        assert run(argv) == 3, argv
        assert capsys.readouterr() == ("", f"error: {err}\n"), argv


def test_accepted_forms_match_the_spaced_form(command_args, capsys):
    img, sub = command_args["verify-freezing"][1], command_args["verify-freezing"][3]
    spaced = ["verify-limiting", "--image", img, "--set", sub, "--m", "1", "--n", "1",
              "--budget-nodes", "7", "--json"]
    code = run(spaced)
    want = capsys.readouterr().out
    assert want
    for argv in (
        ["verify-limiting", f"--image={img}", f"--set={sub}", "--m=1", "--n=1",
         "--budget-nodes=7", "--json"],
        ["verify-limiting", "--image", sub, "--image", img, "--set", sub, "--m", "5",
         "--m", "1", "--n", "1", "--budget-nodes", "7", "--json", "--json"],
        ["verify-limiting", "--image", img, "--set", sub, "--m", "1", "--n", "1",
         "--budget-nodes", " 7 ", "--json"],
    ):
        assert run(argv) == code, argv
        assert capsys.readouterr().out == want, argv


def test_help_lists_every_command_with_its_flags(command_args, capsys):
    assert run(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[2] for line in lines] == list(COMMANDS)
    for name, line in zip(COMMANDS, lines):
        words = line.split()
        assert words[:2] == ["usage:", "digtopo"]
        flags = [w.strip("[]") for w in words[3:]]
        assert flags == COMMANDS[name].flags.split() + ["--json", "--threads"], line
        # required flags bare, the others bracketed
        assert "--image" in words or name == "classify-cycle-maps"
        assert "[--json]" in words and "[--threads]" in words
        assert all(f"[{f}]" in words for f in ("--minimal", "--budget-nodes") if f in flags)
    img = command_args["verify-cold"][1]
    for argv in (["verify-cold", "-h"], ["verify-cold", "--image", img, "--help"]):
        assert run(argv) == 0
        assert capsys.readouterr() == (lines[2] + "\n", "")


def test_one_node_budget_caps_every_search_of_a_command(write_json, capsys):
    """--minimal and profile run several searches; the budget caps them
    together, not each one."""
    img = write_json("c8.json", {"constructor": "cycle", "v": 8})
    sub = write_json("c8_035.json", {"indices": [0, 3, 5]})
    argv = ["verify-freezing", "--image", img, "--set", sub, "--minimal", "--json"]
    assert run(argv + ["--budget-nodes", "12"]) == 2
    report = _json_out(capsys)
    assert (report["holds"], report["nodes"]) == (None, 12)
    argv = ["profile", "--image", img, "--set", sub, "--m", "1"]
    assert run(argv + ["--budget-nodes", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unknown: profile undecided at n=3 after 20 nodes\n"


@pytest.mark.parametrize("extra", [[], ["--json"], ["--help"]])
def test_closed_stdout_is_an_input_error_not_a_verdict(write_json, extra):
    """A report written into a pipe whose reader has closed exits 3 with
    one error line, not a traceback read as FAILS (exit 1)."""
    img = write_json("c8.json", {"constructor": "cycle", "v": 8})
    subset = write_json("c8_035.json", {"indices": [0, 3, 5]})
    argv = ["verify-freezing", "--image", img, "--set", subset] + extra
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "digtopo", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
