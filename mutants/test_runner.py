"""Tests of the mutant runner itself; not part of tier-1.

    python3 -m pytest mutants -q
"""
import json
import os

from mutants import run

HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_committed_entry_applies():
    assert run.stale(run.load(os.path.join(HERE, "register.json")), os.path.dirname(HERE)) == []


def test_a_stale_entry_fails_the_runner(tmp_path, capsys):
    graph = {"file": "src/tropharm/graph.py", "new": "pass", "tests": ["tests/test_graph.py"]}
    reg = tmp_path / "register.json"
    reg.write_text(json.dumps([{"name": "gone", "old": "text that is in no file", **graph},
                               {"name": "twice", "old": "import", **graph}]))
    assert run.main(["--register", str(reg)]) == 1
    out = capsys.readouterr().out
    assert "gone: old text found 0 times" in out and "twice: old text found" in out


def test_killed_and_surviving_mutants_of_a_small_project(tmp_path, capsys):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text("from pkg import double\n\n\n"
                                                    "def test_double():\n    assert double(2) == 4\n")
    reg = tmp_path / "register.json"
    reg.write_text(json.dumps([{"name": f"m{k}", "file": "src/pkg/__init__.py", "old": "2 * x", "new": new,
                                "tests": ["tests/test_pkg.py"]} for k, new in enumerate(["3 * x", "x + x"])]))
    assert run.main(["--root", str(tmp_path), "--register", str(reg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["killed", "m0"]
    assert lines[1].split() == ["survived,", "tier-1", "too", "m1"]
    assert lines[2] == "1 of 2 mutants killed"
    # the source itself is never edited
    assert (tmp_path / "src" / "pkg" / "__init__.py").read_text() == "def double(x):\n    return 2 * x\n"
