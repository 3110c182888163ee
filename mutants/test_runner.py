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


def _small_project(tmp_path, tests: str, entries: list[tuple[str, str, list[str]]]) -> str:
    """A project whose library doubles a number, with the given test module
    and a register of (name, new text, tests) mutants of ``2 * x``."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text("import pytest\n\nfrom pkg import double\n\n\n" + tests)
    reg = tmp_path / "register.json"
    reg.write_text(json.dumps([{"name": name, "file": "src/pkg/__init__.py", "old": "2 * x", "new": new,
                                "tests": named} for name, new, named in entries]))
    return str(reg)


def test_killed_and_surviving_mutants_of_a_small_project(tmp_path, capsys):
    reg = _small_project(tmp_path, "def test_double():\n    assert double(2) == 4\n",
                         [(f"m{k}", new, ["tests/test_pkg.py"]) for k, new in enumerate(["3 * x", "x + x"])])
    assert run.main(["--root", str(tmp_path), "--register", reg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["killed", "m0"]
    assert lines[1].split() == ["survived,", "tier-1", "too", "m1"]
    assert lines[2] == "  passes: tests/test_pkg.py"
    assert lines[3] == "1 of 2 mutants killed"
    # the source itself is never edited
    assert (tmp_path / "src" / "pkg" / "__init__.py").read_text() == "def double(x):\n    return 2 * x\n"


def test_a_named_test_that_passes_against_its_mutant_fails_the_entry(tmp_path, capsys):
    # 3 * x fails test_two and every case of test_signs, but test_zero passes
    # against it: the entry naming all three is not killed, and the runner
    # says which test passed
    tests = ("def test_two():\n    assert double(2) == 4\n\n\n"
             "def test_zero():\n    assert double(0) == 0\n\n\n"
             "@pytest.mark.parametrize('x', [1, -1])\n"
             "def test_signs(x):\n    assert double(x) == x + x\n")
    named = [f"tests/test_pkg.py::{t}" for t in ("test_two", "test_signs", "test_zero")]
    reg = _small_project(tmp_path, tests, [("all three", "3 * x", named), ("two", "3 * x", named[:2])])
    assert run.main(["--root", str(tmp_path), "--register", reg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["survived", "a", "named", "test", "all", "three"]
    assert lines[1] == "  passes: tests/test_pkg.py::test_zero"
    assert lines[2].split() == ["killed", "two"]
    assert lines[3] == "1 of 2 mutants killed"
