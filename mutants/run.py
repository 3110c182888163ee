"""Run the mutant register: each mutant is one edit of the library that its
named tests must catch.

    python3 mutants/run.py [--register FILE] [--root DIR]

Every entry of the register (``register.json`` beside this file) gives a
``name``, a ``file`` under ``src/``, the exact ``old`` text, the ``new`` text
and the ``tests`` expected to fail.  The runner first refuses the register if
any entry's old text is not found exactly once.  It then runs the union of the
named tests on an unmutated copy of ``src/``, which must pass, and for each
mutant copies ``src/`` to a temporary directory, applies the edit and runs the
entry's tests against the copy.  It reads each test's result from pytest's
``-rA`` summary; a named test fails when any test it selects (the
parametrized cases of a function, the tests of a file) fails or errors:

- killed: every named test fails;
- survived: a named test passes; each one that passes is printed.  When they
  all pass, the whole tier-1 suite is run, to say whether any other test
  catches the mutant;
- error: pytest stops otherwise, say on a mutant that does not import, or a
  named test selects no test.

The exit status is 0 when every mutant is killed by each of its named tests,
else 1.
Only the standard library and pytest are used.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("name", "file", "old", "new", "tests")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    names = [e.get("name") for e in entries]
    for e in entries:
        missing = [k for k in FIELDS if not e.get(k)]
        if missing:
            raise SystemExit(f"register entry {e.get('name')!r} lacks {missing}")
    if len(set(names)) != len(names):
        raise SystemExit("register names must be distinct")
    return entries


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def stale(entries: list[dict], root: str) -> list[str]:
    """One line per entry whose old text is not found exactly once."""
    out = []
    for e in entries:
        path = os.path.join(root, e["file"])
        count = read(path).count(e["old"]) if os.path.isfile(path) else 0
        if count != 1:
            out.append(f"{e['name']}: old text found {count} times in {e['file']}")
    return out


def pytest(root: str, src: str, args: list[str]) -> subprocess.CompletedProcess:
    """pytest on ``args``, run quietly from ``root`` with ``src`` first on the
    path, its output captured."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)


def results(root: str, src: str, tests: list[str]) -> tuple[int, dict[str, str | None]]:
    """pytest's exit status on ``tests`` and each named test's result:
    "failed" when a test it selects failed or errored, "passed" when every
    one passed, None when it selected none."""
    proc = pytest(root, src, ["-rA", *tests])
    lines = proc.stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if "short test summary info" in line), len(lines))
    found: dict[str, str | None] = dict.fromkeys(tests)
    for line in lines[start + 1:]:
        status, _, rest = line.partition(" ")
        if status not in ("PASSED", "FAILED", "ERROR"):
            continue
        for t in tests:
            # a test id, then the end, a parameter list, a nested id or " - message"
            if rest.startswith(t) and rest[len(t):len(t) + 1] in ("", "[", ":", " "):
                found[t] = "passed" if status == "PASSED" and found[t] != "failed" else "failed"
    return proc.returncode, found


def copy_src(root: str, tmp: str, entry: dict | None = None) -> str:
    """``src/`` copied under ``tmp``, with ``entry``'s edit applied."""
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(root, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    if entry is not None:
        path = os.path.join(tmp, entry["file"])
        text = read(path).replace(entry["old"], entry["new"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return src


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--register", default=os.path.join(HERE, "register.json"))
    ap.add_argument("--root", default=os.path.dirname(HERE), help="the project: src/ and tests/")
    args = ap.parse_args(argv)
    entries = load(args.register)
    bad = stale(entries, args.root)
    if bad:
        print("stale register entries:", *bad, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        named = sorted({t for e in entries for t in e["tests"]})
        if pytest(args.root, copy_src(args.root, tmp), ["-x", *named]).returncode:
            print("the named tests fail on the unmutated source")
            return 1
        killed = 0
        for e in entries:
            src = copy_src(args.root, tmp, e)
            status, found = results(args.root, src, e["tests"])
            passing = [f"  passes: {t}" for t, r in found.items() if r == "passed"]
            missing = [f"  no result: {t}" for t, r in found.items() if r is None]
            if status not in (0, 1) or missing:
                verdict, notes = f"error: pytest exit {status}", missing
            elif not passing:
                killed += 1
                verdict, notes = "killed", []
            elif len(passing) < len(found):
                verdict, notes = "survived a named test", passing
            else:
                tier1 = pytest(args.root, src, ["-x"]).returncode
                verdict, notes = "survived" + (", killed by tier-1" if tier1 else ", tier-1 too"), passing
            print(f"{verdict:28} {e['name']}", *notes, sep="\n", flush=True)
    print(f"{killed} of {len(entries)} mutants killed")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
