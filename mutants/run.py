"""Run the mutant register: each mutant is one edit of the library that its
named tests must catch.

    python3 mutants/run.py [--register FILE] [--root DIR]

Every entry of the register (``register.json`` beside this file) gives a
``name``, a ``file`` under ``src/``, the exact ``old`` text, the ``new`` text
and the ``tests`` expected to fail.  The runner first refuses the register if
any entry's old text is not found exactly once.  It then runs the union of the
named tests on an unmutated copy of ``src/``, which must pass, and for each
mutant copies ``src/`` to a temporary directory, applies the edit and runs the
entry's tests against the copy:

- killed: a named test fails;
- survived: the named tests pass (the whole tier-1 suite is then run, to say
  whether any other test catches it);
- error: pytest stops otherwise, say on a mutant that does not import.

The exit status is 0 when every mutant is killed by its named tests, else 1.
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


def pytest(root: str, src: str, args: list[str]) -> int:
    """pytest's exit status on ``args``, run from ``root`` with ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


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
        if pytest(args.root, copy_src(args.root, tmp), named):
            print("the named tests fail on the unmutated source")
            return 1
        killed = 0
        for e in entries:
            src = copy_src(args.root, tmp, e)
            status = pytest(args.root, src, e["tests"])
            if status == 1:
                killed += 1
                verdict = "killed"
            elif status == 0:
                verdict = "survived" + (", killed by tier-1" if pytest(args.root, src, []) else ", tier-1 too")
            else:
                verdict = f"error: pytest exit {status}"
            print(f"{verdict:28} {e['name']}", flush=True)
    print(f"{killed} of {len(entries)} mutants killed")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
