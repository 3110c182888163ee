"""In-memory span tracing around tropharm's public functions.

Spans are recorded only by wrappers that the benchmark installs on module
attributes; the library itself is not edited.  A function imported with
``from .x import y`` is a second binding of the same object, so ``install``
patches every tropharm module attribute that holds the target function.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    """Spans as [name, start, end, parent index, job id]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.embeddings: list[object] = []  # scenes emitted in the current job
        self.clouds: list[tuple[object, object]] = []  # (points, window) of global Hausdorff calls

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def start_job(self, job: int) -> None:
        self.job = job
        self.embeddings.clear()
        self.clouds.clear()

    def wrap(self, fn, name: str, namer=None, after=None):
        """Wrapper recording a span per call; a call made while a span of the
        same name is innermost (recursion) is passed straight through.
        ``namer(args, kwargs)`` may choose the span name per call, and
        ``after(result)`` sees each result once the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            if self._stack and self.spans[self._stack[-1]][0] == span:
                return fn(*args, **kwargs)
            sid = self.begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self.counts[span + ".calls"] += 1
            if isinstance(out, str):
                self.counts[span + ".bytes"] += len(out)
            if after:
                after(out)
            return out

        return traced

    def install(self, modules, targets) -> None:
        """Patch every attribute of ``modules`` bound to a target function.

        ``targets`` is a list of (module, attribute, span name, namer, after).
        """
        for mod, attr, name, namer, after in targets:
            original = getattr(mod, attr)
            wrapper = self.wrap(original, name, namer, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._patched):
            setattr(m, key, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (children's intervals are merged, so overlap counts once)."""
    children: dict[int, list[int]] = {}
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(sid, [])):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def outermost_total(spans, names) -> float:
    """Summed duration of spans named in ``names`` that have no ancestor also
    named in ``names``, so nested calls within one group count once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] in names:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += span[2] - span[1]
    return total
