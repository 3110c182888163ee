"""Canonical JSON output: sorted keys, floats at 17 significant digits.

Deterministic byte-for-byte for equal inputs; 17 significant digits make the
float round trip exact, and non-finite floats are written as ``null``.
Strings are escaped as ``json.dumps`` escapes them (ASCII only).  Each value
is written by the writer registered for its exact type; numpy scalars other
than ``np.float64`` and ``np.bool_`` are written as the Python value their
``.item()`` gives.  Any other type, a subclass of a written type included,
raises TypeError.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _str

import numpy as np


def _float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def _bool(x) -> str:
    return "true" if x else "false"


def _list(obj) -> str:
    get = _WRITERS.get
    return "[" + ", ".join([get(type(v), _fallback)(v) for v in obj]) + "]"


def _dict(obj) -> str:
    get = _WRITERS.get
    items = sorted(obj.items(), key=lambda kv: str(kv[0]))
    return "{" + ", ".join([f"{_str(str(k))}: {get(type(v), _fallback)(v)}" for k, v in items]) + "}"


def _fallback(obj) -> str:
    """numpy scalars without a writer: the Python value ``.item()`` gives."""
    writer = _WRITERS.get(type(obj.item())) if isinstance(obj, np.generic) else None
    if writer is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return writer(obj.item())


_WRITERS = {
    type(None): lambda x: "null",
    bool: _bool,
    np.bool_: _bool,
    int: str,
    float: _float,
    np.float64: lambda x: _float(float(x)),
    str: _str,
    list: _list,
    tuple: _list,
    dict: _dict,
    np.ndarray: lambda a: dumps_canonical(a.tolist()),
}


def dumps_canonical(obj) -> str:
    return _WRITERS.get(type(obj), _fallback)(obj)
