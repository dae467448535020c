"""Deterministic artifact writers: JSON reports, 16-bit PGM, RFC 4180 CSV.

Every writer lands atomically (temp file in the target directory, then
rename) so a crash never leaves a truncated artifact.  JSON is written
with sorted keys and a fixed indent so identical inputs give identical
bytes; PGM embeds the resolved config as a header comment.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Iterable, Sequence

import numpy as np


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _sanitize(obj: Any) -> Any:
    """JSON has no inf/nan; encode them as strings so reports stay parseable."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, complex):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def json_bytes(obj: Any) -> bytes:
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def canonical_json(obj: Any) -> str:
    """Single-line form for embedding in non-JSON headers."""
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":"))


def write_json(path: str, obj: Any) -> None:
    _atomic_write(path, json_bytes(obj))


def write_pgm16(path: str, data: np.ndarray, comment: str = "") -> bytes:
    """16-bit big-endian binary PGM (P5, maxval 65535); returns the bytes
    written."""
    if data.ndim != 2:
        raise ValueError("PGM data must be a 2-d array")
    arr = np.asarray(data)
    if arr.dtype != np.uint16:
        if arr.min() < 0 or arr.max() > 65535:
            raise ValueError("PGM values must lie in [0, 65535]")
        arr = arr.astype(np.uint16)
    h, w = arr.shape
    header = "P5\n"
    if comment:
        for line in comment.splitlines():
            header += f"# {line}\n"
    header += f"{w} {h}\n65535\n"
    pgm = header.encode("ascii") + arr.astype(">u2").tobytes()
    _atomic_write(path, pgm)
    return pgm


def _csv_cell(v: Any) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    s = str(v)
    if any(c in s for c in ',"\n\r'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """RFC 4180 cells, '.' decimal separator, LF line endings."""
    lines = [",".join(_csv_cell(c) for c in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
