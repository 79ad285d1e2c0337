"""Artifact formats: the CSV writer behind every CSV file, and a JSON writer.

CSV cells are formatted by column kind, chosen once per column: integers
and booleans as ``str(int)``, floats as ``repr`` (round-trips bit for bit)
and strings as they are. Any other kind, an object column included, is a
``TypeError``: every cell the package writes is a number or a name. Every
CSV ends its lines with LF on every platform.
"""
from __future__ import annotations

import json

import numpy as np

CHUNK_ROWS = 4096


def _formatter(column: np.ndarray):
    """Map a list of a column's values (from ``.tolist()``) to its cells."""
    kind = column.dtype.kind
    if kind in "iu":
        return lambda values: map(str, values)
    if kind == "f":
        return lambda values: map(repr, values)
    if kind == "U":
        return lambda values: values
    raise TypeError(f"no CSV cell format for dtype {column.dtype}")


def write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under a header of column names.

    Rows go out 4096 at a time, so only one slice of Python values per
    column is alive at once.
    """
    columns = [np.asarray(c) for c in columns]
    # 0/1 cells without a copy
    columns = [c.view(np.uint8) if c.dtype == bool else c for c in columns]
    if len(header) != len(columns):
        raise ValueError("need one header name per column")
    n_rows = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("columns must be 1-d and of equal length")
    formats = [_formatter(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [
                fmt(c[start : start + CHUNK_ROWS].tolist()) for c, fmt in zip(columns, formats)
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
