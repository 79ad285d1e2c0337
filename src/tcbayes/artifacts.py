"""Artifact formats: the CSV writer behind every CSV file, and a JSON writer.

Each slice of a CSV column becomes one list of cells by its kind: integers
as ``str``, booleans as ``0``/``1``, strings as they are, and floats as
``repr`` (round-trips bit for bit), computed once per run of bit-identical
floats. Any other kind, an object column included, is a ``TypeError``:
every cell the package writes is a number or a name. Every CSV ends its
lines with LF on every platform.
"""
from __future__ import annotations

import json

import numpy as np

CHUNK_ROWS = 1024


def _cells(values: np.ndarray) -> list:
    """The cells of a slice of a column whose kind ``write_csv`` has checked.
    A float's ``repr`` is computed once per run of one bit pattern (-0.0 ==
    0.0, but the two repr differently), such as the theta and log_post a
    rejected chain step repeats, and gathered to the run's rows."""
    kind = values.dtype.kind
    if kind in "iu":
        return list(map(str, values.tolist()))
    if kind == "b":
        return np.array(["0", "1"], object)[values.view(np.uint8)].tolist()
    if kind == "U":
        return values.tolist()
    bits = values.view(f"i{values.itemsize}")
    starts = np.concatenate(([True], bits[1:] != bits[:-1]))
    reprs = np.array(list(map(repr, values[starts].tolist())), object)
    return reprs[np.cumsum(starts) - 1].tolist()


def write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under a header of column names.

    Rows go out 1024 at a time, joined from one list of cells per column
    slice, so only one slice of Python values per column is alive at once.
    """
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ValueError("need one header name per column")
    n_rows = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("columns must be 1-d and of equal length")
    for c in columns:
        if c.dtype.kind not in "iubfU":
            raise TypeError(f"no CSV cell format for dtype {c.dtype}")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(c[start : start + CHUNK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
