"""Artifact formats: the CSV writer behind every CSV file, and a JSON writer.

CSV cells are formatted by column kind, chosen once per column: integers
as ``str``, booleans as ``0``/``1``, floats as ``repr`` (round-trips bit for bit)
and strings as they are; a run of bit-identical floats is formatted once.
Any other kind, an object column included, is a ``TypeError``: every cell
the package writes is a number or a name. Every CSV ends its lines with
LF on every platform.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

CHUNK_ROWS = 4096


def _float_cells(values: np.ndarray):
    """``repr`` of each float, computed once per run of cells with one bit
    pattern (-0.0 == 0.0, but the two repr differently), such as the theta
    and log_post a rejected chain step repeats; once per cell where runs
    exceed 3/4 of the cells (a time column): a run then costs more than its repr."""
    bits = values.view(f"i{values.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 4 * starts.size > 3 * values.size:
        return map(repr, values.tolist())
    counts = np.diff(np.append(starts, values.size)).tolist()
    cells = map(repr, values[starts].tolist())
    return itertools.chain.from_iterable(map(itertools.repeat, cells, counts))


def _formatter(column: np.ndarray):
    """Map a slice of a column to an iterable of its cells."""
    kind = column.dtype.kind
    if kind in "iu":
        return lambda values: map(str, values.tolist())
    if kind == "b":
        return lambda values: map(("0", "1").__getitem__, values.tolist())
    if kind == "f":
        return _float_cells
    if kind == "U":
        return lambda values: values.tolist()
    raise TypeError(f"no CSV cell format for dtype {column.dtype}")


def write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under a header of column names.

    Rows go out 4096 at a time, so only one slice of Python values per
    column is alive at once.
    """
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns):
        raise ValueError("need one header name per column")
    n_rows = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in columns):
        raise ValueError("columns must be 1-d and of equal length")
    formats = [_formatter(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = [fmt(c[start : start + CHUNK_ROWS]) for c, fmt in zip(columns, formats)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
