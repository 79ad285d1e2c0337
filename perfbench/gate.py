"""Correctness gate for one pipeline run, and the digest of its artifacts.

Files are read by column name, so columns added by later changes do not
break the gate. Timing values are left out of the digest: CSV columns whose
name ends in ``seconds``, and JSON keys ``timings`` or ending in ``seconds``,
plus the ``l2_series`` rows of ``diagnostics.json``, whose third entry is a
time (``l2_series.csv`` carries the same rows with named columns).
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

REFERENCE_TOL = 1e-6


class GateError(Exception):
    """The run's outputs fail a correctness check."""


def read_columns(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise GateError(f"{os.path.basename(path)} is empty")
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _column(columns: dict, name: str, path: str) -> np.ndarray:
    if name not in columns:
        raise GateError(f"{os.path.basename(path)} has no column {name!r}")
    try:
        return np.array([float(v) for v in columns[name]])
    except ValueError as exc:
        raise GateError(f"{os.path.basename(path)} column {name!r}: {exc}") from exc


def check_reference(path: str) -> None:
    cols = read_columns(path)
    integral = float(np.trapezoid(_column(cols, "density", path), _column(cols, "theta", path)))
    if not abs(integral - 1.0) <= REFERENCE_TOL:
        raise GateError(f"reference density integrates to {integral!r}, not 1")


def check_chain_inside(path: str, intervals) -> None:
    theta = _column(read_columns(path), "theta", path)
    inside = np.zeros(theta.shape, dtype=bool)
    for lo, hi in intervals:
        inside |= (theta >= lo) & (theta <= hi)
    if not inside.all():
        bad = theta[~inside][0]
        raise GateError(
            f"{os.path.basename(path)}: {int((~inside).sum())} samples outside the scanned "
            f"intervals {intervals}, first {bad!r}"
        )


def check_boundary(intervals, expected, tol: float, allowance: float) -> None:
    if len(intervals) != 1:
        raise GateError(f"expected one feasible interval, got {intervals}")
    (lo, hi), (want_lo, want_hi) = intervals[0], expected
    if abs(lo - want_lo) > tol + allowance:
        raise GateError(f"lower boundary {lo!r} is not within {tol + allowance} of {want_lo}")
    if abs(hi - want_hi) > tol:
        raise GateError(f"upper boundary {hi!r} is not within {tol} of {want_hi}")


def _final_l2(values: np.ndarray, where: str) -> float:
    if values.size == 0 or not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise GateError(f"{where}: L2 errors must be finite and positive, got {values}")
    return float(values[-1])


def check_run_outputs(out_dir: str, expected_boundary, tol: float, allowance: float, crw: bool) -> float:
    """Gate a ``run`` artifact bundle; returns the final-checkpoint L2 error."""
    prov_path = os.path.join(out_dir, "provenance.json")
    if not os.path.exists(prov_path):
        raise GateError("provenance.json is missing")
    with open(prov_path) as fh:
        prov = json.load(fh)
    artifacts = prov.get("artifacts", {})
    listed = {}
    for key, names in artifacts.items():
        for name in names if isinstance(names, list) else [names]:
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                raise GateError(f"artifact {name} listed in provenance.json is missing")
            listed.setdefault(key, []).append(path)
    for key in ("chains", "reference", "l2_series"):
        if key not in listed:
            raise GateError(f"provenance.json lists no {key!r} artifact")
    intervals = [tuple(map(float, pair)) for pair in prov.get("feasible_intervals", [])]
    check_boundary(intervals, expected_boundary, tol, allowance)
    if crw:
        for path in listed["chains"]:
            check_chain_inside(path, intervals)
    check_reference(listed["reference"][0])
    l2_path = listed["l2_series"][0]
    return _final_l2(_column(read_columns(l2_path), "l2_error", l2_path), "l2_series.csv")


def check_compare_outputs(out_dir: str, samplers, checkpoints) -> float:
    """Gate a ``compare`` table; returns the largest final-checkpoint L2 error."""
    path = os.path.join(out_dir, "compare.csv")
    if not os.path.isfile(path):
        raise GateError("compare.csv is missing")
    cols = read_columns(path)
    kinds = cols.get("sampler", [])
    n_samples = _column(cols, "n_samples", path)
    l2 = _column(cols, "l2_error", path)
    finals = []
    for kind in samplers:
        rows = [i for i, k in enumerate(kinds) if k == kind]
        if [int(n_samples[i]) for i in rows] != list(checkpoints):
            raise GateError(f"compare.csv rows for {kind} do not match checkpoints {checkpoints}")
        finals.append(_final_l2(l2[rows], f"compare.csv ({kind})"))
    return max(finals)


def _strip_timings(value):
    if isinstance(value, dict):
        return {
            k: _strip_timings(v)
            for k, v in value.items()
            if k not in ("timings", "l2_series") and not k.endswith("seconds")
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def _canonical(path: str) -> bytes:
    if path.endswith(".json"):
        with open(path) as fh:
            return json.dumps(_strip_timings(json.load(fh)), sort_keys=True).encode()
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0] if rows else []) if not name.endswith("seconds")]
        return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()
    with open(path, "rb") as fh:
        return fh.read()


def digest(out_dir: str) -> str:
    """SHA-256 over every artifact's name and timing-free content."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0" + _canonical(path) + b"\0")
    return h.hexdigest()
