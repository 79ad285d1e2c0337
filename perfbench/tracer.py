"""In-memory span tracer that wraps functions at the binding where they are looked up.

The package imports with ``from .x import f``, so a function is looked up
through the importing module's namespace, not the defining one. A wrap is
therefore named by the dotted path of that binding, for example
``tcbayes.bayes.forward_pressure_at_mean``; a path may also end in a class
attribute, as in ``tcbayes.scenario.Scenario.scan``. A path that no longer
resolves is recorded as absent and never fails the run, so refactors that
merge or delete functions leave the benchmark working.

Spans are kept in memory as ``(name_id, parent_index, start, end)`` and
written out once, when the traced run ends. Self time is a span's duration
minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

ROOT = "root"


def resolve(dotted: str):
    """(owner, attribute name, current value) of a dotted binding, or None."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        value = getattr(owner, parts[-1], None)
        if not callable(value):
            return None
        return owner, parts[-1], value
    return None


class Tracer:
    """Spans of one single-threaded run, plus per-name hook observations.

    ``install`` replaces each binding by a wrapper that records a span and,
    when a hook is given, calls ``hook(args, result)`` and stores what it
    returns under the span name. ``uninstall`` puts the originals back.
    """

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.spans: list = []
        self.observed: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, func, *args, **kwargs):
        """Call ``func`` inside a span named ``name``; returns its result."""
        return self._wrapper(name, func, None)(*args, **kwargs)

    def _wrapper(self, name: str, func, hook):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        perf_counter = time.perf_counter
        observed = self.observed.setdefault(name, [])

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, parent, start, end)
            if hook is not None:
                observed.append(hook(args, result))
            return result

        return traced

    def install(self, wraps) -> None:
        """Wrap each ``(span name, dotted binding, hook or None)``."""
        for name, dotted, hook in wraps:
            found = resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, func = found
            # class attributes are read raw so staticmethods stay static
            raw = owner.__dict__.get(attr, func) if isinstance(owner, type) else func
            if isinstance(raw, (staticmethod, classmethod)):
                self.absent.append(dotted)
                continue
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, self._wrapper(name, raw, hook))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The finished spans as parallel arrays, ready to save or summarize."""
        table = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {
            "name_id": table[:, 0].astype(np.int64),
            "parent": table[:, 1].astype(np.int64),
            "start": table[:, 2],
            "end": table[:, 3],
        }


def self_times(name_id, parent, start, end, keep=None) -> np.ndarray:
    """Per-span duration minus the time covered by its children.

    With ``keep`` (a boolean mask over spans) only kept spans count: each
    kept span's parent becomes its nearest kept ancestor, and dropped spans
    are neither subtracted nor given a self time (their entry is 0).
    Children of one parent never overlap in a single-threaded run, so the
    covered time is the sum of the children's durations.
    """
    n = len(name_id)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    keep = np.asarray(keep, dtype=bool)
    parent = np.asarray(parent, dtype=np.int64)
    # parents precede children, so one forward pass finds the nearest kept ancestor
    kept_parent = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            kept_parent[i] = p if keep[p] else kept_parent[p]
    out = np.where(keep, duration, 0.0)
    children = np.flatnonzero(keep & (kept_parent >= 0))
    np.subtract.at(out, kept_parent[children], duration[children])
    return out
