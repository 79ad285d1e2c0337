"""One measured run of the tcbayes pipeline, in a fresh process.

Usage (started by ``run.py``, one child at a time)::

    python3 perfbench/child.py REQUEST.json

The request names the checkout, the generated config, the CLI arguments,
the output directory, the mode (``setup`` or ``run``), whether to trace, and
the parent's ``perf_counter`` just before the process was started; that
clock is system-wide, so ``setup_s`` counts interpreter start-up too. The
result is written as JSON to the request's ``result`` path.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    sys.path[:0] = [os.path.join(req["root"], "src"), req["root"]]

    import tcbayes.cli as cli
    from tcbayes.scenario import Scenario

    Scenario(cli.resolve_config(req["config"]))
    result = {"setup_s": time.perf_counter() - req["t0"]}

    if req["mode"] == "run":
        tracer = None
        entry = cli.main
        if req["trace"]:
            from perfbench.layers import WRAPS
            from perfbench.tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install(WRAPS)

            def entry(argv):
                return tracer.span(ROOT, cli.main, argv)

        stdout, stderr = io.StringIO(), io.StringIO()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = entry(req["argv"])
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        result.update(
            {
                "exit_code": code,
                "stderr": stderr.getvalue()[-2000:],
                "run_wall_s": wall,
                "run_cpu_s": cpu,
                "peak_rss_mb": _peak_rss_mb(),
                "runtime": _runtime(),
            }
        )
        if tracer is not None:
            import numpy as np

            from perfbench.layers import absent_metrics, summarize

            tracer.uninstall()
            layers = summarize(tracer, req["n_prob_samples"], req["output"])
            layers["trace.run_wall_s"] = wall
            result["layers"] = layers
            result["absent"] = absent_metrics(tracer.absent)
            result["absent_bindings"] = tracer.absent
            np.savez_compressed(req["spans"], names=np.array(tracer.names), **tracer.arrays())

    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _runtime() -> dict:
    """Library versions and BLAS threading as seen inside the measured process."""
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
