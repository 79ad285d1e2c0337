"""Benchmark of the tcbayes pipeline: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload model1-crw --seed 1 --seconds 10 --trace 0

Every measured run is a fresh child process (``child.py``), started one
after another: a closed loop with one client, no ``--jobs``, and OpenBLAS,
OpenMP and MKL pinned to one thread. The package is imported from the
checkout's ``src``; without it the benchmark exits with code 2.

``--trace 0`` runs the pipeline as many times as fit in ``--seconds`` (at
least once), plus set-up-only children, and reports medians of

* ``run_wall_s``: wall seconds of the call into the CLI entry point;
* ``run_cpu_s``: user + system CPU seconds of the child over that call;
* ``setup_s``: child start through ``import tcbayes.cli``,
  ``resolve_config`` and ``Scenario(...)``;
* ``peak_rss_mb``: peak resident memory of the child.

It also prints the median ``l2_final``, the relative L2 error at the final
checkpoint (the largest of the three samplers for ``model1-gradient``),
which the gate holds under a ceiling, and ``failed_share``.

``--trace 1`` makes one untraced and one traced run of the same seed and
reports the per-layer metrics of ``layers.PER_LAYER`` from the traced one,
including the tracing overhead (traced minus untraced ``run_wall_s``).

Every pipeline run passes the correctness gate of ``gate.py`` or counts as
failed, and two runs of one seed on one source tree must give the same
artifact digest: within a traced run, and across runs through digests
kept in ``.perfbench/digests``. Results, spans and the machine record go to
``.perfbench/results``. Progress goes to stderr; the last line of stdout is
the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gate  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BOUNDARY_ALLOWANCE,
    GRADIENT_SAMPLERS,
    L2_CEILING_FACTOR,
    WORKLOADS,
    cli_argv,
    generate_config,
    shipped_config,
)

SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {
    "run_wall_s": "s",
    "run_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def source_digest() -> str:
    """SHA-256 over the package sources: the commit identity for stored digests."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "tcbayes")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "child_env": CHILD_ENV,
        "load_shape": "closed loop, one client, one child process at a time, no --jobs",
    }


class Bench:
    """One benchmark invocation: its work directory, deadline and children.

    ``attempt`` starts one child and counts it; a child that fails the gate
    is recorded in ``errors`` and its result is None.
    """

    def __init__(self, workload, seed: int, source: str):
        self.workload = workload
        self.seed = seed
        self.source = source
        self.started = time.perf_counter()
        self.work = os.path.join(STATE, "work", f"{workload.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
        self.config = generate_config(workload, shipped_config(SRC, workload.scenario), seed)
        self.config_path = os.path.join(self.work, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=2)
        self.env = {**os.environ, **CHILD_ENV}
        self.attempted = 0
        self.errors: list[str] = []
        self.runtime = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def attempt(self, mode: str, trace: bool = False):
        self.attempted += 1
        try:
            return self._child(mode, trace)
        except gate.GateError as exc:
            self.errors.append(f"{mode} child {self.attempted}: {exc}")
            return None

    def _child(self, mode: str, trace: bool) -> dict:
        tag = f"{mode}{self.attempted}"
        output = os.path.join(self.work, f"out-{tag}")
        request = {
            "root": ROOT,
            "config": self.config_path,
            "argv": cli_argv(self.workload, self.config_path, output, self.seed),
            "output": output,
            "mode": mode,
            "trace": trace,
            "n_prob_samples": self.config["constraint"].get("n_prob_samples", 100_000),
            "result": os.path.join(self.work, f"result-{tag}.json"),
            "spans": os.path.join(STATE, "results", f"{self.workload.name}-seed{self.seed}-spans.npz"),
        }
        request_path = os.path.join(self.work, f"request-{tag}.json")
        request["t0"] = time.perf_counter()
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        err_path = os.path.join(self.work, f"stderr-{tag}.txt")
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(ROOT, "perfbench", "child.py"), request_path],
                cwd=ROOT, env=self.env, stdout=err, stderr=err,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise gate.GateError(f"ran past the {DEADLINE_S:.0f} s deadline")
        if code != 0 or not os.path.exists(request["result"]):
            with open(err_path) as fh:
                raise gate.GateError(f"exited with code {code}: {fh.read()[-1500:]}")
        with open(request["result"]) as fh:
            result = json.load(fh)
        if mode == "run":
            if result["exit_code"] != 0:
                raise gate.GateError(
                    f"tcbayes exited with code {result['exit_code']}: {result['stderr']}"
                )
            self.runtime = result["runtime"]
            result["l2_final"] = self._check(output)
            self._check_digest(gate.digest(output))
            shutil.rmtree(output)
        return result

    def _check(self, output: str) -> float:
        w = self.workload
        if w.command == "compare":
            l2 = gate.check_compare_outputs(
                output, GRADIENT_SAMPLERS, self.config["compare"]["checkpoints"]
            )
        else:
            l2 = gate.check_run_outputs(
                output,
                w.boundary,
                float(self.config["scan"]["tol"]),
                BOUNDARY_ALLOWANCE,
                crw=self.config["sampler"]["kind"] == "crw",
            )
        ceiling = L2_CEILING_FACTOR * w.l2_seed0
        if l2 > ceiling:
            raise gate.GateError(f"final L2 error {l2!r} exceeds {ceiling!r}")
        return l2

    def _check_digest(self, digest: str) -> None:
        """Compare with the digest of an earlier run of this source tree and config."""
        inputs = hashlib.sha256((self.source + json.dumps(self.config, sort_keys=True)).encode())
        name = f"{self.workload.name}-{self.seed}-{inputs.hexdigest()[:16]}.txt"
        path = os.path.join(STATE, "digests", name)
        if os.path.exists(path):
            with open(path) as fh:
                stored = fh.read().strip()
            if stored != digest:
                raise gate.GateError(
                    f"artifact digest {digest[:12]} differs from {stored[:12]} of an earlier run"
                )
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(digest + "\n")


def run_untraced(bench: Bench, seconds: float):
    """End-to-end medians; set-up children run half before and half after the pipeline."""
    samples = {name: [] for name in END_TO_END}
    l2 = []

    def setups(n):
        for _ in range(n):
            result = bench.attempt("setup")
            if result is not None:
                samples["setup_s"].append(result["setup_s"])

    setups(SETUP_SAMPLES // 2)
    measuring = time.perf_counter()
    runs = 0
    while True:
        runs += 1
        result = bench.attempt("run")
        if result is not None:
            for name in END_TO_END:
                samples[name].append(result[name])
            l2.append(result["l2_final"])
        elapsed = time.perf_counter() - measuring
        per_run = elapsed / runs
        # start another run only if it should end inside the window and the deadline
        if elapsed + per_run > seconds or per_run > bench.remaining() - 10.0:
            break
    setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {
        name: {"value": statistics.median(values) if values else 0.0, "unit": END_TO_END[name]}
        for name, values in samples.items()
    }
    return metrics, samples, l2


def run_traced(bench: Bench):
    """Per-layer metrics from one traced run, next to one untraced run of the same seed."""
    plain = bench.attempt("run")
    traced = bench.attempt("run", trace=True)
    layers = {name: 0.0 for name in PER_LAYER}
    absent = {"metrics": [], "bindings": []}
    if traced is not None:
        layers.update(traced["layers"])
        absent = {"metrics": traced["absent"], "bindings": traced["absent_bindings"]}
        layers["trace.unattributed_share"] = layers["cli.self_s"] / traced["run_wall_s"]
    if plain is not None:
        layers["diagnostics.l2_final"] = plain["l2_final"]
        if traced is not None:
            layers["trace.overhead_s"] = traced["run_wall_s"] - plain["run_wall_s"]
    metrics = {name: {"value": layers[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcbayes", "__init__.py")):
        log(f"error: no tcbayes package under {SRC}; run from the root of a tcbayes checkout")
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_record()
    bench = Bench(workload, args.seed, machine["source_sha256"])
    log(f"{workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    samples = l2 = None
    absent = {"metrics": [], "bindings": []}
    if args.trace:
        metrics, absent = run_traced(bench)
    else:
        metrics, samples, l2 = run_untraced(bench, args.seconds)
    shutil.rmtree(bench.work, ignore_errors=True)
    failed = len(bench.errors)

    for message in bench.errors:
        log(f"FAILED: {message}")
    for name, metric in metrics.items():
        value = f"{metric['value']:.6g} {metric['unit']}"
        if name in absent["metrics"]:
            value = "absent"
        n = f" (median of {len(samples[name])})" if samples else ""
        print(f"{workload.name} {name} = {value}{n}")
    if l2:
        print(f"{workload.name} l2_final = {statistics.median(l2):.6g} ratio (median of {len(l2)})")
    print(
        f"{workload.name} failed_share = {failed / bench.attempted:.6g} "
        f"({failed} of {bench.attempted} runs)"
    )

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine, "child_runtime": bench.runtime},
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
        "attempted": bench.attempted,
        "failed": failed,
        "failed_share": failed / bench.attempted,
        "errors": bench.errors,
        "metrics": metrics,
        "samples": samples,
        "l2_final": l2,
        "absent": absent,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w") as fh:
        json.dump(record, fh, indent=2)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
