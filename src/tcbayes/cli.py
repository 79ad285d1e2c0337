"""Command-line front end: configure a scenario, run pipelines, emit artifacts.

Subcommands
-----------
run               full pipeline: data, scan, chains, diagnostics, artifacts
simulate-forward  integrate one strip and write the trajectory CSV
build-surrogate   build the surrogate at one Reynolds number and print the build
                  time and P(f2 <= T_max)
scan-feasible     locate the feasible Reynolds set and write the scan CSV
sample            run the configured sampler(s) and write chain CSVs
diagnose          recompute L2/Brooks-Gelman series from existing chain CSVs
compare           sampler-by-checkpoint table of L2 error and wall seconds

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
arguments (checkpoints beyond a run's samples included), 3 infeasible chain
start (with a boundary hint). Configs are strict JSON documents validated
against the packaged schema; bare names ``model1``/``model2``/``model3``
resolve to the shipped scenario files.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import pickle
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .artifacts import write_csv, write_json
from .bayes import table_record
from .chance_constraint import satisfaction_probability
from .diagnostics import (
    CheckpointError,
    burned_in_samples,
    chain_histogram,
    diagnostics_summary,
    l2_error_series,
)
from .porous_flow import integrate_strip
from .samplers import (
    CHAIN_CSV_HEADER,
    PARTICLE_CSV_HEADER,
    InfeasibleStartError,
    MarkovChain,
    ParticleHistory,
)
from .scenario import ConfigError, Scenario, ScenarioConfig, read_text

PACKAGED_SCENARIOS = ("model1", "model2", "model3")


def packaged_config_text(name: str) -> str:
    return resources.files("tcbayes").joinpath("configs", f"{name}.json").read_text()


def resolve_config(path_or_name: str) -> ScenarioConfig:
    """Load a config from a file path or a shipped scenario name."""
    if os.path.exists(path_or_name):
        return ScenarioConfig.load(path_or_name)
    name = path_or_name[:-5] if path_or_name.endswith(".json") else path_or_name
    if name in PACKAGED_SCENARIOS:
        return ScenarioConfig.from_dict(json.loads(packaged_config_text(name)))
    raise ConfigError(
        f"config {path_or_name!r} is neither a file nor one of {PACKAGED_SCENARIOS}"
    )


def open_scenario(path_or_name: str, seed: int | None = None, output: str | None = None) -> Scenario:
    """The scenario of a config path or shipped name, with ``--seed`` and ``--output`` if given."""
    overrides = {"seed": seed, "output_dir": output}
    return Scenario(dataclasses.replace(
        resolve_config(path_or_name), **{key: v for key, v in overrides.items() if v is not None}
    ))


# ---------------------------------------------------------------------------
# artifacts

def load_chain_csv(path: str):
    """Read a chain or particle-history CSV back into its run type.

    A file that is no whole run is a ``ConfigError`` naming it: one that
    cannot be read as text, an unknown header, a cell that is not a number, a row
    whose column count is not the header's, no row at all, or a particle
    file cut off inside a generation (as a run killed while writing leaves
    it).
    """
    header, *rows = read_text(path, "run CSV").splitlines() or [""]
    header, rows = header.strip(), [line for line in rows if line.strip()]
    columns = tuple(header.split(","))
    if columns not in (CHAIN_CSV_HEADER, PARTICLE_CSV_HEADER):
        raise ConfigError(f"unrecognized chain CSV header in {path}: {header!r}")
    if not rows:
        raise ConfigError(f"{path} holds a header and no row")
    try:
        body = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path} does not parse as a run CSV: {exc}") from None
    if body.shape[1] != len(columns):
        raise ConfigError(f"{path} has {body.shape[1]}-cell rows under a {len(columns)}-column header")
    if columns == CHAIN_CSV_HEADER:
        return MarkovChain(
            samples=body[:, 1],
            accepted=body[:, 2].astype(bool),
            feasible=body[:, 3].astype(bool),
            log_post=body[:, 4],
            cumulative_seconds=body[:, 5],
        )
    n_particles = int((body[:, 0] == 0).sum())
    if not n_particles or len(body) % n_particles:
        raise ConfigError(f"{path} does not hold whole generations of {n_particles} particles")
    return ParticleHistory(
        generations=body[:, 2].reshape(-1, n_particles),
        cumulative_seconds=body[n_particles::n_particles, 3],
    )


class _Output:
    """One command's output directory, made on creation, and the artifact
    name -> path of each file written there under a name."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.artifacts: dict = {}

    def write(self, filename: str, save, name: str | None = None) -> str:
        """``save(path)`` for the file's path; only then record it as ``name``."""
        path = os.path.join(self.out_dir, filename)
        save(path)
        if name is not None:
            self.artifacts[name] = path
        return path


def _diagnostics(scenario: Scenario, runs, reference) -> dict:
    cfg = scenario.config
    return diagnostics_summary(
        runs,
        reference=reference,
        checkpoints=cfg.diagnostics.checkpoints,
        n_bins=cfg.diagnostics.n_bins,
        value_range=cfg.theta_range(),
        burn_in=float(cfg.sampler["burn_in_fraction"]),
        confidence=cfg.diagnostics.confidence,
        # chains carry their own feasibility flags; particles are tested against the scan
        intervals=scenario.intervals() if isinstance(runs[0], ParticleHistory) else None,
    )


def _write_diagnostics(payload: dict, out: _Output) -> None:
    out.write("diagnostics.json", lambda path: write_json(path, payload), "diagnostics")
    for key, header in (
        ("l2_series", ("n_samples", "l2_error", "wall_seconds")),
        ("bg_series", ("n_samples", "ratio")),
    ):
        if payload.get(key):
            rows = list(zip(*payload[key]))
            out.write(f"{key}.csv", lambda path: write_csv(path, header, rows), key)


def _provenance(scenario: Scenario, command: str, artifacts: dict) -> dict:
    cfg = scenario.config
    return {
        "command": command,
        "config": cfg.raw,
        "master_seed": cfg.seed,
        "chain_seeds": scenario.chain_seeds(),
        "data_seed": cfg.data.seed,
        "constraint_seed": cfg.constraint.seed,
        "oracle_mode": cfg.oracle_mode,
        "theta_range": list(cfg.theta_range()),
        "feasible_intervals": [[float(a), float(b)] for a, b in scenario.intervals()],
        "forward_tables": scenario.forward_tables(),
        "exit_table": table_record(scenario.exit_table()),
        "oracle": scenario.oracle().counters(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "tcbayes": __version__},
        "artifacts": {
            k: [os.path.basename(p) for p in v] if isinstance(v, list) else os.path.basename(v)
            for k, v in artifacts.items()
        },
    }


def _render_plots(out: _Output) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plots skipped: matplotlib is not installed", file=sys.stderr)
        return
    hist = np.loadtxt(out.artifacts["histogram"], delimiter=",", skiprows=1, ndmin=2)
    ref = np.loadtxt(out.artifacts["reference"], delimiter=",", skiprows=1, ndmin=2)
    fig, ax = plt.subplots(figsize=(7, 4))
    left, right, height = hist.T
    ax.bar(left, height, width=right - left, align="edge", alpha=0.6, label="samples")
    ax.plot(ref[:, 0], ref[:, 1], color="k", lw=1.5, label="reference")
    ax.set_xlabel("Reynolds number")
    ax.set_ylabel("density")
    ax.legend()
    out.write("posterior.svg", fig.savefig, "posterior_plot")
    plt.close(fig)
    if "field_constraint" in out.artifacts:
        fig, ax = plt.subplots(figsize=(7, 4))
        for key, label in (("field_initial", "t = 0"), ("field_constraint", "t = t_c")):
            data = np.loadtxt(out.artifacts[key], delimiter=",", skiprows=1, ndmin=2)
            ax.plot(data[:, 0], data[:, 1], label=label)
        ax.set_xlabel("z")
        ax.set_ylabel("temperature")
        ax.legend()
        out.write("field.svg", fig.savefig, "field_plot")
        plt.close(fig)


# ---------------------------------------------------------------------------
# the full pipeline

def run_scenario(
    config_path: str,
    seed: int | None = None,
    output_dir: str | None = None,
    plots: bool = False,
) -> dict:
    """Execute generate/build/sample/diagnose and write the artifact bundle.

    Returns a dict mapping artifact names to paths.
    """
    scenario = open_scenario(config_path, seed, output_dir)
    config = scenario.config
    out = _Output(config.output_dir)

    obs = scenario.observations()
    out.write("observations.csv", obs.to_csv, "observations")
    out.write("observations.json", obs.save_provenance, "observations_meta")

    scan = scenario.scan()
    out.write("feasible_scan.csv", scan.to_csv, "feasible_scan")
    if not scan.intervals:
        raise RuntimeError("feasibility scan found no feasible Reynolds interval")

    def write_before_join(first) -> None:
        """reference.csv, the first run's histogram.csv and, for models 2-3,
        the field CSVs at its mean: written while the chain workers sample."""
        burn = float(config.sampler["burn_in_fraction"])
        out.write("reference.csv", scenario.reference().to_csv, "reference")
        histogram = chain_histogram(
            first, n_bins=config.diagnostics.n_bins, value_range=config.theta_range(), burn_in=burn
        )
        out.write("histogram.csv", histogram.to_csv, "histogram")
        if config.model in (2, 3):
            theta_hat = float(burned_in_samples(first, burn).mean())
            initial = scenario.mean_field_snapshot(theta_hat, t_end=0.0)
            constraint_time = scenario.mean_field_snapshot(theta_hat)
            out.write("field_initial.csv", initial.to_csv, "field_initial")
            out.write("field_constraint.csv", constraint_time.to_csv, "field_constraint")

    results, paths = _run_chains(scenario, out, write_before_join)
    out.artifacts["chains"] = paths[0] if len(paths) == 1 else paths
    _write_diagnostics(_diagnostics(scenario, results, scenario.reference()), out)

    if plots:
        _render_plots(out)

    provenance = _provenance(scenario, "run", out.artifacts)
    out.write("provenance.json", lambda path: write_json(path, provenance), "provenance")
    return out.artifacts


def _run_chains(scenario: Scenario, out: _Output, before_join=None) -> tuple[list, list[str]]:
    """Run the scenario's chains and write each as chain.csv, chain_NN.csv or
    particles.csv; returns the runs and paths in chain order, as a serial run
    gives them apart from timing cells. The last chains run at once in forked
    workers, one per CPU beyond this process's own; the parent runs the rest,
    chain 0 first, and all of them without ``os.fork``, with one CPU, or with
    the surrogate oracle, whose cache the chains share in order. Between its
    own chains and the workers' replies it calls ``before_join(chain 0's run)``."""
    scenario.posterior(), scenario.feasibility(), scenario.intervals()  # workers inherit them
    seeds = scenario.chain_seeds()
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    spare = cpus - 1 if hasattr(os, "fork") and scenario.config.oracle_mode != "surrogate" else 0

    def sample(i: int):
        run = scenario.run_chain(seeds[i])
        name = f"chain_{i:02d}.csv" if len(seeds) > 1 else "chain.csv"
        return run, out.write("particles.csv" if isinstance(run, ParticleHistory) else name, run.to_csv)

    results, workers, parent = [None] * len(seeds), {}, list(range(len(seeds)))
    try:
        while len(parent) > 1 and len(workers) < spare:
            i = parent.pop()
            workers[i] = _fork(sample, i)
        for i in parent:
            results[i] = sample(i)
        if before_join is not None:
            before_join(results[0][0])
        for i, (_, pipe) in sorted(workers.items()):
            reply = pipe.read()
            if not reply:
                raise RuntimeError(f"the worker of chain {i} ended without a result")
            ok, results[i] = pickle.loads(reply)
            if not ok:
                raise results[i]
    except InfeasibleStartError as exc:
        intervals = ", ".join(f"[{a:.1f}, {b:.1f}]" for a, b in scenario.intervals())
        raise InfeasibleStartError(
            f"{exc} (scanned feasible interval(s): {intervals or 'none'}; "
            "set sampler.theta_init inside one)"
        ) from exc
    finally:  # a worker whose reply was read has nothing left to do
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; the signal module's import costs 2 ms of start-up
            os.waitpid(pid, 0)
    return [run for run, _ in results], [path for _, path in results]


def _fork(sample, i: int):
    """Fork a worker that pickles ``(True, sample(i))`` or ``(False, exception)``
    into a pipe and exits; returns its pid and the pipe's read end. The
    worker dies with the forking process (on Linux), or exits if it is gone."""
    read, write = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        try:
            if sys.platform.startswith("linux"):
                prctl = ctypes.CDLL(None).prctl
                prctl.argtypes, prctl.restype = (ctypes.c_int,) + (ctypes.c_ulong,) * 4, ctypes.c_int
                prctl(1, 9, 0, 0, 0)  # PR_SET_PDEATHSIG, SIGKILL
            if os.getppid() != parent:
                os._exit(1)
            try:
                reply = True, sample(i)
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                reply = False, exc
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(reply, pipe)
        finally:
            os._exit(0)
    os.close(write)
    return pid, os.fdopen(read, "rb")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_run(args) -> int:
    artifacts = run_scenario(
        args.config, seed=args.seed, output_dir=args.output, plots=args.plots
    )
    for name, path in sorted(artifacts.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_simulate_forward(args) -> int:
    scenario = open_scenario(args.config, args.seed, args.output)
    config = scenario.config
    theta = args.theta if args.theta is not None else scenario.theta_init()
    q = args.q if args.q is not None else scenario.default_flux()
    phi = args.phi if args.phi is not None else config.params.porosity
    trajectory = integrate_strip(config.params, q, phi, theta, n_steps=config.n_steps)
    path = _Output(config.output_dir).write("trajectory.csv", trajectory.to_csv)
    pressure = trajectory.t_fluid[-1] * trajectory.density[-1]
    print(f"trajectory: {path}")
    print(
        f"exit state at Re={theta:g}: t_fluid={trajectory.t_fluid[-1]:.6f} "
        f"t_solid={trajectory.t_solid[-1]:.6f} pressure={pressure:.6f}"
    )
    return 0


def _cmd_build_surrogate(args) -> int:
    scenario = open_scenario(args.config, args.seed, args.output)
    constraint = scenario.config.constraint
    theta = args.theta if args.theta is not None else scenario.theta_init()
    started = time.perf_counter()
    surrogate = scenario.marched_surrogate(theta)
    built = time.perf_counter() - started
    prob = satisfaction_probability(surrogate, constraint)
    print(f"surrogate at Re={theta:g} built in {built:.3f}s")
    print(f"P(f2 <= T_max={constraint.beta:g}) = {prob:.6f}")
    return 0


def _cmd_scan_feasible(args) -> int:
    scenario = open_scenario(args.config, args.seed, args.output)
    scan = scenario.scan()
    path = _Output(scenario.config.output_dir).write("feasible_scan.csv", scan.to_csv)
    print(f"scan: {path}")
    if scan.intervals:
        text = ", ".join(f"[{a:.3f}, {b:.3f}]" for a, b in scan.intervals)
        print(f"feasible interval(s) within tolerance {scan.tol:g}: {text}")
    else:
        print("no feasible interval found in the scanned range")
    return 0


def _cmd_sample(args) -> int:
    scenario = open_scenario(args.config, args.seed, args.output)
    out = _Output(scenario.config.output_dir)
    results, paths = _run_chains(scenario, out)
    if isinstance(results[0], ParticleHistory):
        out.artifacts["particles"] = paths[0]
        print(
            f"particles.csv: {results[0].n_particles} particles x "
            f"{results[0].n_generations} generations"
        )
    else:
        out.artifacts.update((f"chain_{i}", path) for i, path in enumerate(paths))
        for result, path in zip(results, paths):
            print(
                f"{os.path.basename(path)}: {len(result)} samples, acceptance "
                f"{result.acceptance_rate:.3f}, feasible fraction {result.feasible_fraction:.3f}"
            )
    provenance = _provenance(scenario, "sample", out.artifacts)
    out.write("provenance.json", lambda path: write_json(path, provenance))
    return 0


def _cmd_diagnose(args) -> int:
    scenario = open_scenario(args.config, args.seed, args.output)
    runs = [load_chain_csv(p) for p in args.chains]
    if len(runs) > 1 and not all(isinstance(r, MarkovChain) for r in runs):
        raise ConfigError("diagnose needs either chain CSVs or a single particle CSV")
    payload = _diagnostics(scenario, runs, scenario.reference())
    out = _Output(scenario.config.output_dir)
    _write_diagnostics(payload, out)
    for name, path in sorted(out.artifacts.items()):
        print(f"{name}: {path}")
    return 0


def _compare_sampler_blocks(config: ScenarioConfig, requested: list[str]) -> dict:
    compare_cfg = config.raw.get("compare", {})
    blocks = {
        kind: block
        for kind, block in compare_cfg.get("samplers", {}).items()
        if not kind.startswith("_")
    }
    blocks.setdefault(config.sampler["kind"], config.sampler)
    out = {}
    for kind in requested:
        if kind not in blocks:
            raise ConfigError(
                f"no hyperparameters for sampler {kind!r}; add them under compare.samplers"
            )
        out[kind] = dict(blocks[kind], kind=kind)  # a copy: the config's blocks stay as read
    return out


def _cmd_compare(args) -> int:
    base = open_scenario(args.config, args.seed, args.output)
    config = base.config
    requested = [s.strip() for s in args.samplers.split(",") if s.strip()]
    if not requested:
        raise ConfigError("--samplers must name at least one sampler")
    blocks = _compare_sampler_blocks(config, requested)
    configured = config.raw.get("compare", {}).get("checkpoints")
    checkpoints = args.checkpoints or list(configured or config.diagnostics.checkpoints or ())
    if not checkpoints:
        raise ConfigError("no checkpoints: pass --checkpoints or set diagnostics.checkpoints")
    if sorted(checkpoints) != checkpoints or len(set(checkpoints)) != len(checkpoints):
        raise ConfigError("checkpoints must be strictly increasing")

    reference = base.reference()
    rows = []
    for kind in requested:
        runner = base.with_sampler(blocks[kind])
        result = runner.run_chain(config.seed)
        series = l2_error_series(
            result,
            reference,
            checkpoints,
            n_bins=config.diagnostics.n_bins,
            value_range=config.theta_range(),
            burn_in=float(runner.config.sampler["burn_in_fraction"]),
        )
        rows.extend((kind, *row) for row in series)
    header = ("sampler", "n_samples", "l2_error", "wall_seconds")
    path = _Output(config.output_dir).write(
        "compare.csv", lambda path: write_csv(path, header, list(zip(*rows)))
    )
    print(f"compare: {path}")
    print(f"{'sampler':<16}{'n_samples':>10}{'l2_error':>12}{'wall_s':>10}")
    for kind, n, err, wall in rows:
        print(f"{kind:<16}{n:>10}{err:>12.4f}{wall:>10.2f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def comma_separated_ints(text: str) -> list[int]:
    """argparse type of ``--checkpoints``: counts of at least 1; its
    ValueError is a usage error (exit 2)."""
    counts = [int(c) for c in text.split(",")] if text else []
    if min(counts, default=1) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} holds a count below 1")
    return counts


def non_negative_int(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer, as a config seed
    is; its ValueError is a usage error (exit 2)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return int(text)


def _float_where(test, words: str):
    """argparse type: a float for which ``test`` holds; anything else,
    unparsable text included, is a usage error (exit 2)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {words}")
        return value

    return parse


positive_finite = _float_where(lambda v: 0.0 < v < math.inf, "a positive finite number")
finite = _float_where(math.isfinite, "a finite number")
open_unit = _float_where(lambda v: 0.0 < v < 1.0, "in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbayes",
        description="Chance-constrained Bayesian inversion of a transpiration-cooling model.",
    )
    parser.add_argument("--version", action="version", version=f"tcbayes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, seed=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config path or shipped scenario name")
        p.add_argument("--output", help="output directory (overrides config output_dir)")
        if seed:
            p.add_argument("--seed", type=non_negative_int, help="master seed (overrides config seed)")
        p.set_defaults(handler=handler, seed=None)
        return p

    p = add("run", _cmd_run, "full pipeline with all artifacts")
    p.add_argument("--plots", action="store_true", help="also render SVG plots")

    p = add("simulate-forward", _cmd_simulate_forward, "integrate one strip", seed=False)
    p.add_argument("--theta", type=positive_finite, help="Reynolds number (default: sampler start)")
    p.add_argument("--q", type=finite, help="heat flux (default: scenario flux)")
    p.add_argument("--phi", type=open_unit, help="porosity (default: model porosity)")

    p = add("build-surrogate", _cmd_build_surrogate, "build one surrogate", seed=False)
    p.add_argument("--theta", type=positive_finite, help="Reynolds number (default: sampler start)")

    add("scan-feasible", _cmd_scan_feasible, "scan the feasible Reynolds set", seed=False)
    add("sample", _cmd_sample, "run the configured sampler")

    p = add("diagnose", _cmd_diagnose, "recompute diagnostics from chain CSVs", seed=False)
    p.add_argument("--chains", nargs="+", required=True, help="chain or particle CSV paths")

    p = add("compare", _cmd_compare, "sampler x checkpoint L2/wall-seconds table")
    p.add_argument(
        "--samplers",
        default="crw,chmc,csvgd,projected_svgd",
        help="comma-separated sampler kinds",
    )
    p.add_argument("--checkpoints", type=comma_separated_ints, help="comma-separated sample counts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
