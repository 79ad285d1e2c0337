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
import dataclasses
import json
import math
import os
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
from .scenario import ConfigError, Scenario, ScenarioConfig

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


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    replacements = {}
    if getattr(args, "seed", None) is not None:
        replacements["seed"] = args.seed
    if getattr(args, "output", None) is not None:
        replacements["output_dir"] = args.output
    return dataclasses.replace(config, **replacements) if replacements else config


# ---------------------------------------------------------------------------
# artifacts

def load_chain_csv(path: str):
    """Read a chain or particle-history CSV back into its run type; a cell
    that is not a number is a ``ConfigError`` naming the file."""
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path} does not parse as a run CSV: {exc}") from None
    if header == ",".join(CHAIN_CSV_HEADER):
        return MarkovChain(
            samples=body[:, 1],
            accepted=body[:, 2].astype(bool),
            feasible=body[:, 3].astype(bool),
            log_post=body[:, 4],
            cumulative_seconds=body[:, 5],
        )
    if header == ",".join(PARTICLE_CSV_HEADER):
        n_particles = int((body[:, 0] == 0).sum())
        return ParticleHistory(
            generations=body[:, 2].reshape(-1, n_particles),
            cumulative_seconds=body[n_particles::n_particles, 3],
        )
    raise ConfigError(f"unrecognized chain CSV header in {path}: {header!r}")


def _write_runs(results, out_dir: str) -> list[str]:
    """Write the sampler runs as chain.csv, chain_NN.csv or particles.csv."""
    if isinstance(results[0], ParticleHistory):
        names = ["particles.csv"]
    elif len(results) == 1:
        names = ["chain.csv"]
    else:
        names = [f"chain_{i:02d}.csv" for i in range(len(results))]
    paths = [os.path.join(out_dir, name) for name in names]
    for result, path in zip(results, paths):
        result.to_csv(path)
    return paths


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


def _write_diagnostics(payload: dict, out_dir: str, artifacts: dict) -> None:
    path = os.path.join(out_dir, "diagnostics.json")
    write_json(path, payload)
    artifacts["diagnostics"] = path
    for key, header in (
        ("l2_series", ("n_samples", "l2_error", "wall_seconds")),
        ("bg_series", ("n_samples", "ratio")),
    ):
        if payload.get(key):
            path = os.path.join(out_dir, f"{key}.csv")
            write_csv(path, header, list(zip(*payload[key])))
            artifacts[key] = path


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


def _render_plots(out_dir: str, artifacts: dict) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plots skipped: matplotlib is not installed", file=sys.stderr)
        return
    hist = np.loadtxt(artifacts["histogram"], delimiter=",", skiprows=1, ndmin=2)
    ref = np.loadtxt(artifacts["reference"], delimiter=",", skiprows=1, ndmin=2)
    fig, ax = plt.subplots(figsize=(7, 4))
    widths = np.diff(hist[:, 0])
    width = widths[0] if widths.size else 1.0
    ax.bar(hist[:, 0], hist[:, 1], width=width, align="center", alpha=0.6, label="samples")
    ax.plot(ref[:, 0], ref[:, 1], color="k", lw=1.5, label="reference")
    ax.set_xlabel("Reynolds number")
    ax.set_ylabel("density")
    ax.legend()
    path = os.path.join(out_dir, "posterior.svg")
    fig.savefig(path)
    plt.close(fig)
    artifacts["posterior_plot"] = path
    if "field_constraint" in artifacts:
        fig, ax = plt.subplots(figsize=(7, 4))
        for key, label in (("field_initial", "t = 0"), ("field_constraint", "t = t_c")):
            data = np.loadtxt(artifacts[key], delimiter=",", skiprows=1, ndmin=2)
            ax.plot(data[:, 0], data[:, 1], label=label)
        ax.set_xlabel("z")
        ax.set_ylabel("temperature")
        ax.legend()
        path = os.path.join(out_dir, "field.svg")
        fig.savefig(path)
        plt.close(fig)
        artifacts["field_plot"] = path


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
    config = _apply_overrides(
        resolve_config(config_path), argparse.Namespace(seed=seed, output=output_dir)
    )
    scenario = Scenario(config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    artifacts: dict[str, str] = {}

    obs = scenario.observations()
    obs.to_csv(os.path.join(out, "observations.csv"))
    obs.save_provenance(os.path.join(out, "observations.json"))
    artifacts["observations"] = os.path.join(out, "observations.csv")
    artifacts["observations_meta"] = os.path.join(out, "observations.json")

    scan = scenario.scan()
    scan.to_csv(os.path.join(out, "feasible_scan.csv"))
    artifacts["feasible_scan"] = os.path.join(out, "feasible_scan.csv")
    if not scan.intervals:
        raise RuntimeError("feasibility scan found no feasible Reynolds interval")

    results = _run_chains(scenario)
    paths = _write_runs(results, out)
    artifacts["chains"] = paths[0] if len(paths) == 1 else paths

    reference = scenario.reference()
    reference.to_csv(os.path.join(out, "reference.csv"))
    artifacts["reference"] = os.path.join(out, "reference.csv")

    burn = float(config.sampler["burn_in_fraction"])
    histogram = chain_histogram(
        results[0],
        n_bins=config.diagnostics.n_bins,
        value_range=config.theta_range(),
        burn_in=burn,
    )
    histogram.to_csv(os.path.join(out, "histogram.csv"))
    artifacts["histogram"] = os.path.join(out, "histogram.csv")

    _write_diagnostics(_diagnostics(scenario, results, reference), out, artifacts)

    if config.model in (2, 3):
        theta_hat = float(burned_in_samples(results[0], burn).mean())
        initial = scenario.mean_field_snapshot(theta_hat, t_end=0.0)
        constraint_time = scenario.mean_field_snapshot(theta_hat)
        initial.to_csv(os.path.join(out, "field_initial.csv"))
        constraint_time.to_csv(os.path.join(out, "field_constraint.csv"))
        artifacts["field_initial"] = os.path.join(out, "field_initial.csv")
        artifacts["field_constraint"] = os.path.join(out, "field_constraint.csv")

    if plots:
        _render_plots(out, artifacts)

    write_json(os.path.join(out, "provenance.json"), _provenance(scenario, "run", artifacts))
    artifacts["provenance"] = os.path.join(out, "provenance.json")
    return artifacts


def _run_chains(scenario: Scenario):
    try:
        return scenario.run_all_chains()
    except InfeasibleStartError as exc:
        intervals = ", ".join(f"[{a:.1f}, {b:.1f}]" for a, b in scenario.intervals())
        raise InfeasibleStartError(
            f"{exc} (scanned feasible interval(s): {intervals or 'none'}; "
            "set sampler.theta_init inside one)"
        ) from exc


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
    config = _apply_overrides(resolve_config(args.config), args)
    scenario = Scenario(config)
    theta = args.theta if args.theta is not None else scenario.theta_init()
    q = args.q if args.q is not None else scenario.default_flux()
    phi = args.phi if args.phi is not None else config.params.porosity
    trajectory = integrate_strip(config.params, q, phi, theta, n_steps=config.n_steps)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "trajectory.csv")
    trajectory.to_csv(path)
    pressure = trajectory.t_fluid[-1] * trajectory.density[-1]
    print(f"trajectory: {path}")
    print(
        f"exit state at Re={theta:g}: t_fluid={trajectory.t_fluid[-1]:.6f} "
        f"t_solid={trajectory.t_solid[-1]:.6f} pressure={pressure:.6f}"
    )
    return 0


def _cmd_build_surrogate(args) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
    scenario = Scenario(config)
    theta = args.theta if args.theta is not None else scenario.theta_init()
    started = time.perf_counter()
    surrogate = scenario.marched_surrogate(theta)
    built = time.perf_counter() - started
    prob = satisfaction_probability(surrogate, config.constraint)
    print(f"surrogate at Re={theta:g} built in {built:.3f}s")
    print(f"P(f2 <= T_max={config.constraint.beta:g}) = {prob:.6f}")
    return 0


def _cmd_scan_feasible(args) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
    scenario = Scenario(config)
    scan = scenario.scan()
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "feasible_scan.csv")
    scan.to_csv(path)
    print(f"scan: {path}")
    if scan.intervals:
        text = ", ".join(f"[{a:.3f}, {b:.3f}]" for a, b in scan.intervals)
        print(f"feasible interval(s) within tolerance {scan.tol:g}: {text}")
    else:
        print("no feasible interval found in the scanned range")
    return 0


def _cmd_sample(args) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
    scenario = Scenario(config)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    results = _run_chains(scenario)
    paths = _write_runs(results, out)
    if isinstance(results[0], ParticleHistory):
        artifacts = {"particles": paths[0]}
        print(
            f"particles.csv: {results[0].n_particles} particles x "
            f"{results[0].n_generations} generations"
        )
    else:
        artifacts = {f"chain_{i}": path for i, path in enumerate(paths)}
        for result, path in zip(results, paths):
            print(
                f"{os.path.basename(path)}: {len(result)} samples, acceptance "
                f"{result.acceptance_rate:.3f}, feasible fraction {result.feasible_fraction:.3f}"
            )
    write_json(os.path.join(out, "provenance.json"), _provenance(scenario, "sample", artifacts))
    return 0


def _cmd_diagnose(args) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
    scenario = Scenario(config)
    runs = [load_chain_csv(p) for p in args.chains]
    if len(runs) > 1 and not all(isinstance(r, MarkovChain) for r in runs):
        raise ConfigError("diagnose needs either chain CSVs or a single particle CSV")
    payload = _diagnostics(scenario, runs, scenario.reference())
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    artifacts: dict[str, str] = {}
    _write_diagnostics(payload, out, artifacts)
    for name, path in sorted(artifacts.items()):
        print(f"{name}: {path}")
    return 0


def _compare_sampler_blocks(config: ScenarioConfig, requested: list[str]) -> dict:
    compare_cfg = config.raw.get("compare", {})
    blocks = {
        kind: dict(block)
        for kind, block in compare_cfg.get("samplers", {}).items()
        if not kind.startswith("_")
    }
    own = dict(config.sampler)
    blocks.setdefault(own["kind"], own)
    out = {}
    for kind in requested:
        if kind not in blocks:
            raise ConfigError(
                f"no hyperparameters for sampler {kind!r}; add them under compare.samplers"
            )
        block = dict(blocks[kind])
        block["kind"] = kind
        out[kind] = block
    return out


def _cmd_compare(args) -> int:
    config = _apply_overrides(resolve_config(args.config), args)
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

    base = Scenario(config)
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
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "compare.csv")
    write_csv(path, ("sampler", "n_samples", "l2_error", "wall_seconds"), list(zip(*rows)))
    print(f"compare: {path}")
    print(f"{'sampler':<16}{'n_samples':>10}{'l2_error':>12}{'wall_s':>10}")
    for kind, n, err, wall in rows:
        print(f"{kind:<16}{n:>10}{err:>12.4f}{wall:>10.2f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def comma_separated_ints(text: str) -> list[int]:
    """argparse type of ``--checkpoints``: its ValueError is a usage error (exit 2)."""
    return [int(c) for c in text.split(",")] if text else []


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
            p.add_argument("--seed", type=int, help="master seed (overrides config seed)")
        p.set_defaults(handler=handler)
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
