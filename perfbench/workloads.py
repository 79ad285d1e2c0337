"""The benchmark workloads and the configs generated for them.

Each workload runs one ``tcbayes`` subcommand on a config generated from a
shipped scenario. The workload seed sets the master ``seed`` and
``data.seed``; ``constraint.seed`` keeps its shipped value, so the scanned
feasible boundary has one fixed value to check against.

``BENCHMARK.json`` lists ``model1-crw`` and ``model2-shared``. The other two
run on request:

* ``model3-indep``: on a 2-vCPU VM whose speed drifts by up to 30% within a
  minute, one or two ~12 s pipelines per run gave a run-to-run spread
  (interquartile range over median) of 0.16-0.24 in ``run_wall_s``; the
  repeats that would steady it do not fit the run budget next to model2.
* ``model1-gradient``: cSVGD draws its initial particles from the gaussian
  prior, and a draw below zero (about 6% of seeds with 50 particles, e.g.
  seed 13) gets a NaN gradient that the Stein kernel spreads to every
  particle, so ``compare.csv`` holds NaN errors and the gate fails the run.
"""
from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

# Allowance on the scanned lower boundary, in Reynolds units, on top of the
# scan tolerance. At the shipped probability budgets (1e5 draws for models 1
# and 2, 1e4 for model 3) one Monte Carlo standard error of P moves the
# boundary by 0.14 / 0.17 / 0.2, from the slope of P across the coarse scan
# cell that holds it; 1.0 covers about five standard errors, so a changed germ
# stream or a deterministic P still passes while a misplaced boundary fails.
BOUNDARY_ALLOWANCE = 1.0

# A run fails the gate when its final L2 error exceeds this multiple of the
# seed-0 value at this commit. Across chain and data seeds the error moves by
# tens of percent (Monte Carlo noise of one chain), too much for a bounded
# end-to-end metric, so accuracy is held by this ceiling instead.
L2_CEILING_FACTOR = 3.0

GRADIENT_SAMPLERS = ("chmc", "csvgd", "projected_svgd")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    command: str
    # feasible interval at seed 0 and this commit
    boundary: tuple[float, float] | None
    # final-checkpoint L2 error at seed 0 and this commit
    l2_seed0: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "model1-crw",
            "model1",
            "run",
            (540.283203125, 1000.0),
            0.03506560325264043,
            "One strip and 25000 cRW steps: the scalar Euler forward march behind every "
            "posterior call dominates and heat_interface is idle.",
        ),
        Workload(
            "model2-shared",
            "model2",
            "run",
            (589.16015625, 1000.0),
            0.08387760865390269,
            "Shared-germ interface with two chains: the scan's 1e5-draw field evaluation "
            "and interface diffusion dominate.",
        ),
        Workload(
            "model3-indep",
            "model3",
            "run",
            (499.609375, 1000.0),
            0.10121817401562361,
            "Sixty independent strip germs: interface assembly over 181 coefficient rows and "
            "Monte Carlo over a 1e4 x 60 germ, which a shared-germ shortcut does not cover.",
        ),
        Workload(
            "model1-gradient",
            "model1",
            "compare",
            None,
            1.75329109150535,
            "cHMC, cSVGD and projected SVGD on model1 at reduced sizes: exercises the "
            "posterior gradient and the batched particle gradient.",
        ),
    )
}

# Reduced sampler sizes for the gradient workload; the shipped compare block
# takes about 80 s, which does not fit a benchmark run. Each sampler's last
# checkpoint uses all of its samples (50 particles x 30 generations = 1500).
_GRADIENT_COMPARE = {
    "checkpoints": [250, 500, 1000, 1500],
    "samplers": {
        "chmc": {
            "mass": 1.0,
            "step": 25.0,
            "max_leapfrog": 12,
            "n_samples": 1500,
            "theta_init": 700.0,
            "delta": 0.2,
        },
        "csvgd": {"n_particles": 50, "n_generations": 30, "step_size": 5.0, "delta": 0.2},
        "projected_svgd": {"n_particles": 50, "n_generations": 30, "step_size": 0.5},
    },
}


def shipped_config(src_dir: str, scenario: str) -> dict:
    with open(os.path.join(src_dir, "tcbayes", "configs", f"{scenario}.json")) as fh:
        return json.load(fh)


def generate_config(workload: Workload, shipped: dict, seed: int) -> dict:
    """The workload's config: the shipped one with the workload seed applied."""
    config = copy.deepcopy(shipped)
    config["seed"] = seed
    config["data"]["seed"] = seed
    if workload.command == "compare":
        config["compare"] = copy.deepcopy(_GRADIENT_COMPARE)
    return config


def cli_argv(workload: Workload, config_path: str, output_dir: str, seed: int) -> list[str]:
    argv = [workload.command, "--config", config_path, "--output", output_dir, "--seed", str(seed)]
    if workload.command == "compare":
        argv += ["--samplers", ",".join(GRADIENT_SAMPLERS)]
    return argv
