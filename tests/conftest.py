"""Shared fixtures: small, fast scenario configs for wiring tests.

These shrink every knob that costs time (quadrature, probability draws,
scan resolution, chain length) while keeping the physics identical, so
configuration and orchestration tests stay in the millisecond range.
"""

from __future__ import annotations

import copy
import json

import pytest


_TINY_MODEL1 = {
    "model": 1,
    "germ": {
        "q": {"mean": 462.675, "std": 13.88025},
        "phi": {"mean": 0.111, "std": 0.01},
    },
    "surrogate": {"order": 2, "n_quad": 4, "n_steps": 400},
    "constraint": {
        "t_max": 343.2,
        "alpha": 0.95,
        "n_prob_samples": 2000,
        "seed": 0,
        "oracle": "interval",
    },
    "prior": {"kind": "uniform", "low": 300.0, "high": 1000.0},
    "data": {"theta_true": 700.0, "noise_std": 80.0, "n_obs": 4, "seed": 0},
    "sampler": {
        "kind": "crw",
        "proposal_std": 120.0,
        "n_samples": 300,
        "theta_init": 700.0,
    },
    "scan": {"theta_range": [300.0, 1000.0], "n_coarse": 9, "tol": 5.0},
    "diagnostics": {
        "n_bins": 30,
        "reference_nodes": 41,
        "checkpoints": [100, 200, 300],
    },
    "seed": 0,
}

_TINY_MODEL2 = {
    "model": 2,
    "germ": {"q": {"mean": 462.675, "std": 13.88025}},
    "geometry": {
        "d1": 0.25,
        "d2": 0.75,
        "n_strips": 4,
        "sections": [[0.25, 0.5, 0.111], [0.5, 0.75, 0.4]],
        "wall_temp": 410.0,
        "diffusivity": 0.005,
        "t_constraint": 0.5,
        "n_z": 120,
        "cfl": 0.4,
    },
    "surrogate": {"n_steps": 400},
    "constraint": {
        # the walls sit at 410 and barely cool in t_constraint = 0.5, so the
        # z-max is wall-dominated; 420 keeps a nonempty feasible set for tests
        "t_max": 420.0,
        "alpha": 0.8,
        "n_prob_samples": 1500,
        "seed": 0,
        "oracle": "interval",
    },
    "prior": {"kind": "uniform", "low": 300.0, "high": 1000.0},
    "data": {
        "theta_true": 700.0,
        "noise_std": 80.0,
        "n_obs": 2,
        "seed": 0,
        "groups": [
            {"label": "low_phi", "porosity": 0.111},
            {"label": "high_phi", "porosity": 0.4},
        ],
    },
    "sampler": {
        "kind": "crw",
        "proposal_std": 150.0,
        "n_samples": 150,
        "theta_init": 700.0,
    },
    "scan": {"theta_range": [300.0, 1000.0], "n_coarse": 9, "tol": 5.0},
    "diagnostics": {
        "n_bins": 30,
        "reference_nodes": 31,
        "checkpoints": [50, 100, 150],
    },
    "seed": 0,
}


@pytest.fixture
def tiny_model1_dict():
    return copy.deepcopy(_TINY_MODEL1)


@pytest.fixture
def tiny_model2_dict():
    return copy.deepcopy(_TINY_MODEL2)


@pytest.fixture
def write_config(tmp_path):
    """Serialize a config dict to a JSON file and return its path."""

    def _write(cfg: dict, name: str = "scenario.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(cfg, indent=1))
        return str(path)

    return _write


@pytest.fixture(scope="session")
def tiny_scenario():
    """Shared small model-1 scenario; scan/observation caches warm up once."""
    from tcbayes.scenario import Scenario, ScenarioConfig

    return Scenario(ScenarioConfig.from_dict(copy.deepcopy(_TINY_MODEL1)))


@pytest.fixture
def marched_once(monkeypatch):
    """The posterior's direct march, memoised: each (params, point, theta)
    goes through the production one-element march once, and a later call
    gets its value or its march failure again. For tests that ask many
    posteriors at the same thetas beyond the tables."""
    from tcbayes import bayes
    from tcbayes.porous_flow import MARCH_FAILURES

    march, seen = bayes.forward_pressure_at_mean, {}

    def forward(params, point, theta, *args):
        key = (params, point, theta, args)
        if key not in seen:
            try:
                seen[key] = march(params, point, theta, *args)
            except MARCH_FAILURES as exc:
                seen[key] = exc
        if isinstance(seen[key], Exception):
            raise seen[key]
        return seen[key]

    monkeypatch.setattr(bayes, "forward_pressure_at_mean", forward)
