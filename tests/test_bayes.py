"""Priors, likelihood, posterior gradients."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from tcbayes.bayes import (
    ObservationGroup,
    ObservationSet,
    Posterior,
    PriorSpec,
    _prior_laws,
    generate_observations,
)
from tcbayes.porous_flow import ModelParams
from test_porous_flow import frozen_forward as forward_pressure_at_mean

Q0 = 30845.0 * 0.015
PARAMS = ModelParams(heat_flux_nominal=Q0)
XI_MEAN = (Q0, PARAMS.porosity)
SIGMA_L = 80.0
THETA_TRUE = 700.0


def _obs(n_obs=5, seed=0, noise=SIGMA_L, theta=THETA_TRUE, xi=XI_MEAN, label="obs"):
    truth = forward_pressure_at_mean(PARAMS, xi, theta)
    return generate_observations(truth, theta, xi, noise, n_obs, seed, label)


def _log_likelihood(obs, theta, classic_iid=False):
    # the posterior under a flat prior of width 1 around theta, whose log
    # density -log(1) is -0.0: the log likelihood exactly
    unit = PriorSpec("uniform", low=theta - 0.5, high=theta + 0.5)
    return Posterior(obs, unit, PARAMS, classic_iid)(theta)


def test_zero_residual_single_observation():
    pressure = forward_pressure_at_mean(PARAMS, XI_MEAN, THETA_TRUE)
    group = ObservationGroup("g", np.array([pressure]), SIGMA_L)
    obs = ObservationSet((group,))
    expected = -math.log(math.sqrt(2.0 * math.pi) * SIGMA_L)
    assert _log_likelihood(obs, THETA_TRUE) == pytest.approx(expected, abs=1e-12)
    # with N=1 the tempered and classic forms coincide
    assert _log_likelihood(obs, THETA_TRUE, classic_iid=True) == pytest.approx(expected, abs=1e-12)


def test_group_additivity_exact():
    a = _obs(n_obs=4, seed=1)
    b = _obs(n_obs=3, seed=2, xi=(Q0, 0.4), label="other")
    merged = ObservationSet(a.groups + b.groups)
    theta = 520.0
    total = _log_likelihood(merged, theta)
    parts = [_log_likelihood(part, theta) for part in (a, b)]
    assert total == parts[0] + parts[1]


def test_tempered_vs_classic_forms():
    obs = _obs(n_obs=8, seed=3)
    theta = 640.0
    pressure = forward_pressure_at_mean(PARAMS, XI_MEAN, theta)
    res_sq = float(np.sum((obs.groups[0].values - pressure) ** 2))
    tempered = -math.log(math.sqrt(2 * math.pi) * SIGMA_L) - res_sq / (2 * 8 * SIGMA_L**2)
    classic = -8 * math.log(math.sqrt(2 * math.pi) * SIGMA_L) - res_sq / (2 * SIGMA_L**2)
    assert _log_likelihood(obs, theta) == pytest.approx(tempered, rel=1e-12)
    assert _log_likelihood(obs, theta, classic_iid=True) == pytest.approx(classic, rel=1e-12)


def test_prior_values():
    log_gauss, _ = _prior_laws(PriorSpec("gaussian", mean=600.0, std=200.0))
    assert log_gauss(600.0) == pytest.approx(-math.log(math.sqrt(2 * math.pi) * 200.0), abs=1e-14)
    uni = PriorSpec("uniform", low=300.0, high=1000.0)
    log_uni, _ = _prior_laws(uni)
    assert log_uni(650.0) == pytest.approx(math.log(1.0 / 700.0), abs=1e-14)
    assert log_uni(1200.0) == math.log(uni.floor)
    assert log_uni(1200.0) < -600.0


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorSpec("gaussian", mean=0.0, std=0.0)
    with pytest.raises(ValueError):
        PriorSpec("uniform", low=2.0, high=1.0)
    # a width that overflows would make the log density -inf inside the support
    with pytest.raises(ValueError, match="finite width"):
        PriorSpec("uniform", low=-1e308, high=1e308)
    with pytest.raises(ValueError):
        PriorSpec("lognormal")


def test_prior_json_roundtrip():
    # a config's prior block parses to the spec it describes
    gaussian = {"kind": "gaussian", "mean": 600.0, "std": 200.0}
    assert PriorSpec.from_json(gaussian) == PriorSpec("gaussian", mean=600.0, std=200.0)
    uniform = {"kind": "uniform", "low": 300.0, "high": 1000.0}
    assert PriorSpec.from_json(uniform) == PriorSpec("uniform", low=300.0, high=1000.0)


def test_generate_observations_determinism_and_noise():
    a = _obs(n_obs=100, seed=7)
    b = _obs(n_obs=100, seed=7)
    assert np.array_equal(a.groups[0].values, b.groups[0].values)
    c = _obs(n_obs=100, seed=8)
    assert not np.array_equal(a.groups[0].values, c.groups[0].values)

    big = _obs(n_obs=10_000, seed=9)
    sample_std = float(np.std(big.groups[0].values, ddof=1))
    assert abs(sample_std - SIGMA_L) <= 0.05 * SIGMA_L


def test_zero_noise_limit_reproduces_forward_value():
    truth = forward_pressure_at_mean(PARAMS, XI_MEAN, THETA_TRUE)
    obs = _obs(n_obs=6, seed=4, noise=1e-30)
    assert np.all(obs.groups[0].values == truth)


def test_zero_noise_grid_argmax_at_theta_true():
    obs = _obs(n_obs=3, seed=5, noise=1e-30)
    prior = PriorSpec("uniform", low=300.0, high=1000.0)
    grid = np.linspace(300.0, 1000.0, 141)  # 5-unit spacing, includes 700
    posterior = Posterior(obs, prior, PARAMS)
    values = [posterior(t) for t in grid]
    assert grid[int(np.argmax(values))] == pytest.approx(THETA_TRUE, abs=2.5)


def test_observation_validation():
    with pytest.raises(ValueError):
        ObservationGroup("g", np.array([]), 1.0)
    with pytest.raises(ValueError):
        ObservationGroup("g", np.array([1.0]), 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ObservationGroup("g", np.array([1.0, bad]), 1.0)
    with pytest.raises(ValueError):
        ObservationSet(())
    g = ObservationGroup("g", np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        ObservationSet((g, g))


def test_observation_csv_and_provenance(tmp_path):
    obs = _obs(n_obs=4, seed=11)
    csv_path = tmp_path / "obs.csv"
    obs.to_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "group,value"
    assert len(lines) == 5
    assert all(line.startswith("obs,") for line in lines[1:])

    prov_path = tmp_path / "obs.json"
    obs.save_provenance(str(prov_path))
    meta = json.loads(prov_path.read_text())
    assert meta["groups"][0]["theta_true"] == THETA_TRUE
    assert meta["groups"][0]["n_obs"] == 4


def test_gradient_stationary_at_mode():
    pressure = forward_pressure_at_mean(PARAMS, XI_MEAN, 600.0)
    group = ObservationGroup("g", np.array([pressure]), SIGMA_L)
    obs = ObservationSet((group,))
    prior = PriorSpec("gaussian", mean=600.0, std=200.0)
    # residual zero and theta at the prior mean: only the one-sided FD bias remains
    grad = Posterior(obs, prior, PARAMS).grad(600.0)
    assert abs(grad) < 1e-4


def test_gradient_uniform_prior_is_likelihood_only():
    obs = _obs(n_obs=5, seed=12)
    uni = PriorSpec("uniform", low=300.0, high=1000.0)
    gauss = PriorSpec("gaussian", mean=600.0, std=200.0)
    theta = 550.0
    g_uni = Posterior(obs, uni, PARAMS).grad(theta)
    g_gauss = Posterior(obs, gauss, PARAMS).grad(theta)
    assert g_gauss - g_uni == pytest.approx(-(theta - 600.0) / 200.0**2, rel=1e-9)


@pytest.mark.parametrize("classic", [False, True])
def test_gradient_matches_central_difference(classic):
    obs_a = _obs(n_obs=6, seed=13)
    obs_b = _obs(n_obs=6, seed=14, xi=(Q0, 0.4), label="sec1")
    obs = ObservationSet(obs_a.groups + obs_b.groups)
    prior = PriorSpec("gaussian", mean=600.0, std=200.0)
    rng = np.random.default_rng(15)
    h = 1e-3
    posterior = Posterior(obs, prior, PARAMS, classic_iid=classic)
    for theta in rng.uniform(350.0, 950.0, 20):
        analytic = posterior.grad(theta)
        hi = posterior(theta + h)
        lo = posterior(theta - h)
        central = (hi - lo) / (2.0 * h)
        assert abs(analytic - central) / (abs(analytic) + 1e-12) <= 1e-3
