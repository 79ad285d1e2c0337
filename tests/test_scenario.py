"""Scenario configuration parsing, validation and orchestration."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from tcbayes import scenario as scenario_module
from tcbayes.bayes import TABLE_NODES, TABLE_TOL, fit_table, table_record, table_thetas
from tcbayes.cli import resolve_config
from tcbayes.chance_constraint import CACHE_QUANTUM
from tcbayes.gpc import porosity_projection, strip_exit_law
from tcbayes.porous_flow import (
    SingularDenominatorError,
    forward_pressure_at_mean,
    interface_state_batch,
)
from tcbayes.samplers import MarkovChain, ParticleHistory
from tcbayes.scenario import (
    ConfigError,
    Scenario,
    ScenarioConfig,
    load_observations,
    strip_flux_profile,
)


# ---------------------------------------------------------------------------
# schema-level validation
# ---------------------------------------------------------------------------


def test_tiny_config_parses(tiny_model1_dict):
    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    assert cfg.model == 1
    assert cfg.order == 2
    assert cfg.n_quad == 4
    assert cfg.constraint.beta == 343.2
    assert cfg.constraint.alpha == 0.95
    assert cfg.prior.kind == "uniform"
    assert cfg.sampler["kind"] == "crw"
    # defaults fill in
    assert cfg.sampler["n_chains"] == 1
    assert cfg.sampler["burn_in_fraction"] == 0.1
    assert cfg.sampler["delta"] == 0.0


@pytest.mark.parametrize("name", ["model1", "model2", "model3"])
def test_shipped_configs_compare_equal(name):
    assert resolve_config(name) == resolve_config(name)


def test_unknown_key_rejected(tiny_model1_dict):
    tiny_model1_dict["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_unknown_nested_key_rejected(tiny_model1_dict):
    tiny_model1_dict["constraint"]["treshold"] = 343.2  # typo must not pass silently
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_underscore_notes_ignored(tiny_model1_dict):
    tiny_model1_dict["_note"] = "free-form commentary"
    tiny_model1_dict["constraint"]["_why"] = "documented choice"
    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    assert cfg.constraint.beta == 343.2


def test_missing_required_block(tiny_model1_dict):
    del tiny_model1_dict["prior"]
    with pytest.raises(ConfigError, match="prior"):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_load_from_file(tiny_model1_dict, write_config):
    path = write_config(tiny_model1_dict)
    cfg = ScenarioConfig.load(path)
    assert cfg.model == 1
    assert cfg.raw["seed"] == 0


# ---------------------------------------------------------------------------
# model/germ coherence
# ---------------------------------------------------------------------------


def test_model1_rejects_geometry(tiny_model1_dict, tiny_model2_dict):
    tiny_model1_dict["geometry"] = tiny_model2_dict["geometry"]
    with pytest.raises(ConfigError, match="geometry"):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_model1_requires_q_and_phi(tiny_model1_dict):
    del tiny_model1_dict["germ"]["phi"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_model2_takes_exactly_one_flux_variable(tiny_model2_dict):
    tiny_model2_dict["germ"]["phi"] = {"mean": 0.111, "std": 0.01}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(tiny_model2_dict)


def test_model3_strip_count_must_match_geometry(tiny_model2_dict):
    cfg = tiny_model2_dict
    cfg["model"] = 3
    cfg["germ"] = {"strips": [{"mean": 460.0, "std": 14.0}] * 3}  # geometry has 4
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(cfg)


def test_model3_explicit_strips(tiny_model2_dict):
    cfg = tiny_model2_dict
    cfg["model"] = 3
    cfg["germ"] = {"strips": [{"mean": 450.0 + i, "std": 14.0} for i in range(4)]}
    parsed = ScenarioConfig.from_dict(cfg)
    names = [v.name for v in parsed.germ.variables]
    assert names == ["q_00", "q_01", "q_02", "q_03"]
    assert [v.mean for v in parsed.germ.variables] == [450.0, 451.0, 452.0, 453.0]


def test_model3_rule_strips(tiny_model2_dict):
    cfg = tiny_model2_dict
    cfg["model"] = 3
    cfg["germ"] = {
        "strips": {
            "rule": "sinusoidal",
            "base_mean": 462.675,
            "amplitude": 0.18,
            "periods": 1.0,
            "relative_std": 0.03,
        }
    }
    parsed = ScenarioConfig.from_dict(cfg)
    assert len(parsed.germ.variables) == 4
    means = np.array([v.mean for v in parsed.germ.variables])
    expected, _ = strip_flux_profile(cfg["germ"]["strips"], 4)
    np.testing.assert_allclose(means, expected)


def test_strip_flux_profile_values():
    rule = {
        "rule": "sinusoidal",
        "base_mean": 100.0,
        "amplitude": 0.5,
        "periods": 1.0,
        "relative_std": 0.1,
    }
    means, stds = strip_flux_profile(rule, 8)
    centers = (np.arange(8) + 0.5) / 8.0
    np.testing.assert_allclose(means, 100.0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * centers)))
    np.testing.assert_allclose(stds, 0.1 * means)


def test_strip_flux_profile_guards():
    with pytest.raises(ConfigError):
        strip_flux_profile({"rule": "sawtooth", "base_mean": 1.0}, 4)
    with pytest.raises(ConfigError):
        # amplitude > 1 drives some strip means negative
        strip_flux_profile(
            {
                "rule": "sinusoidal",
                "base_mean": 100.0,
                "amplitude": 1.5,
                "periods": 1.0,
                "relative_std": 0.1,
            },
            8,
        )


# ---------------------------------------------------------------------------
# sampler / data / scan blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,block",
    [
        ("crw", {"kind": "crw", "n_samples": 100}),  # proposal_std missing
        ("chmc", {"kind": "chmc", "step": 1.0, "max_leapfrog": 5, "n_samples": 10}),
        ("csvgd", {"kind": "csvgd", "n_generations": 5, "step_size": 0.1}),
        ("projected_svgd", {"kind": "projected_svgd", "n_particles": 8, "step_size": 0.1}),
    ],
)
def test_sampler_required_fields(tiny_model1_dict, kind, block):
    tiny_model1_dict["sampler"] = block
    with pytest.raises(ConfigError, match=kind):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_unknown_sampler_kind(tiny_model1_dict):
    tiny_model1_dict["sampler"] = {"kind": "nuts", "n_samples": 10}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_data_needs_truth_or_path(tiny_model1_dict):
    tiny_model1_dict["data"] = {"n_obs": 4}
    with pytest.raises(ConfigError, match="theta_true"):
        ScenarioConfig.from_dict(tiny_model1_dict)


def test_data_group_labels_unique(tiny_model2_dict):
    tiny_model2_dict["data"]["groups"] = [
        {"label": "same", "porosity": 0.111},
        {"label": "same", "porosity": 0.4},
    ]
    with pytest.raises(ConfigError, match="unique"):
        ScenarioConfig.from_dict(tiny_model2_dict)


def test_theta_range_sources(tiny_model1_dict):
    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    assert cfg.theta_range() == (300.0, 1000.0)

    # without a scan block, a uniform prior supplies its support
    del tiny_model1_dict["scan"]
    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    assert cfg.theta_range() == (300.0, 1000.0)

    # a wide gaussian prior is clamped away from nonpositive Reynolds numbers
    tiny_model1_dict["prior"] = {"kind": "gaussian", "mean": 600.0, "std": 200.0}
    cfg = ScenarioConfig.from_dict(tiny_model1_dict)
    lo, hi = cfg.theta_range()
    assert lo == 1.0  # 600 - 4*200 < 0
    assert hi == 600.0 + 4.0 * 200.0


def test_packaged_configs_are_coherent():
    from tcbayes.cli import PACKAGED_SCENARIOS, packaged_config_text

    for idx, name in enumerate(PACKAGED_SCENARIOS, start=1):
        cfg = ScenarioConfig.from_dict(json.loads(packaged_config_text(name)))
        assert cfg.model == idx
    model3 = ScenarioConfig.from_dict(json.loads(packaged_config_text("model3")))
    assert len(model3.germ.variables) == 60
    assert model3.geometry is not None and model3.geometry.n_strips == 60


# ---------------------------------------------------------------------------
# Scenario orchestration (tiny configs, fast)
# ---------------------------------------------------------------------------


def test_scan_is_cached(tiny_scenario):
    first = tiny_scenario.scan()
    assert first is tiny_scenario.scan()
    assert len(first.intervals) >= 1
    lo, hi = first.intervals[0]
    assert 300.0 < lo < hi <= 1000.0


def test_feasibility_matches_intervals(tiny_scenario):
    member = tiny_scenario.feasibility()
    intervals = tiny_scenario.intervals()
    for theta in (350.0, 500.0, 600.0, 700.0, 950.0):
        inside = any(lo <= theta <= hi for lo, hi in intervals)
        assert bool(member(theta)) == inside


def test_observations_deterministic(tiny_model1_dict):
    a = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    b = Scenario(ScenarioConfig.from_dict(tiny_model1_dict)).observations()
    assert len(a.groups) == 1
    np.testing.assert_array_equal(a.groups[0].values, b.groups[0].values)
    assert a.groups[0].values.shape == (4,)


def test_observation_groups_use_their_own_settings(tiny_model2_dict):
    obs = Scenario(ScenarioConfig.from_dict(tiny_model2_dict)).observations()
    assert [g.label for g in obs.groups] == ["low_phi", "high_phi"]
    assert obs.groups[0].porosity == 0.111
    assert obs.groups[1].porosity == 0.4
    # different porosity shifts the exit pressure, so the draws must differ
    assert not np.allclose(obs.groups[0].values, obs.groups[1].values)


def test_posterior_support_and_gradient(tiny_scenario):
    log_post = tiny_scenario.log_posterior
    assert math.isfinite(log_post(700.0))
    # outside the uniform support only the tiny floor density remains
    assert log_post(200.0) < log_post(700.0) - 600.0
    assert log_post(-5.0) == -math.inf  # unphysical Reynolds number

    grad = tiny_scenario.grad_log_posterior
    h = 0.5
    fd = (log_post(700.0 + h) - log_post(700.0 - h)) / (2.0 * h)
    assert abs(grad(700.0) - fd) <= 1e-3 * max(1.0, abs(fd))


def test_penalized_grad_nudges_toward_feasible_set(tiny_scenario):
    delta = 0.2
    raw = tiny_scenario.grad_log_posterior
    pen = tiny_scenario.penalized_grad(delta)
    intervals = tiny_scenario.intervals()
    lo = intervals[0][0]

    inside = 0.5 * (lo + intervals[-1][1])
    assert pen(inside) == pytest.approx(raw(inside), abs=1e-12)

    below = lo - 50.0  # infeasible, inside prior support
    assert pen(below) == pytest.approx(raw(below) + delta, abs=1e-12)

    above = 1050.0  # past the prior support: penalty plus support guard
    assert pen(above) == pytest.approx(raw(above) - 2.0 * delta, abs=1e-12)


def test_initial_particles_from_prior(tiny_scenario):
    particles = tiny_scenario.initial_particles(64, seed=3)
    assert particles.shape == (64,)
    assert np.all(particles >= 300.0) and np.all(particles <= 1000.0)
    np.testing.assert_array_equal(particles, tiny_scenario.initial_particles(64, seed=3))


def test_theta_init_fallbacks(tiny_model1_dict):
    s = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    assert s.theta_init() == 700.0

    del tiny_model1_dict["sampler"]["theta_init"]
    s = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    assert s.theta_init() == 700.0  # falls back to data.theta_true

    tiny_model1_dict["data"] = {"path": "unused.csv"}
    s = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    with pytest.raises(ConfigError, match="theta_init"):
        s.theta_init()


def test_chain_seeds_offset_master_seed(tiny_model1_dict):
    tiny_model1_dict["seed"] = 11
    tiny_model1_dict["sampler"]["n_chains"] = 3
    s = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    assert s.chain_seeds() == [11, 12, 13]


def test_run_chain_dispatch_all_kinds(tiny_model1_dict):
    base = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    chain = base.run_chain(0)
    assert isinstance(chain, MarkovChain)
    assert chain.samples.shape == (300,)
    assert chain.feasible_fraction == 1.0  # hard-constrained walk never leaves S

    chmc = base.with_sampler(
        {
            "kind": "chmc",
            "mass": 1.0,
            "step": 25.0,
            "max_leapfrog": 4,
            "n_samples": 60,
            "theta_init": 700.0,
            "delta": 0.2,
        }
    ).run_chain(0)
    assert isinstance(chmc, MarkovChain)
    assert chmc.samples.shape == (60,)

    for kind in ("csvgd", "projected_svgd"):
        block = {
            "kind": kind,
            "n_particles": 8,
            "n_generations": 12,
            "step_size": 0.5 if kind == "projected_svgd" else 5.0,
            "delta": 0.2,
        }
        hist = base.with_sampler(block).run_chain(0)
        assert isinstance(hist, ParticleHistory)
        assert hist.generations.shape == (13, 8)  # initial state plus 12 updates
        seconds = hist.cumulative_seconds
        assert len(seconds) == 12
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))  # cumulative


def test_with_sampler_shares_caches(tiny_scenario):
    scan = tiny_scenario.scan()
    obs = tiny_scenario.observations()
    clone = tiny_scenario.with_sampler(
        {"kind": "crw", "proposal_std": 90.0, "n_samples": 50, "theta_init": 700.0}
    )
    assert clone.scan() is scan
    assert clone.observations() is obs
    assert clone.exit_table() is tiny_scenario.exit_table() is not None
    assert clone.config.sampler["proposal_std"] == 90.0


def test_reference_density_integrates_to_one(tiny_scenario):
    ref = tiny_scenario.reference()
    mass = np.trapezoid(ref.density, ref.grid)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # density vanishes outside the feasible set
    lo = tiny_scenario.intervals()[0][0]
    assert np.all(ref.density[ref.grid < lo - 1e-9] == 0.0)


def test_mean_field_snapshot_model1_unsupported(tiny_scenario):
    with pytest.raises(ConfigError):
        tiny_scenario.mean_field_snapshot(700.0, 0.1)


def test_mean_field_snapshot_model2(tiny_model2_dict):
    s = Scenario(ScenarioConfig.from_dict(tiny_model2_dict))
    initial = s.mean_field_snapshot(700.0, 0.0)
    late = s.mean_field_snapshot(700.0, 0.5)
    assert initial.values.shape == (120,)
    assert late.time == pytest.approx(0.5)
    # diffusion flattens the profile
    assert late.values.max() - late.values.min() < initial.values.max() - initial.values.min()


def _tiny_config(model, tiny_model1_dict, tiny_model2_dict) -> ScenarioConfig:
    if model == 1:
        return ScenarioConfig.from_dict(tiny_model1_dict)
    cfg = tiny_model2_dict
    if model == 3:
        cfg["model"] = 3
        cfg["germ"] = {"strips": [{"mean": 450.0 + 5 * i, "std": 14.0} for i in range(4)]}
    return ScenarioConfig.from_dict(cfg)


def _factory_coeffs(scenario: Scenario, theta: float) -> np.ndarray:
    surrogate = scenario.surrogate_factory()(theta)
    return surrogate._coeff if scenario.config.model == 1 else surrogate.isurr.coeffs


def assert_same_table(got, want) -> None:
    """Two Chebyshev tables hold the same numbers."""
    assert (got.lo, got.hi, got.terms, got.max_rel_error) == (want.lo, want.hi, want.terms, want.max_rel_error)
    for theta in np.linspace(got.lo, got.hi, 41):
        assert np.array_equal(got(float(theta)), want(float(theta)))


@pytest.mark.parametrize("model", [1, 2, 3])
def test_one_march_builds_the_tables_of_separate_marches(model, tiny_model1_dict, tiny_model2_dict):
    scenario = Scenario(_tiny_config(model, tiny_model1_dict, tiny_model2_dict))
    config = scenario.config
    theta_range = config.theta_range()
    thetas = table_thetas(theta_range)
    assert_same_table(scenario.exit_table(), fit_table(theta_range, scenario._strip_exit_coeffs(thetas)))
    points = {g.evaluation_point(config.params) for g in scenario.observations().groups}
    assert set(scenario.forward_map()) == points
    for point, table in scenario.forward_map().items():
        tf, _, rho = interface_state_batch(config.params, *point, thetas)
        assert_same_table(table, fit_table(theta_range, tf * rho))


@pytest.mark.parametrize("model", [1, 2, 3])
def test_exit_table_matches_the_direct_march(model, tiny_model1_dict, tiny_model2_dict):
    scenario = Scenario(_tiny_config(model, tiny_model1_dict, tiny_model2_dict))
    table = scenario.exit_table()
    assert table_record(table)["nodes"] == TABLE_NODES
    assert 1 <= table.terms <= TABLE_NODES
    assert 0.0 <= table.max_rel_error <= TABLE_TOL
    thetas = [350.0, 612.5, 987.25]
    for theta, direct in zip(thetas, scenario._strip_exit_coeffs(thetas)):
        got = _factory_coeffs(scenario, theta)
        np.testing.assert_array_equal(got, table(theta))
        assert got.shape == direct.shape
        assert np.abs(got - direct).max() <= TABLE_TOL * np.abs(direct).max()


@pytest.mark.parametrize("model", [1, 2, 3])
def test_out_of_range_theta_marches_alone(model, tiny_model1_dict, tiny_model2_dict):
    config = _tiny_config(model, tiny_model1_dict, tiny_model2_dict)
    scenario = Scenario(config)
    for theta in (250.0, 1200.0):
        want = scenario._strip_exit_coeffs([theta])[0]
        np.testing.assert_array_equal(_factory_coeffs(scenario, theta), want)
    # no visit inside the range, so no table was built
    assert "exit_table" not in scenario._stages and "tables" not in scenario._stages


def _frozen_strip_exit_coeffs(config: ScenarioConfig, thetas) -> np.ndarray:
    """``Scenario._strip_exit_coeffs`` as it stood on ``Scenario._strips``,
    with models 2 and 3's per-strip flux means and stds parsed from the
    config document as ``ScenarioConfig.strip_means``/``strip_stds`` were."""
    if config.model == 1:
        q, phi = config.germ.variables
        porosities, project = porosity_projection(phi, config.order, config.n_quad)
        means, stds = np.full(porosities.size, q.mean), np.full(porosities.size, q.std)
    else:
        germ_cfg, n = config.raw["germ"], config.geometry.n_strips
        porosities, project = config.geometry.strip_porosities(), None
        if config.model == 2:
            means, stds = np.full(n, float(germ_cfg["q"]["mean"])), np.full(n, float(germ_cfg["q"]["std"]))
        elif isinstance(germ_cfg["strips"], dict):
            means, stds = strip_flux_profile(germ_cfg["strips"], n)
        else:
            means = np.array([float(s["mean"]) for s in germ_cfg["strips"]])
            stds = np.array([float(s["std"]) for s in germ_cfg["strips"]])
    q, phi, exit_law = strip_exit_law(means, stds, porosities)
    thetas = np.ravel(thetas)[:, None, None]
    tf, _, _ = interface_state_batch(config.params, q, phi, thetas, config.n_steps)
    coeffs = exit_law(tf)
    return coeffs if project is None else project @ coeffs


@pytest.mark.parametrize("name", ["model1", "model2", "model3"])
def test_strip_exit_coeffs_are_the_frozen_strips_build_bit_for_bit(name):
    config = resolve_config(name)
    scenario = Scenario(config)
    thetas = (300.0, 700.0, 1200.0)
    want = _frozen_strip_exit_coeffs(config, thetas)
    for got in (scenario._strip_exit_coeffs(thetas), [scenario._strip_exit_coeffs([t])[0] for t in thetas]):
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("model", [1, 2, 3])
def test_tiny_strip_exit_coeffs_are_the_frozen_strips_build(model, tiny_model1_dict, tiny_model2_dict):
    # model 3 with an explicit list of strip germs, as the shipped config is a rule
    config = _tiny_config(model, tiny_model1_dict, tiny_model2_dict)
    thetas = (300.0, 700.0, 1200.0)
    got = Scenario(config)._strip_exit_coeffs(thetas)
    np.testing.assert_array_equal(got.view(np.int64), _frozen_strip_exit_coeffs(config, thetas).view(np.int64))


# (625, 655) holds the table node 632.8 and the coarse scan theta 650
_WINDOW = (625.0, 655.0)


def _singular_in_window(monkeypatch) -> list:
    """Every march at a theta in _WINDOW hits the guard: the scenario's one
    march records it for each element there, a one-theta march raises.
    Returns the list that collects the thetas of each of the scenario's marches."""
    real_batch, real_march = scenario_module.march_batch, scenario_module.interface_state_batch
    marches = []

    def batch(params, q, phi, re, *args):
        marches.append(re)
        states, singular = real_batch(params, q, phi, re, *args)
        thetas = np.broadcast_arrays(q, phi, re)[2]
        return states, singular | ((thetas > _WINDOW[0]) & (thetas < _WINDOW[1]))

    def march(params, q, phi, re, *args, **kwargs):
        re_arr = np.asarray(re)
        if np.any((re_arr > _WINDOW[0]) & (re_arr < _WINDOW[1])):
            raise SingularDenominatorError("synthetic singular denominator")
        return real_march(params, q, phi, re, *args, **kwargs)

    monkeypatch.setattr(scenario_module, "march_batch", batch)
    monkeypatch.setattr(scenario_module, "interface_state_batch", march)
    return marches


def test_singular_table_node_leaves_every_theta_to_its_own_march(monkeypatch, tiny_model1_dict):
    window = _WINDOW
    tabled = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    tabled.scan()
    _singular_in_window(monkeypatch)
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    scenario.scan()
    assert table_record(scenario.exit_table()) == "direct"
    oracle = scenario.oracle()
    failed = [k * CACHE_QUANTUM for k, p in oracle._probabilities.items() if math.isnan(p)]
    assert failed and all(window[0] < theta < window[1] for theta in failed)
    assert oracle.counters()["build_failures"] == len(failed)
    assert oracle.counters()["evaluations"] == len(oracle._probabilities)
    # every other visited theta marched alone, within roundoff of the table's P
    for key, prob in oracle._probabilities.items():
        if not math.isnan(prob):
            want = tabled.oracle().probability(key * CACHE_QUANTUM)
            assert abs(prob - want) <= 1e-11


def test_a_failed_exit_table_is_attempted_once(monkeypatch, tiny_model1_dict):
    # the synthetic singular window of the test above; the chain asks the
    # oracle at every proposal, so each one would retry an uncached failure
    builds = _singular_in_window(monkeypatch)
    tiny_model1_dict["constraint"]["oracle"] = "surrogate"
    tiny_model1_dict["sampler"]["n_samples"] = 100
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    scenario.scan()
    chain = scenario.run_chain(0)
    assert scenario.exit_table() is None
    # one table stage: the exit law marches the config's 400 steps, the
    # forward model the default 1000, so the stage makes two calls; without a
    # forward table the chain's first posterior call builds the extension
    # pieces, in one more
    assert len(builds) == 3 and len(chain) == 100


def test_a_stage_a_clone_builds_is_shared_with_its_base(tiny_model1_dict):
    base = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    chmc = {"kind": "chmc", "mass": 1.0, "step": 5.0, "max_leapfrog": 4, "n_samples": 10}
    clone, other = base.with_sampler(chmc), base.with_sampler(chmc)
    assert clone.posterior() is base.posterior() is other.posterior()
    assert clone.forward_map() is base.forward_map() is other.forward_map()
    assert clone.config.sampler["kind"] == "chmc" and base.config.sampler["kind"] == "crw"


def test_surrogate_oracle_mode_asks_the_oracle_at_every_proposal(tiny_model1_dict):
    tiny_model1_dict["constraint"]["oracle"] = "surrogate"
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    oracle, asked = scenario.oracle(), []
    probability = oracle.probability

    def recording(theta):
        asked.append(theta)
        return probability(theta)

    oracle.probability = recording
    chain = scenario.run_chain(0)
    # the start, then every proposal, and no frozen scan in between
    assert len(asked) == 1 + len(chain) and "scan" not in scenario._stages
    assert set(chain.samples) <= set(asked) and oracle.evaluations > 1
    alpha = scenario.config.constraint.alpha
    assert all(probability(theta) >= alpha for theta in chain.samples)


@pytest.mark.parametrize(
    "model, interval",
    [(1, (540.283203125, 1000.0)), (2, (589.16015625, 1000.0)), (3, (499.609375, 1000.0))],
)
def test_shipped_scan_boundaries(model, interval):
    assert Scenario(resolve_config(f"model{model}")).scan().intervals == (interval,)


def test_observations_csv_roundtrip(tiny_scenario, tmp_path):
    obs = tiny_scenario.observations()
    csv_path = tmp_path / "observations.csv"
    prov_path = tmp_path / "observations.json"
    obs.to_csv(str(csv_path))
    obs.save_provenance(str(prov_path))

    loaded = load_observations(str(csv_path), str(prov_path))
    assert [g.label for g in loaded.groups] == [g.label for g in obs.groups]
    for got, want in zip(loaded.groups, obs.groups):
        np.testing.assert_allclose(got.values, want.values)
        assert got.noise_std == want.noise_std
        assert got.heat_flux == want.heat_flux
        assert got.porosity == want.porosity


def test_observation_provenance_sorted_and_round_trips(tiny_model2_dict, tmp_path):
    obs = Scenario(ScenarioConfig.from_dict(tiny_model2_dict)).observations()
    csv_path, prov_path = tmp_path / "observations.csv", tmp_path / "observations.json"
    obs.to_csv(str(csv_path))
    obs.save_provenance(str(prov_path))
    text = prov_path.read_text()
    # written by the one JSON writer: indent 2, sorted keys, one final newline
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    loaded = load_observations(str(csv_path), str(prov_path))
    assert [g.provenance for g in loaded.groups] == [g.provenance for g in obs.groups]
    assert [g.label for g in loaded.groups] == ["low_phi", "high_phi"]
    for got, want in zip(loaded.groups, obs.groups):
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.noise_std, got.heat_flux, got.porosity) == (
            want.noise_std, want.heat_flux, want.porosity
        )


def test_shipped_model2_groups_carry_their_own_provenance(tmp_path):
    scenario = Scenario(resolve_config("model2"))
    path = tmp_path / "observations.json"
    scenario.observations().save_provenance(str(path))
    meta = json.loads(path.read_text())
    assert set(meta) == {"groups"}  # nothing of one group stands for the whole set
    assert [(g["label"], g["seed"]) for g in meta["groups"]] == [("low_phi", 0), ("high_phi", 1)]
    theta_true = scenario.config.data.theta_true
    for entry in meta["groups"]:
        point = (entry["heat_flux"], entry["porosity"])
        assert entry["xi_true"] == list(point) and entry["theta_true"] == theta_true
        want = forward_pressure_at_mean(scenario.config.params, point, theta_true)
        assert entry["pressure_true"] == want


def test_loaded_observations_drive_posterior(tiny_model1_dict, tmp_path, write_config):
    source = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    csv_path = tmp_path / "obs.csv"
    prov_path = tmp_path / "obs.json"
    source.observations().to_csv(str(csv_path))
    source.observations().save_provenance(str(prov_path))

    tiny_model1_dict["data"] = {"path": str(csv_path)}
    path = write_config(tiny_model1_dict, "from_file.json")
    replayed = Scenario(ScenarioConfig.load(path))
    assert replayed.log_posterior(700.0) == pytest.approx(source.log_posterior(700.0))


@pytest.mark.parametrize("model", [1, 2, 3])
def test_oracle_counts_monte_carlo_draws(model, tiny_model1_dict, tiny_model2_dict):
    cfg = tiny_model1_dict if model == 1 else tiny_model2_dict
    if model == 3:
        cfg["model"] = 3
        cfg["germ"] = {"strips": [{"mean": 450.0 + i, "std": 14.0} for i in range(4)]}
    scenario = Scenario(ScenarioConfig.from_dict(cfg))
    scenario.scan()
    counters = scenario.oracle().counters()
    assert counters["evaluations"] > 0
    # models 1 and 2 have exact probabilities; the four strips of this model 3
    # keep four principal axes, more than the kernel takes, so it draws its
    # sample per evaluation
    per_evaluation = cfg["constraint"]["n_prob_samples"] if model == 3 else 0
    assert counters["mc_draws"] == counters["evaluations"] * per_evaluation
