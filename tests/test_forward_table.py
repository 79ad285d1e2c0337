"""Forward table: the shared Euler step, the Chebyshev table of F and its fallbacks."""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcbayes import bayes, porous_flow
from tcbayes import scenario as scenario_module
from tcbayes.bayes import (
    ChebyshevTable,
    ObservationGroup,
    ObservationSet,
    Posterior,
    PriorSpec,
    chebyshev_nodes,
    fit_table,
    table_thetas,
)
from tcbayes.cli import main
from tcbayes.porous_flow import (
    ModelParams,
    NonFiniteStateError,
    SingularDenominatorError,
    forward_pressure_at_mean,
    interface_state_batch,
)
from tcbayes.scenario import Scenario, ScenarioConfig

PARAMS = ModelParams()
POINT = (462.675, 0.111)
RANGE = (300.0, 1000.0)
_TABLES: dict = {}


def build_pressure_table(params, point, theta_range) -> ChebyshevTable | None:
    """The table of F at one point from its own march, or None, with the
    failure semantics of a scenario's tables."""
    thetas = table_thetas(theta_range)
    if thetas is None:
        return None
    try:
        tf, _, rho = interface_state_batch(params, *point, thetas)
    except (SingularDenominatorError, NonFiniteStateError):
        return None
    return fit_table(theta_range, tf * rho)


def _table() -> ChebyshevTable:
    if "table" not in _TABLES:
        _TABLES["table"] = build_pressure_table(PARAMS, POINT, RANGE)
    return _TABLES["table"]


# ---------------------------------------------------------------------------
# the batched march
# ---------------------------------------------------------------------------

_draw = st.tuples(
    st.floats(300.0, 1000.0),  # theta
    st.floats(0.0, 40000.0),  # q
    st.floats(0.05, 0.6),  # phi
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_draw, min_size=1, max_size=6), st.integers(1, 400))
def test_batched_march_equals_scalar_march_bit_for_bit(draws, n_steps):
    theta, q, phi = (np.array(column) for column in zip(*draws))
    try:
        scalar = [
            forward_pressure_at_mean(PARAMS, (qi, pi), ti, n_steps=n_steps) for ti, qi, pi in draws
        ]
    except (SingularDenominatorError, NonFiniteStateError):
        with pytest.raises((SingularDenominatorError, NonFiniteStateError)):
            interface_state_batch(PARAMS, q, phi, theta, n_steps=n_steps)
        return
    tf, _, rho = interface_state_batch(PARAMS, q, phi, theta, n_steps=n_steps)
    np.testing.assert_array_equal(tf * rho, np.array(scalar))


def test_batched_march_broadcasts_over_re():
    thetas = np.array([350.0, 700.0, 950.0])
    tf, ts, rho = interface_state_batch(PARAMS, POINT[0], POINT[1], thetas, n_steps=200)
    assert tf.shape == ts.shape == rho.shape == (3,)
    expected = [forward_pressure_at_mean(PARAMS, POINT, t, n_steps=200) for t in thetas]
    np.testing.assert_array_equal(tf * rho, expected)


def test_batched_march_rejects_nonpositive_re():
    with pytest.raises(ValueError, match="re must be positive"):
        interface_state_batch(PARAMS, POINT[0], POINT[1], np.array([500.0, 0.0]))


# ---------------------------------------------------------------------------
# the Chebyshev table
# ---------------------------------------------------------------------------


def test_chebyshev_table_reproduces_a_polynomial():
    nodes = chebyshev_nodes(-2.0, 3.0, 8)
    table = ChebyshevTable(-2.0, 3.0, nodes**5 - 4.0 * nodes + 1.0)
    # the degree-5 interpolant's two highest Chebyshev coefficients are roundoff
    assert (table.n_nodes, table.terms) == (8, 6)
    for x in np.linspace(-2.0, 3.0, 23):
        assert table(float(x)) == pytest.approx(x**5 - 4.0 * x + 1.0, rel=1e-12, abs=1e-12)


def test_array_table_chops_at_its_longest_entry():
    nodes = chebyshev_nodes(-2.0, 3.0, 8)
    columns = [nodes**5 - 4.0 * nodes + 1.0, 2.0 * nodes**2, np.full(8, 3.0)]
    table = ChebyshevTable(-2.0, 3.0, np.stack(columns, axis=1)[:, None, :])
    assert table.terms == 6
    for x in np.linspace(-2.0, 3.0, 23):
        got = table(float(x))
        assert got.shape == (1, 3)
        want = [x**5 - 4.0 * x + 1.0, 2.0 * x**2, 3.0]
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12)


def test_table_build_record():
    table = _table()
    assert table is not None
    assert (table.lo, table.hi, table.n_nodes) == (300.0, 1000.0, 32)
    # F is smooth: the chop keeps well under the 32 interpolation terms
    assert 1 <= table.terms < 32
    assert 0.0 <= table.max_rel_error <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(300.0, 1000.0))
def test_table_matches_direct_march(theta):
    direct = forward_pressure_at_mean(PARAMS, POINT, theta)
    assert abs(_table()(theta) - direct) <= 1e-12 * abs(direct)


def _group_obs(*points) -> ObservationSet:
    return ObservationSet(
        tuple(
            ObservationGroup(f"g{i}", np.array([5.99e5, 5.993e5]), 80.0, *point)
            for i, point in enumerate(points)
        )
    )


_PRIOR = PriorSpec("uniform", low=300.0, high=1000.0)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.floats(1.0, 299.999), st.floats(1000.001, 3000.0)))
# theta + fd_step lands on the table's lower end
@example(299.999)
def test_out_of_range_theta_uses_direct_march(theta):
    obs = _group_obs(POINT)
    tabled = Posterior(obs, _PRIOR, PARAMS, tables={POINT: _table()})
    direct = Posterior(obs, _PRIOR, PARAMS)
    assert tabled(theta) == direct(theta)
    assert _same(tabled.grad(theta), direct.grad(theta))


def test_other_settings_use_direct_march(monkeypatch):
    other = (400.0, 0.111)
    tabled = Posterior(_group_obs(POINT, other), _PRIOR, PARAMS, tables={POINT: _table()})
    direct = Posterior(_group_obs(POINT, other), _PRIOR, PARAMS)
    # the group at the other point marches; the tabled point agrees to the table's error
    assert tabled(600.0) == pytest.approx(direct(600.0), rel=0.0, abs=1e-9)
    marched = []

    def counting(params, point, theta):
        marched.append(point)
        return forward_pressure_at_mean(params, point, theta)

    monkeypatch.setattr(bayes, "forward_pressure_at_mean", counting)
    tabled(600.0)
    assert marched == [other]


def test_no_table_for_a_range_reaching_nonpositive_theta():
    assert build_pressure_table(PARAMS, POINT, (0.0, 1000.0)) is None


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------

_BAD_PHI = 0.3


@pytest.fixture
def singular_at_bad_phi(monkeypatch):
    """Every march at porosity _BAD_PHI hits the singular-denominator guard
    through ``_euler_step``, the one step of the scalar and batched marches."""
    real_step = porous_flow._euler_step
    bad_inv2 = 1.0 / (_BAD_PHI * _BAD_PHI)

    def step(tf, ts, rho, rhs, *dx):
        tf, ts, rho, denom = real_step(tf, ts, rho, rhs, *dx)
        return tf, ts, rho, np.where(rhs[-1] == bad_inv2, 0.0, denom)

    monkeypatch.setattr(porous_flow, "_euler_step", step)


def test_singular_group_keeps_inf_and_nan(singular_at_bad_phi):
    with pytest.raises(SingularDenominatorError):
        forward_pressure_at_mean(PARAMS, (POINT[0], _BAD_PHI), 700.0)
    assert build_pressure_table(PARAMS, (POINT[0], _BAD_PHI), RANGE) is None

    obs = ObservationSet(
        (
            ObservationGroup("good", np.array([4.0e5]), 80.0, *POINT),
            ObservationGroup("bad", np.array([4.0e5]), 80.0, POINT[0], _BAD_PHI),
        )
    )
    tables = {POINT: build_pressure_table(PARAMS, POINT, RANGE)}
    assert tables[POINT] is not None
    posterior = Posterior(obs, _PRIOR, PARAMS, tables=tables)
    assert posterior(700.0) == -math.inf
    assert math.isnan(posterior.grad(700.0))


def test_scenario_records_direct_for_a_singular_group(tiny_model2_dict, singular_at_bad_phi):
    obs = ObservationSet(
        (
            ObservationGroup("low_phi", np.array([4.0e5, 4.1e5]), 80.0, 462.675, 0.111),
            ObservationGroup("high_phi", np.array([4.0e5, 4.1e5]), 80.0, 462.675, _BAD_PHI),
        )
    )
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model2_dict))
    scenario._stages["observations"] = obs
    record = scenario.forward_tables()
    assert record["high_phi"] == "direct"
    assert record["low_phi"]["nodes"] == 32
    assert scenario.log_posterior(700.0) == -math.inf
    assert math.isnan(scenario.grad_log_posterior(700.0))


def test_a_singular_group_leaves_the_other_tables_built(tiny_model2_dict, monkeypatch):
    config = ScenarioConfig.from_dict(tiny_model2_dict)
    healthy = Scenario(config)
    want_exit, want_forward = healthy.exit_table(), healthy.forward_map()
    # only the high_phi group's element, moved to _BAD_PHI, hits the guard
    tiny_model2_dict["data"]["groups"][1]["porosity"] = _BAD_PHI
    good, bad = (462.675, 0.111), (462.675, _BAD_PHI)
    real_batch = scenario_module.march_batch

    def batch(params, q, phi, re, *args):
        states, singular = real_batch(params, q, phi, re, *args)
        q, phi, _ = np.broadcast_arrays(q, phi, re)
        return states, singular | ((q == bad[0]) & (phi == bad[1]))

    monkeypatch.setattr(scenario_module, "march_batch", batch)
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model2_dict))
    assert scenario.forward_tables()["high_phi"] == "direct"
    # the exit table and the other group's table are built as without the failure
    exit_table, forward = scenario.exit_table(), scenario.forward_map()
    assert set(forward) == {good}
    for got, want in ((exit_table, want_exit), (forward[good], want_forward[good])):
        assert (got.terms, got.max_rel_error) == (want.terms, want.max_rel_error)
        for theta in np.linspace(300.0, 1000.0, 29):
            assert np.array_equal(got(float(theta)), want(float(theta)))


# ---------------------------------------------------------------------------
# the pipeline with and without the table
# ---------------------------------------------------------------------------


def test_crw_chain_is_unchanged_by_the_table(tiny_model1_dict):
    config = ScenarioConfig.from_dict(tiny_model1_dict)
    tabled = Scenario(config)
    direct = Scenario(config)
    direct._stages["forward_tables"] = {}
    assert tabled.forward_tables()["obs"]["nodes"] == 32
    assert direct.forward_tables() == {"obs": "direct"}
    a, b = tabled.run_chain(seed=4), direct.run_chain(seed=4)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_allclose(a.log_post, b.log_post, rtol=0.0, atol=1e-9)


def test_provenance_records_forward_tables(tiny_model1_dict, write_config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tiny_model1_dict), "--output", out]) == 0
    with open(os.path.join(out, "provenance.json")) as fh:
        record = json.load(fh)["forward_tables"]
    assert record["obs"]["nodes"] == 32
    assert 1 <= record["obs"]["terms"] <= 32
    assert 0.0 <= record["obs"]["max_rel_error"] <= 1e-12


# ---------------------------------------------------------------------------
# particle initialisation under a gaussian prior
# ---------------------------------------------------------------------------


def _gaussian_model1(tiny_model1_dict):
    cfg = copy.deepcopy(tiny_model1_dict)
    cfg["prior"] = {"kind": "gaussian", "mean": 600.0, "std": 200.0}
    return cfg


def test_initial_particles_redraw_nonpositive_values(tiny_model1_dict):
    scenario = Scenario(ScenarioConfig.from_dict(_gaussian_model1(tiny_model1_dict)))
    raw = 600.0 + 200.0 * np.random.default_rng(13).standard_normal(50)
    assert raw.min() <= 0.0  # seed 13 draws a nonpositive Reynolds number
    particles = scenario.initial_particles(50, seed=13)
    assert np.all(np.isfinite(particles)) and particles.min() > 0.0
    keep = raw > 0.0
    np.testing.assert_array_equal(particles[keep], raw[keep])
    # a seed without such a draw keeps its particles
    raw0 = 600.0 + 200.0 * np.random.default_rng(0).standard_normal(50)
    assert raw0.min() > 0.0
    np.testing.assert_array_equal(scenario.initial_particles(50, seed=0), raw0)


def test_particle_compare_is_finite_at_seed_13(tiny_model1_dict, write_config, tmp_path):
    cfg = _gaussian_model1(tiny_model1_dict)
    particle_block = {"n_particles": 50, "n_generations": 6, "step_size": 5.0}
    cfg["compare"] = {
        "samplers": {
            "csvgd": {**particle_block, "delta": 0.2},
            "projected_svgd": dict(particle_block),
        },
        "checkpoints": [150, 300],
    }
    out = str(tmp_path / "out")
    rc = main(
        ["compare", "--config", write_config(cfg), "--output", out, "--seed", "13",
         "--samplers", "csvgd,projected_svgd"]
    )
    assert rc == 0
    with open(os.path.join(out, "compare.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert len(rows) == 4
    assert all(math.isfinite(float(row[2])) for row in rows)
