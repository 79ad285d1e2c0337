"""The closed-form Posterior against the per-observation formula it replaces,
and against the closed form as it was written before its laws were shared."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcbayes import porous_flow
from tcbayes.bayes import (
    DEFAULT_FD_STEP,
    ObservationGroup,
    ObservationSet,
    Posterior,
    PriorSpec,
    fit_table,
    table_thetas,
)
from tcbayes.diagnostics import reference_posterior
from tcbayes.porous_flow import (
    ModelParams,
    NonFiniteStateError,
    SingularDenominatorError,
    interface_state_batch,
)
from tcbayes.samplers import run_crw
from tcbayes.scenario import Scenario, ScenarioConfig
from test_porous_flow import frozen_forward as forward_pressure_at_mean

PARAMS = ModelParams()
TABLED = (462.675, 0.111)
MARCHED = (462.675, 0.4)
_TABLES: dict = {}


def _tables() -> dict:
    if not _TABLES:
        tf, _, rho = interface_state_batch(PARAMS, *TABLED, table_thetas((300.0, 1000.0)))
        _TABLES[TABLED] = fit_table((300.0, 1000.0), tf * rho)
    return _TABLES


# ---------------------------------------------------------------------------
# the per-observation formula, frozen as it was before the closed form
# ---------------------------------------------------------------------------

_FAILURES = (SingularDenominatorError, NonFiniteStateError)


def _forward(params, point, theta, tables):
    table = tables.get(point)
    if table is not None and table.lo <= theta <= table.hi:
        return table(theta)
    return forward_pressure_at_mean(params, point, theta)


def reference_log_posterior(theta, obs, prior, params, classic_iid, tables):
    lp = frozen_log_prior(theta, prior)
    if not theta > 0.0:
        return lp - math.inf
    total = 0.0
    for group in obs.groups:
        try:
            pressure = _forward(params, group.evaluation_point(params), theta, tables)
        except _FAILURES:
            return lp - math.inf
        residual_sq = float(np.sum((group.values - pressure) ** 2))
        n = group.values.size
        sigma = group.noise_std
        if classic_iid:
            total += -n * math.log(math.sqrt(2.0 * math.pi) * sigma) - residual_sq / (2.0 * sigma**2)
        else:
            total += -math.log(math.sqrt(2.0 * math.pi) * sigma) - residual_sq / (2.0 * n * sigma**2)
    return lp + total


def reference_grad(theta, obs, prior, params, classic_iid, tables, fd_step=DEFAULT_FD_STEP):
    if not theta > 0.0:
        return math.nan
    grad = -(theta - prior.mean) / prior.std**2 if prior.kind == "gaussian" else 0.0
    try:
        for group in obs.groups:
            point = group.evaluation_point(params)
            pressure = _forward(params, point, theta, tables)
            dpressure = (_forward(params, point, theta + fd_step, tables) - pressure) / fd_step
            residual_sum = float(np.sum(group.values - pressure))
            n = group.values.size
            sigma = group.noise_std
            if classic_iid:
                grad += residual_sum * dpressure / sigma**2
            else:
                grad += residual_sum * dpressure / (n * sigma**2)
    except _FAILURES:
        return math.nan
    return grad


# ---------------------------------------------------------------------------
# the closed form, frozen as it was before the prior, the group term and the
# Clenshaw recurrence were each written once
# ---------------------------------------------------------------------------


def frozen_log_prior(theta, prior):
    if prior.kind == "gaussian":
        z = (theta - prior.mean) / prior.std
        return -math.log(math.sqrt(2.0 * math.pi) * prior.std) - 0.5 * z * z
    if prior.low <= theta <= prior.high:
        return -math.log(prior.high - prior.low)
    return math.log(prior.floor)


def _frozen_group(group, classic_iid):
    values = group.values
    n = values.size
    ybar = float(np.mean(values))
    ybar_rem = math.fsum(values - ybar) / n
    ss = math.fsum(((values - ybar) - ybar_rem) ** 2)
    sigma = group.noise_std
    if classic_iid:
        norm = -n * math.log(math.sqrt(2.0 * math.pi) * sigma)
        scale = 1.0 / (2.0 * sigma**2)
    else:
        norm = -math.log(math.sqrt(2.0 * math.pi) * sigma)
        scale = 1.0 / (2.0 * n * sigma**2)
    return n, ybar, ybar_rem, ss, norm, scale


def frozen_log_likelihood(theta, obs, params, classic_iid, tables):
    if not theta > 0.0:
        return -math.inf
    total = 0.0
    try:
        for group in obs.groups:
            n, ybar, ybar_rem, ss, norm, scale = _frozen_group(group, classic_iid)
            misfit = (_forward(params, group.evaluation_point(params), theta, tables) - ybar) - ybar_rem
            total += norm - scale * (n * misfit * misfit + ss)
    except _FAILURES:
        return -math.inf
    return total


def frozen_grad(theta, obs, prior, params, classic_iid, tables, fd_step=DEFAULT_FD_STEP):
    if not theta > 0.0:
        return math.nan
    grad = -(theta - prior.mean) / prior.std**2 if prior.kind == "gaussian" else 0.0
    try:
        for group in obs.groups:
            n, ybar, ybar_rem, _, _, scale = _frozen_group(group, classic_iid)
            point = group.evaluation_point(params)
            table = tables.get(point)
            # outside the table's range both ends are marched
            marched = {} if table is None or not table.lo <= theta <= table.hi else tables
            pressure = _forward(params, point, theta, marched)
            pressure_h = _forward(params, point, theta + fd_step, marched)
            residual_sum = n * ((ybar - pressure) + ybar_rem)
            grad += 2.0 * scale * residual_sum * (pressure_h - pressure) / fd_step
    except _FAILURES:
        return math.nan
    return grad


# ---------------------------------------------------------------------------
# random groups
# ---------------------------------------------------------------------------

_group = st.tuples(
    st.lists(st.floats(5.98e5, 6.01e5), min_size=1, max_size=20),  # values
    st.floats(1.0, 200.0),  # noise std
    st.sampled_from([TABLED, MARCHED]),  # evaluation point
)
_prior = st.one_of(
    st.just(PriorSpec("uniform", low=300.0, high=1000.0)),
    st.just(PriorSpec("gaussian", mean=600.0, std=200.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_group, min_size=1, max_size=3),
    _prior,
    st.booleans(),
    st.one_of(st.floats(300.0, 1000.0), st.floats(-50.0, 1200.0)),
)
# a subnormal theta underflows the Reynolds-number coefficients of the march
@example([([5.98e5], 1.0, TABLED)], PriorSpec("uniform", low=300.0, high=1000.0), False, 2.2250738585e-313)
@example([([5.98e5], 1.0, MARCHED)], PriorSpec("uniform", low=300.0, high=1000.0), True, 5e-324)
def test_closed_form_matches_per_observation_sum(groups, prior, classic_iid, theta):
    obs = ObservationSet(
        tuple(
            ObservationGroup(f"g{i}", np.array(values), sigma, *point)
            for i, (values, sigma, point) in enumerate(groups)
        )
    )
    posterior = Posterior(obs, prior, PARAMS, classic_iid, _tables())
    args = (obs, prior, PARAMS, classic_iid, _tables())
    expected = reference_log_posterior(theta, *args)
    value = posterior(theta)
    if math.isinf(expected):
        assert value == expected
    else:
        assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
    expected_grad = reference_grad(theta, *args)
    grad = posterior.grad(theta)
    if math.isnan(expected_grad):
        assert math.isnan(grad)
    else:
        assert abs(grad - expected_grad) <= 1e-9 * max(1.0, abs(expected_grad))


@pytest.mark.parametrize("theta", [5e-324, 2.2250738585e-313])
def test_a_subnormal_theta_fails_in_the_production_march(theta):
    # the subnormal underflows the Reynolds-number coefficients: the one-element
    # batch ends non-finite, read as -inf and a NaN gradient
    obs = ObservationSet((ObservationGroup("marched", np.array([6.0e5]), 50.0, *MARCHED),))
    posterior = Posterior(obs, PriorSpec("uniform", low=300.0, high=1000.0), PARAMS)
    with pytest.raises(NonFiniteStateError):
        porous_flow.forward_pressure_at_mean(PARAMS, MARCHED, theta)
    assert posterior(theta) == -math.inf
    assert math.isnan(posterior.grad(theta))


def test_gradient_near_the_mode_keeps_per_observation_precision():
    # 0.1 Pa readings within a few sigma of F(theta), sigma = 1: the gradient
    # is small, and a mean rounded to one double would move it by ~1e-8
    table = _tables()[TABLED]
    prior = PriorSpec("uniform", low=300.0, high=1000.0)
    rng = np.random.default_rng(17)
    for theta in np.linspace(300.0, 400.0, 100):
        values = np.round(table(theta) + rng.normal(0.0, 1.0, 20), 1)
        obs = ObservationSet((ObservationGroup("g", values, 1.0, *TABLED),))
        grad = Posterior(obs, prior, PARAMS, True, _tables()).grad(theta)
        expected = reference_grad(theta, obs, prior, PARAMS, True, _tables())
        assert abs(grad - expected) <= 1e-9 * max(1.0, abs(expected))


def test_posterior_is_the_prior_plus_the_likelihood():
    obs = ObservationSet((ObservationGroup("g", np.array([5.99e5, 5.995e5]), 80.0, *TABLED),))
    priors = (PriorSpec("uniform", low=300.0, high=1000.0), PriorSpec("gaussian", mean=600.0, std=200.0))
    for prior in priors:
        posterior = Posterior(obs, prior, PARAMS, tables=_tables())
        for theta in (350.0, 640.0, 990.0):
            want = frozen_log_prior(theta, prior) + frozen_log_likelihood(theta, obs, PARAMS, False, _tables())
            assert posterior(theta) == want
        assert frozen_log_likelihood(0.0, obs, PARAMS, False, _tables()) == posterior(0.0) == -math.inf
        assert math.isnan(posterior.grad(-1.0))


def test_posterior_with_its_prior_constants_is_float_equal_to_the_sum(marched_once):
    # the grid has theta <= 0, thetas outside a uniform support inside the
    # table's range [300, 1000], and thetas outside that range
    obs = ObservationSet((
        ObservationGroup("tabled", np.array([5.99e5, 5.995e5]), 80.0, *TABLED),
        ObservationGroup("marched", np.array([6.0e5]), 50.0, *MARCHED),
    ))
    priors = (
        PriorSpec("uniform", low=400.0, high=900.0),
        PriorSpec("uniform", low=300.0, high=1000.0, floor=1e-20),
        PriorSpec("gaussian", mean=600.0, std=200.0),
    )
    grid = (-50.0, 0.0, 5e-324, 150.0, 300.0, 350.0, 400.0, 650.0, 900.0, 950.0, 1000.0, 1400.0)
    for prior in priors:
        for classic_iid in (False, True):
            posterior = Posterior(obs, prior, PARAMS, classic_iid, _tables())
            for theta in grid:
                likelihood = frozen_log_likelihood(theta, obs, PARAMS, classic_iid, _tables())
                assert posterior(theta) == frozen_log_prior(theta, prior) + likelihood, (prior, theta)
            assert math.isnan(posterior(math.nan)) == (prior.kind == "gaussian")


# ---------------------------------------------------------------------------
# cRW chains on the tiny scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_crw_chain_matches_per_observation_formula(model, seed, tiny_model1_dict, tiny_model2_dict):
    config = ScenarioConfig.from_dict(tiny_model1_dict if model == 1 else tiny_model2_dict)
    scenario = Scenario(config)
    args = (scenario.observations(), config.prior, config.params, config.classic_iid)
    tables = scenario.forward_map()
    sampler = config.sampler
    chain = scenario.run_chain(seed)
    frozen = run_crw(
        lambda theta: reference_log_posterior(theta, *args, tables),
        scenario.feasibility(),
        float(sampler["proposal_std"]),
        int(sampler["n_samples"]),
        scenario.theta_init(),
        seed,
    )
    np.testing.assert_array_equal(chain.samples, frozen.samples)
    np.testing.assert_array_equal(chain.accepted, frozen.accepted)
    np.testing.assert_allclose(chain.log_post, frozen.log_post, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# the array call and the inline recurrence against the float call
# ---------------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_posterior_on_an_array_is_the_float_calls_bit_for_bit(marched_once):
    # thetas inside and outside the table's range [300, 1000], theta <= 0,
    # NaN and, for the uniform priors, thetas in the table's range outside
    # the support, where the floor holds; with a group without a table every
    # theta takes the float call
    tabled = ObservationGroup("tabled", np.array([5.99e5, 5.995e5]), 80.0, *TABLED)
    marched = ObservationGroup("marched", np.array([6.0e5]), 50.0, *MARCHED)
    grid = np.concatenate([
        np.random.default_rng(5).uniform(300.0, 1000.0, 200),
        [-50.0, 0.0, 5e-324, 150.0, 299.9, 300.0, 400.0, 900.0, 1000.0, 1000.1, 1400.0, math.nan],
    ])
    priors = (
        PriorSpec("uniform", low=400.0, high=900.0),
        PriorSpec("uniform", low=300.0, high=1000.0, floor=1e-20),
        PriorSpec("gaussian", mean=600.0, std=200.0),
    )
    for groups, thetas in (((tabled,), grid), ((tabled, marched), grid[-24:])):
        for prior in priors:
            for classic_iid in (False, True):
                posterior = Posterior(ObservationSet(groups), prior, PARAMS, classic_iid, _tables())
                want = [posterior(theta) for theta in thetas.tolist()]
                assert _bits(posterior(thetas)) == _bits(want), (len(groups), prior, classic_iid)


def test_float_call_and_gradient_are_the_frozen_ones_bit_for_bit(marched_once):
    # the array test's thetas, and thetas whose difference step crosses an
    # end of the table's range; with a group without a table, both ends are
    # marched. Three observations, so that n is not a power of two and a
    # regrouped product shows
    tabled = ObservationGroup("tabled", np.array([5.99e5, 5.995e5, 6.001e5]), 80.0, *TABLED)
    marched = ObservationGroup("marched", np.array([6.0e5]), 50.0, *MARCHED)
    grid = np.concatenate([
        np.random.default_rng(5).uniform(300.0, 1000.0, 200),
        [299.9995, 999.9995, -50.0, 0.0, 5e-324, 150.0, 299.9, 300.0, 400.0, 900.0, 1000.0, 1000.1, 1400.0,
         math.nan],
    ]).tolist()
    priors = (
        PriorSpec("uniform", low=400.0, high=900.0),
        PriorSpec("uniform", low=300.0, high=1000.0, floor=1e-20),
        PriorSpec("gaussian", mean=600.0, std=200.0),
    )
    for groups, thetas in (((tabled,), grid), ((tabled, marched), grid[-26:])):
        for prior in priors:
            for classic_iid in (False, True):
                obs = ObservationSet(groups)
                args = (obs, PARAMS, classic_iid, _tables())
                posterior = Posterior(obs, prior, PARAMS, classic_iid, _tables())
                want = [frozen_log_prior(theta, prior) + frozen_log_likelihood(theta, *args) for theta in thetas]
                assert _bits([posterior(theta) for theta in thetas]) == _bits(want)
                want = [frozen_grad(theta, obs, prior, PARAMS, classic_iid, _tables()) for theta in thetas]
                got = [posterior.grad(theta) for theta in thetas]
                assert _bits(got) == _bits(want), (len(groups), prior, classic_iid)


def test_inline_recurrence_is_the_table_call():
    table = _tables()[TABLED]
    thetas = np.random.default_rng(9).uniform(300.0, 1000.0, 10_000)
    # one observation near F, so that a pressure one ulp off moves the misfit
    obs = ObservationSet((ObservationGroup("g", np.array([table(650.0) + 0.25]), 1.0, *TABLED),))
    prior = PriorSpec("uniform", low=300.0, high=1000.0)
    posterior = Posterior(obs, prior, PARAMS, tables=_tables())
    inline = [posterior(theta) for theta in thetas.tolist()]
    through_table = [
        frozen_log_prior(theta, prior) + frozen_log_likelihood(theta, obs, PARAMS, False, _tables())
        for theta in thetas.tolist()
    ]
    assert _bits(inline) == _bits(through_table)
    assert _bits(table(thetas)) == _bits([table(theta) for theta in thetas.tolist()])


def _tiny_model3(tiny_model2_dict) -> dict:
    tiny_model2_dict["model"] = 3
    tiny_model2_dict["germ"] = {"strips": [{"mean": 450.0 + i, "std": 14.0} for i in range(4)]}
    return tiny_model2_dict


@pytest.mark.parametrize("model", [1, 2, 3])
def test_reference_grid_is_the_per_node_reference(model, tiny_model1_dict, tiny_model2_dict):
    config = {1: tiny_model1_dict, 2: tiny_model2_dict, 3: _tiny_model3(tiny_model2_dict)}[model]
    scenario = Scenario(ScenarioConfig.from_dict(config))
    reference = scenario.reference()
    per_node = reference_posterior(reference.grid, scenario.log_posterior, scenario.feasibility())
    assert _bits(reference.grid) == _bits(per_node.grid)
    assert _bits(reference.density) == _bits(per_node.density)
    assert reference.normalizer == per_node.normalizer
