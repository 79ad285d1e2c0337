"""Hermite basis, quadrature, and strip surrogate construction."""
from __future__ import annotations

import itertools
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcbayes import gpc, porous_flow
from tcbayes.scenario import Scenario, ScenarioConfig
from tcbayes.porous_flow import (
    DEFAULT_SINGULAR_EPS,
    ModelParams,
    SingularDenominatorError,
    integrate_strip,
    interface_state_batch,
)
from tcbayes.gpc import (
    GermSpec,
    GermVariable,
    _Projection,
    build_strip_surrogate,
    evaluate_surrogate,
    gauss_hermite_rule,
    hermite_design,
    hermite_norms_squared,
    porosity_projection,
    strip_exit_law,
    surrogate_moments,
)

# scenario-scale inputs used across the surrogate tests
Q0 = 30845.0 * 0.015
SIGMA_Q = 0.03 * Q0
SIGMA_PHI = 0.01
PARAMS = ModelParams(heat_flux_nominal=Q0)


def two_variable_germ() -> GermSpec:
    return GermSpec(
        (GermVariable("q", Q0, SIGMA_Q), GermVariable("phi", PARAMS.porosity, SIGMA_PHI))
    )


def _he(k: int, x):
    """He_k(x) from numpy's HermiteE series, independent of ``hermite_design``."""
    return np.polynomial.hermite_e.hermeval(x, [0.0] * k + [1.0])


def test_hermite_low_orders():
    design = hermite_design(2, np.array([0.7, 0.0, 3.3]))
    assert design[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert design[1, 2] == pytest.approx(-1.0, abs=1e-15)
    assert design[2, 0] == 1.0
    np.testing.assert_allclose(design, np.stack([_he(k, [0.7, 0.0, 3.3]) for k in range(3)], axis=1))


def test_hermite_against_monomial_expansion():
    x = 1.3
    assert hermite_design(5, x)[0, 5] == pytest.approx(x**5 - 10 * x**3 + 15 * x, rel=1e-13)
    xs = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(hermite_design(5, xs)[:, 5], xs**5 - 10 * xs**3 + 15 * xs, rtol=1e-12)


def test_hermite_design_columns_match_recurrence():
    xs = np.linspace(-2, 2, 7)
    design = hermite_design(4, xs)
    for k in range(5):
        np.testing.assert_allclose(design[:, k], _he(k, xs), rtol=1e-13)


def test_gauss_hermite_small_rules():
    nodes, weights = gauss_hermite_rule(1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [1.0], atol=1e-15)
    nodes, weights = gauss_hermite_rule(2)
    np.testing.assert_allclose(np.sort(nodes), [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("n_nodes", [2, 4, 6, 9])
def test_gauss_hermite_moments(n_nodes):
    nodes, weights = gauss_hermite_rule(n_nodes)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(weights * nodes**2) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_orthogonality_and_norms():
    nodes, weights = gauss_hermite_rule(7)
    design = hermite_design(6, nodes)
    gram = design.T @ (weights[:, None] * design)
    for i in range(7):
        for j in range(7):
            if i == j:
                assert gram[i, j] == pytest.approx(float(math.factorial(i)), rel=1e-8)
            else:
                assert abs(gram[i, j]) <= 1e-10


def test_inner_product_two_dimensional():
    nodes, weights = gauss_hermite_rule(4)
    he1 = hermite_design(1, nodes)[:, 1]
    # <He_1(x) He_1(y), He_1(x) He_1(y)> over the tensor rule
    value = float(np.sum(np.outer(weights, weights) * np.outer(he1, he1) ** 2))
    assert value == pytest.approx(1.0, rel=1e-12)


def test_germ_validation():
    with pytest.raises(ValueError):
        GermVariable("q", 0.0, -1.0)
    with pytest.raises(ValueError):
        GermSpec((GermVariable("q", 0.0, 1.0), GermVariable("q", 1.0, 1.0)))
    with pytest.raises(ValueError):
        GermSpec(())


def test_degenerate_germ_collapses_to_deterministic_run():
    germ = GermSpec((GermVariable("q", Q0, 0.0), GermVariable("phi", PARAMS.porosity, 0.0)))
    s = build_strip_surrogate(PARAMS, germ, 540.0)
    traj = integrate_strip(PARAMS, Q0, PARAMS.porosity, 540.0)
    scale = np.max(np.abs(traj.t_fluid))
    assert np.max(np.abs(s.coeff_t_fluid[0, 0, :] - traj.t_fluid)) <= 1e-8 * scale
    higher = s.coeff_t_fluid.reshape(-1, s.x_grid.shape[0])[1:]
    assert np.max(np.abs(higher)) <= 1e-10
    # evaluation anywhere returns the deterministic value
    tf, ts = evaluate_surrogate(s, -1, Q0 * 1.7, 0.3)
    assert tf == pytest.approx(traj.t_fluid[-1], rel=1e-12)
    mean, var = surrogate_moments(s, -1)
    assert var == 0.0


def test_initial_coefficient_condition():
    s = build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, n_steps=50)
    assert s.coeff_t_fluid[0, 0, 0] == PARAMS.coolant_temp
    assert s.coeff_t_solid[0, 0, 0] == PARAMS.solid_temp
    assert np.all(s.coeff_t_fluid.reshape(-1, 51)[1:, 0] == 0.0)
    assert np.all(s.coeff_t_solid.reshape(-1, 51)[1:, 0] == 0.0)


def test_constant_term_evaluation_with_order_zero():
    s = build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, order=0, n_quad=1, n_steps=100)
    tf, ts = evaluate_surrogate(s, 37, Q0, PARAMS.porosity)
    assert tf == pytest.approx(float(s.coeff_t_fluid[0, 0, 37]), rel=1e-15)
    mean, var = surrogate_moments(s, 37)
    assert var == 0.0


def test_surrogate_moments_match_monte_carlo():
    s = build_strip_surrogate(PARAMS, two_variable_germ(), 540.0)
    mean, var = surrogate_moments(s, -1)
    rng = np.random.default_rng(2024)
    n = 20000
    qd = Q0 + SIGMA_Q * rng.standard_normal(n)
    pd = PARAMS.porosity + SIGMA_PHI * rng.standard_normal(n)
    tf, _, _ = interface_state_batch(PARAMS, qd, pd, 540.0)
    assert mean == pytest.approx(float(np.mean(tf)), rel=0.01)
    assert var == pytest.approx(float(np.var(tf)), rel=0.05)


def test_pointwise_agreement_with_full_model():
    s = build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, order=4)
    rng = np.random.default_rng(7)
    qd = Q0 + SIGMA_Q * rng.standard_normal(100)
    pd = PARAMS.porosity + SIGMA_PHI * rng.standard_normal(100)
    tf_s, _ = evaluate_surrogate(s, -1, qd, pd)
    tf, _, _ = interface_state_batch(PARAMS, qd, pd, 540.0)
    assert np.max(np.abs(tf_s - tf)) <= 1e-4


def test_truncation_error_non_increasing_in_order():
    rng = np.random.default_rng(11)
    qd = Q0 + SIGMA_Q * rng.standard_normal(1500)
    pd = PARAMS.porosity + SIGMA_PHI * rng.standard_normal(1500)
    tf_ref, _, _ = interface_state_batch(PARAMS, qd, pd, 540.0)
    errors = []
    for order in (1, 2, 3, 4):
        s = build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, order=order)
        tf_s, _ = evaluate_surrogate(s, -1, qd, pd)
        errors.append(float(np.sqrt(np.mean((tf_s - tf_ref) ** 2))))
    assert all(errors[i + 1] <= errors[i] for i in range(3))


def _within(got, want, rel):
    """Every entry of ``got`` within ``rel`` of the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rel * np.max(np.abs(want)))


# collocation equals the Galerkin system for a flux germ up to roundoff
FLUX_GERM_TOL = 1e-12
# model 1's (order 3, 6 nodes) porosity germ: the two differ at truncation
# level, measured at 4.1e-11 of the largest coefficient in phi-degree 2-3
PHI_GERM_TOL = 5e-11


def _affine_matches_galerkin(got, params, mean, std, porosity, re):
    # the order-3, 6-node Galerkin reference of one strip's flux germ
    germ = GermSpec((GermVariable("q", mean, std),))
    want = build_strip_surrogate(replace(params, porosity=porosity), germ, re, 3, 6)
    want = want.coeff_t_fluid[:, -1]
    scale = np.max(np.abs(want))
    assert np.max(np.abs(want[2:])) <= FLUX_GERM_TOL * scale
    np.testing.assert_allclose(got, want[:2], rtol=0.0, atol=FLUX_GERM_TOL * scale)


def _strip_exits(params, q_means, q_stds, porosities, res, singular_eps=DEFAULT_SINGULAR_EPS):
    """Exact flux expansions (len(res), n_strips, 2) of many strips' exit T_f:
    the ``strip_exit_law`` elements marched at every re, as
    ``Scenario._strip_exit_coeffs`` marches them."""
    q, phi, exit_law = strip_exit_law(q_means, q_stds, porosities)
    res = np.ravel(res)[:, None, None]
    tf, _, _ = interface_state_batch(params, q, phi, res, singular_eps=singular_eps)
    return exit_law(tf)


def test_batch_build_matches_single_univariate():
    q_means = np.array([Q0, 1.1 * Q0])
    q_stds = np.array([SIGMA_Q, 2.0 * SIGMA_Q])
    porosities = np.array([0.111, 0.4])
    (ctf,) = _strip_exits(PARAMS, q_means, q_stds, porosities, [540.0])
    assert ctf.shape == (2, 2)
    for b in range(2):
        _affine_matches_galerkin(ctf[b], PARAMS, q_means[b], q_stds[b], porosities[b], 540.0)
    for q, phi, re in ((Q0, 0.111, 540.0), (1.2 * Q0, 0.4, 800.0), (0.8 * Q0, 0.25, 380.0)):
        ((ctf1,),) = _strip_exits(PARAMS, [q], [SIGMA_Q], [phi], [re])
        _affine_matches_galerkin(ctf1, PARAMS, q, SIGMA_Q, phi, re)


def test_zero_std_strips_are_the_deterministic_march():
    # a strip with std 0 has no flux mode, and its mean term is the march at its mean
    q_means = np.array([Q0, 0.7 * Q0, 1.3 * Q0])
    porosities = np.array([0.111, 0.4, 0.25])
    res = np.array([350.0, 540.0, 900.0])
    tf, _, _ = interface_state_batch(PARAMS, q_means, porosities, res[:, None])
    ctf = _strip_exits(PARAMS, q_means, [0.0, SIGMA_Q, 0.0], porosities, res)
    assert np.all(ctf[:, ::2, 1] == 0.0)
    np.testing.assert_allclose(ctf[:, ::2, 0], tf[:, ::2], rtol=1e-12, atol=0.0)
    # every std 0 and one mean: a zero span, a zero slope, and the march itself
    ctf = _strip_exits(PARAMS, [Q0] * 3, np.zeros(3), porosities, res)
    tf, _, _ = interface_state_batch(PARAMS, Q0, porosities, res[:, None])
    assert np.all(ctf[..., 1] == 0.0)
    np.testing.assert_array_equal(ctf[..., 0], tf)
    # the Galerkin reference at order 0 reduces to the same march
    for re, row in zip(res, tf):
        for phi, want in zip(porosities, row):
            germ = GermSpec((GermVariable("q", Q0, SIGMA_Q),))
            s = build_strip_surrogate(replace(PARAMS, porosity=phi), germ, re, order=0, n_quad=1)
            assert s.coeff_t_fluid[0, -1] == pytest.approx(want, rel=1e-12, abs=0.0)


def _shipped(model: int) -> ScenarioConfig:
    return ScenarioConfig.load(str(resources.files("tcbayes").joinpath(f"configs/model{model}.json")))


def test_per_row_re_batch_equals_per_theta_builds():
    # model 2's strips at several thetas, in one march
    cfg = _shipped(2)
    scenario = Scenario(cfg)
    thetas = np.linspace(*cfg.theta_range(), 9)
    ctf = scenario._strip_exit_coeffs(thetas)
    assert ctf.shape == (thetas.size, cfg.geometry.n_strips, 2)
    for theta, row in zip(thetas, ctf):
        # elementwise march, so a theta's rows do not depend on the other thetas
        (one,) = scenario._strip_exit_coeffs([theta])
        np.testing.assert_array_equal(row, one)
    with pytest.raises(ValueError, match="equal length"):
        _strip_exits(PARAMS, [Q0, Q0], [SIGMA_Q] * 3, [0.111] * 2, [540.0])
    with pytest.raises(ValueError, match="equal length"):
        _strip_exits(PARAMS, [[Q0]], [[SIGMA_Q]], [[0.111]], [540.0])
    with pytest.raises(ValueError, match="re must be positive"):
        scenario._strip_exit_coeffs([540.0, 0.0])


def _model1_exits(germ, res, order, n_quad, n_steps, params=PARAMS) -> np.ndarray:
    """Model 1's exit coefficients (len(res), order+1, 2), as its scenario builds them."""
    config = replace(
        _shipped(1), params=params, germ=germ, order=order, n_quad=n_quad, n_steps=n_steps
    )
    return Scenario(config)._strip_exit_coeffs(res)


def _matches_galerkin(got, want, tol):
    """Model 1's (K+1, 2) ``got`` against the Galerkin tensor ``want`` (flux
    degree, phi degree): (c0, c1) are its flux-degree 0-1 rows, and its
    flux-degree >= 2 rows are negligible."""
    flux = min(2, want.shape[0])
    _within(got[:, :flux], want[:flux].T, tol)
    assert np.abs(want[2:]).max(initial=0.0) <= FLUX_GERM_TOL * np.abs(want).max()


def test_exit_batch_matches_full_history_builds():
    # model 1's bivariate germ at the 33 coarse scan thetas
    cfg = _shipped(1)
    thetas = np.linspace(*cfg.theta_range(), 33)
    exits = _model1_exits(cfg.germ, thetas, cfg.order, cfg.n_quad, cfg.n_steps, cfg.params)
    assert exits.shape == (thetas.size, cfg.order + 1, 2)
    for theta, got in zip(thetas, exits):
        s = build_strip_surrogate(cfg.params, cfg.germ, theta, cfg.order, cfg.n_quad, cfg.n_steps)
        want = s.coeff_t_fluid[..., -1]
        _matches_galerkin(got, want, PHI_GERM_TOL)
        # the gap sits in the porosity-degree >= 2 terms
        _matches_galerkin(got[:2], want[:, :2], FLUX_GERM_TOL)


@settings(max_examples=25, deadline=None)
@given(
    q_rel_std=st.floats(0.0, 0.1),
    phi_mean=st.floats(0.08, 0.5),
    phi_rel_std=st.floats(0.0, 0.1),
    order=st.integers(0, 3),
    re=st.floats(300.0, 1000.0),
)
def test_square_design_collocation_is_the_galerkin_march(q_rel_std, phi_mean, phi_rel_std, order, re):
    # with n_quad = order + 1 the porosity design is square and project is its
    # inverse, so each Galerkin step is the Euler step at every node
    germ = GermSpec(
        (GermVariable("q", Q0, q_rel_std * Q0), GermVariable("phi", phi_mean, phi_rel_std * phi_mean))
    )
    (got,) = _model1_exits(germ, [re], order, order + 1, n_steps=200)
    s = build_strip_surrogate(PARAMS, germ, re, order, order + 1, n_steps=200)
    _matches_galerkin(got, s.coeff_t_fluid[..., -1], 1e-12)


def test_porosity_projection_of_a_degenerate_germ_is_the_mean():
    porosities, project = porosity_projection(GermVariable("phi", 0.2, 0.0), 3, 6)
    np.testing.assert_array_equal(porosities, [0.2])
    np.testing.assert_array_equal(project, [[1.0], [0.0], [0.0], [0.0]])
    porosities, project = porosity_projection(GermVariable("phi", 0.2, 0.01), 3, 6)
    assert porosities.shape == (6,) and project.shape == (4, 6)
    with pytest.raises(ValueError, match="order"):
        porosity_projection(GermVariable("phi", 0.2, 0.01), 3, 3)


def test_nan_re_and_porosity_are_rejected_before_the_march(monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a NaN input must be rejected before the march")

    # every scalar and batched strip march steps through _euler_step
    monkeypatch.setattr(gpc, "_galerkin_march", no_march)
    monkeypatch.setattr(porous_flow, "_euler_step", no_march)
    params = ModelParams()
    germ = GermSpec((GermVariable("q", 450.0, 10.0),))
    with pytest.raises(ValueError, match="re must be positive"):
        _model1_exits(two_variable_germ(), np.array([500.0, math.nan]), 3, 6, 100)
    with pytest.raises(ValueError, match="re must be positive"):
        build_strip_surrogate(params, germ, math.nan)
    with pytest.raises(ValueError, match="re must be positive"):
        _strip_exits(params, [450.0], [10.0], [0.111], [500.0, math.nan])
    with pytest.raises(ValueError, match="porosities"):
        _strip_exits(params, [450.0], [10.0], [math.nan], [500.0])
    for std in (0.0, 0.01):
        with pytest.raises(ValueError, match="porosity leaves"):
            porosity_projection(GermVariable("phi", math.nan, std), 3, 6)


def test_quadrature_too_coarse_rejected():
    with pytest.raises(ValueError):
        build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, order=3, n_quad=3)


def test_singular_guard_raises_from_both_builders():
    # an epsilon above any denominator trips the guard on the first step
    with pytest.raises(SingularDenominatorError):
        build_strip_surrogate(PARAMS, two_variable_germ(), 540.0, singular_eps=1e300)
    with pytest.raises(SingularDenominatorError):
        _strip_exits(PARAMS, [Q0], [SIGMA_Q], [PARAMS.porosity], [540.0], singular_eps=1e300)


@settings(max_examples=80, deadline=None)
@given(
    stds=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 100.0)), min_size=1, max_size=2),
    order=st.integers(0, 4),
    extra_nodes=st.integers(0, 4),
)
def test_projection_is_idempotent(stds, order, extra_nodes):
    # reconstruct-then-project is a projector whenever the rule resolves the order
    germ = GermSpec(tuple(GermVariable(f"v{d}", 1.0, std) for d, std in enumerate(stds)))
    proj = _Projection(germ, order, order + 1 + extra_nodes)
    p = proj.design @ proj.project
    scale = np.max(np.abs(p))
    np.testing.assert_allclose(p @ p, p, rtol=0.0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# product rules against frozen copies of the meshgrid and per-column builders
# ---------------------------------------------------------------------------


def _frozen_projection(germ: GermSpec, order: int, n_quad: int) -> dict:
    """``_Projection.__init__`` as it stood before ``tensor_rule``: meshgrids
    of the per-variable rules and a per-column product of their designs."""
    nodes1d, weights1d = gauss_hermite_rule(n_quad)
    per_dim_nodes, per_dim_weights, per_dim_design = [], [], []
    for var in germ.variables:
        if var.std == 0.0:
            design = np.zeros((1, order + 1))
            design[0, 0] = 1.0
            per_dim_nodes.append(np.zeros(1))
            per_dim_weights.append(np.ones(1))
            per_dim_design.append(design)
        else:
            per_dim_nodes.append(nodes1d)
            per_dim_weights.append(weights1d)
            per_dim_design.append(hermite_design(order, nodes1d))
    node_grids = np.meshgrid(*per_dim_nodes, indexing="ij")
    xi_nodes = np.stack([g.ravel() for g in node_grids], axis=-1)
    weight_grids = np.meshgrid(*per_dim_weights, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in weight_grids]), axis=0)
    norms1d = hermite_norms_squared(order)
    multi = list(itertools.product(range(order + 1), repeat=germ.dim))
    norms2 = np.array([np.prod([norms1d[k] for k in idx]) for idx in multi])
    sizes = [len(nodes) for nodes in per_dim_nodes]
    idx_grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    design = np.ones((xi_nodes.shape[0], len(multi)))
    for c, idx in enumerate(multi):
        for d, k in enumerate(idx):
            design[:, c] *= per_dim_design[d][idx_grids[d].ravel(), k]
    project = (design * weights[:, None]).T / norms2[:, None]
    return {"xi_nodes": xi_nodes, "weights": weights, "norms2": norms2, "design": design,
            "project": project}


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "stds",
    [(1.0,), (0.0,), (2.5, 0.01), (0.0, 3.0), (1.0, 0.0), (0.5, 1.5, 30.0), (0.5, 0.0, 2.0),
     (0.0, 0.0, 0.0)],
)
def test_projection_is_the_frozen_meshgrid_build_bit_for_bit(stds):
    germ = GermSpec(tuple(GermVariable(f"v{d}", 1.0, std) for d, std in enumerate(stds)))
    for order in range(5):
        for n_quad in range(order + 1, order + 4):
            proj, frozen = _Projection(germ, order, n_quad), _frozen_projection(germ, order, n_quad)
            for name, want in frozen.items():
                got = getattr(proj, name)
                assert got.shape == want.shape, (name, order, n_quad)
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"{name} {order} {n_quad}")


@pytest.mark.parametrize("stds", [(SIGMA_Q,), (SIGMA_Q, SIGMA_PHI), (SIGMA_Q, 0.0)])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_surrogate_moments_norms_are_the_frozen_loop(stds, order):
    names = ("q", "phi")[: len(stds)]
    means = (Q0, PARAMS.porosity)
    germ = GermSpec(tuple(GermVariable(n, m, s) for n, m, s in zip(names, means, stds)))
    s = build_strip_surrogate(PARAMS, germ, 540.0, order=order, n_quad=order + 2, n_steps=40)
    for field in ("t_fluid", "t_solid"):
        flat = getattr(s, f"coeff_{field}")[..., -1].ravel()
        # surrogate_moments' norms loop as it stood before the Kronecker product
        norms1d = hermite_norms_squared(s.order)
        multi = itertools.product(range(s.order + 1), repeat=s.germ.dim)
        norms2 = np.array([np.prod([norms1d[k] for k in idx]) for idx in multi])
        mean, var = surrogate_moments(s, -1, field)
        assert (mean, var) == (float(flat[0]), float(np.sum(flat[1:] ** 2 * norms2[1:])))
        assert np.array_equal(_bits(gpc._product_norms(order, germ.dim)), _bits(norms2))
