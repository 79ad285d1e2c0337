"""Interface assembly, Neumann diffusion, and coefficient-field propagation."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tcbayes import heat_interface
from tcbayes.cli import resolve_config
from tcbayes.gpc import GermSpec, GermVariable, hermite_design
from tcbayes.heat_interface import (
    InterfaceField,
    InterfaceGeometry,
    InterfaceSurrogate,
    _footprint_index,
    _footprint_response,
    _footprint_svd,
    _march_plan,
    _spectral_propagate,
    assemble_initial_field,
    assemble_interface_from_coeffs,
    diffuse_field,
    evaluate_interface_batch,
)
from tcbayes.scenario import Scenario


def _diffuse_rows(rows: np.ndarray, r: float, n_full: int, r_rem: float) -> np.ndarray:
    """March stacked fields with the explicit scheme; mirror-ghost ends.

    The explicit-sweep reference for ``_spectral_propagate``. ``rows`` has
    shape (n_fields, n_z). The update with ratio r keeps every node a convex
    combination of its neighbors for r <= 1/2, so the discrete maximum
    principle holds exactly; the trapezoid-weighted spatial mean is
    conserved exactly by the ghost closure.
    """
    u = np.array(rows, dtype=float)
    lap = np.empty_like(u)
    for _ in range(n_full):
        _ghost_step(u, lap, r)
    if r_rem > 0.0:
        _ghost_step(u, lap, r_rem)
    return u


def _ghost_step(u: np.ndarray, lap: np.ndarray, ratio: float) -> None:
    lap[:, 1:-1] = u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]
    lap[:, 0] = 2.0 * (u[:, 1] - u[:, 0])
    lap[:, -1] = 2.0 * (u[:, -2] - u[:, -1])
    u += ratio * lap


def _dense_propagate(rows: np.ndarray, r: float, n_full: int, r_rem: float) -> np.ndarray:
    """The marching map through the dense (n_z, n_z) cosine eigenbasis and an
    LU solve: the reference for the DCT-I in ``_spectral_propagate``."""
    n = rows.shape[1]
    i = np.arange(n)
    basis = np.cos(np.pi * np.outer(i, i) / (n - 1))
    mu = -2.0 * (1.0 - np.cos(np.pi * i / (n - 1)))
    growth = (1.0 + r * mu) ** n_full * (1.0 + r_rem * mu)
    coeffs = np.linalg.solve(basis, rows.T)
    return (basis @ (growth[:, None] * coeffs)).T


def trapezoid_mean(values: np.ndarray) -> float:
    return float((0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]) / (len(values) - 1))


def synthetic_coeffs(slope: float, shared: bool, n_strips: int = 60, seed: int = 0):
    """Made-up strip exit temperatures c0 + c1 xi, (n_strips, 2), with c1 of
    scale ``slope`` (0: flux-free), and their germ."""
    rng = np.random.default_rng(seed)
    coeffs = np.column_stack([rng.uniform(320, 360, n_strips), slope * rng.normal(0.0, 2.0, n_strips)])
    if shared:
        germ = GermSpec((GermVariable("q", 450.0, 12.0),))
    else:
        germ = GermSpec(tuple(GermVariable(f"q_{s}", 450.0, 12.0) for s in range(n_strips)))
    return coeffs, germ


def test_geometry_defaults_and_validation():
    geo = InterfaceGeometry()
    assert geo.delta_z == pytest.approx((0.75 - 0.25) / 120.0)
    assert geo.strip_centers.shape == (60,)
    phis = geo.strip_porosities()
    assert np.all(phis[:30] == 0.111) and np.all(phis[30:] == 0.4)
    with pytest.raises(ValueError):
        InterfaceGeometry(d1=0.8, d2=0.2)
    with pytest.raises(ValueError):
        InterfaceGeometry(section_porosities=((0.25, 0.75, 1.5),))


@pytest.mark.parametrize("key", ["wall_temp", "diffusivity", "t_constraint"])
@pytest.mark.parametrize("value", [float("nan"), 0.0])
def test_geometry_rejects_nonpositive_and_nan(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        InterfaceGeometry(**{key: value})


def test_assemble_constant_equals_walls():
    geo = InterfaceGeometry()
    f = assemble_initial_field(geo, np.full(60, geo.wall_temp), 400)
    assert np.all(f.values == geo.wall_temp)
    assert f.time == 0.0


def test_assemble_single_strip_two_level():
    geo = InterfaceGeometry(n_strips=1, section_porosities=((0.25, 0.75, 0.111),))
    f = assemble_initial_field(geo, np.array([330.0]), 801)
    inside = (f.z_grid >= 0.25) & (f.z_grid <= 0.75)
    assert np.all(f.values[inside] == 330.0)
    assert np.all(f.values[~inside] == geo.wall_temp)


def test_assemble_matches_indicator_sum_oracle():
    # per-node lookup against the footprint indicators; a node exactly on a
    # shared edge may take either adjacent strip's value
    geo = InterfaceGeometry()
    rng = np.random.default_rng(3)
    strip_values = rng.uniform(310, 360, 60)
    f = assemble_initial_field(geo, strip_values, 613)
    centers = geo.strip_centers
    for j, z in enumerate(f.z_grid):
        hits = [
            s
            for s in range(60)
            if abs(z - centers[s]) <= geo.delta_z * (1 + 1e-9) and geo.d1 <= z <= geo.d2
        ]
        if not hits:
            assert f.values[j] == geo.wall_temp
        else:
            assert f.values[j] in strip_values[hits]


def test_assemble_resolution_error():
    geo = InterfaceGeometry()
    with pytest.raises(ValueError):
        assemble_initial_field(geo, np.full(60, 330.0), 40)


def test_constant_field_is_diffusion_fixed_point():
    z = np.linspace(0.0, 1.0, 200)
    f = InterfaceField(z, np.full(200, 410.0), 0.0)
    g = diffuse_field(f, 1e-3, 2.5)
    assert np.max(np.abs(g.values - 410.0)) <= 1e-12
    assert g.time == 2.5


@pytest.mark.parametrize("k", [1, 2])
def test_cosine_eigenmode_decay(k):
    z = np.linspace(0.0, 1.0, 400)
    f = InterfaceField(z, np.cos(k * np.pi * z), 0.0)
    g = diffuse_field(f, 1e-3, 1.0)
    exact = np.exp(-1e-3 * (k * np.pi) ** 2)
    assert np.max(np.abs(g.values / f.values - exact)) / exact <= 1e-3


def test_trapezoid_mean_conserved_and_max_principle():
    rng = np.random.default_rng(17)
    z = np.linspace(0.0, 1.0, 350)
    f = InterfaceField(z, rng.uniform(300.0, 500.0, 350), 0.0)
    g = diffuse_field(f, 2e-3, 3.7)
    drift = abs(trapezoid_mean(g.values) - trapezoid_mean(f.values))
    assert drift <= 1e-12 * abs(trapezoid_mean(f.values))
    assert g.values.max() <= f.values.max() + 1e-10
    assert g.values.min() >= f.values.min() - 1e-10


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=3, max_size=80
    ),
    lam=st.floats(1e-4, 1e-2),
    t_end=st.floats(0.0, 2.0),
    cfl=st.floats(0.05, 0.5),
)
def test_diffuse_field_max_principle_and_mean(values, lam, t_end, cfl):
    values = np.array(values)
    f = InterfaceField(np.linspace(0.0, 1.0, values.size), values, 0.0)
    g = diffuse_field(f, lam, t_end, cfl)
    scale = 1.0 + np.max(np.abs(values))
    assert g.values.max() <= values.max() + 1e-12 * scale
    assert g.values.min() >= values.min() - 1e-12 * scale
    assert abs(trapezoid_mean(g.values) - trapezoid_mean(values)) <= 1e-10 * scale


def test_diffusion_linearity_commute():
    rng = np.random.default_rng(29)
    z = np.linspace(0.0, 1.0, 150)
    f1 = rng.normal(0.0, 1.0, 150)
    f2 = rng.normal(0.0, 1.0, 150)
    c1, c2 = 2.5, -0.7
    combined = diffuse_field(InterfaceField(z, c1 * f1 + c2 * f2, 0.0), 1e-3, 1.0)
    d1 = diffuse_field(InterfaceField(z, f1, 0.0), 1e-3, 1.0)
    d2 = diffuse_field(InterfaceField(z, f2, 0.0), 1e-3, 1.0)
    assert np.max(np.abs(combined.values - c1 * d1.values - c2 * d2.values)) <= 1e-10


def test_diffuse_guards():
    z = np.linspace(0.0, 1.0, 50)
    f = InterfaceField(z, np.full(50, 1.0), 1.0)
    with pytest.raises(ValueError):
        diffuse_field(f, 1e-3, 2.0, cfl=0.6)
    with pytest.raises(ValueError):
        diffuse_field(f, 1e-3, 2.0, cfl=0.0)
    with pytest.raises(ValueError):
        diffuse_field(f, 1e-3, 0.5)
    same = diffuse_field(f, 1e-3, 1.0)
    np.testing.assert_array_equal(same.values, f.values)


def test_spectral_path_matches_marching():
    rng = np.random.default_rng(31)
    rows = rng.uniform(300.0, 450.0, (5, 300))
    z = np.linspace(0.0, 1.0, 300)
    n_full, r_rem = _march_plan(z, 4e-3, 1.3, 0.4)
    marched = _diffuse_rows(rows, 0.4, n_full, r_rem)
    spectral = _spectral_propagate(rows, 0.4, n_full, r_rem)
    assert np.max(np.abs(marched - spectral)) <= 1e-9


@pytest.mark.parametrize("n_z", [2, 3, 17, 600])
@pytest.mark.parametrize("r, n_full, r_rem", [(0.4, 0, 0.3), (0.5, 40, 0.0), (0.4, 37, 0.17)])
def test_dct_propagate_matches_dense_basis_and_sweeps(n_z, r, n_full, r_rem):
    rows = np.random.default_rng(n_z).uniform(-210.0, 210.0, (4, n_z))
    scale = np.max(np.abs(rows))
    got = _spectral_propagate(rows, r, n_full, r_rem)
    assert np.max(np.abs(got - _dense_propagate(rows, r, n_full, r_rem))) <= 1e-12 * scale
    assert np.max(np.abs(got - _diffuse_rows(rows, r, n_full, r_rem))) <= 1e-12 * scale


def test_dct_propagate_matches_dense_basis_on_the_shipped_march():
    # model 2's footprint rows through its 89 700-step plan
    config = resolve_config("model2")
    geo = config.geometry
    rows = _parent_rows(geo, synthetic_coeffs(3, True)[0], True, config.n_z)
    z = np.linspace(0.0, 1.0, config.n_z)
    plan = _march_plan(z, geo.diffusivity, geo.t_constraint, config.cfl)
    assert plan[0] == 89_700
    got = _spectral_propagate(rows, config.cfl, *plan)
    want = _dense_propagate(rows, config.cfl, *plan)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(rows))



def test_nodes_the_march_does_not_reach_keep_their_values():
    # a footprint on nodes 30..39 under 0.5 s of diffusion: n_full + 1 steps
    # reach no node of 0..30 - n_full - 2 or 40 + n_full + 1..79
    z = np.linspace(0.0, 1.0, 80)
    rows = np.zeros((2, 80))
    rows[0], rows[0, 30:40], rows[1, 30:40] = 1e-3, 0.0, 1.0
    n_full, r_rem = _march_plan(z, 2e-3, 0.5, 0.5)
    far = (np.arange(80) < 29 - n_full) | (np.arange(80) > 40 + n_full)
    assert n_full == 12 and r_rem > 0.0 and far.sum() == 44
    got = heat_interface._diffuse(rows, z, 2e-3, 0.5, 0.5)
    np.testing.assert_array_equal(got[:, far], rows[:, far])
    np.testing.assert_array_equal(got[:, far], _diffuse_rows(rows, 0.5, n_full, r_rem)[:, far])
    assert np.max(np.abs(got - _diffuse_rows(rows, 0.5, n_full, r_rem))) <= 1e-15
    constant = diffuse_field(InterfaceField(z, np.full(80, 410.0), 0.0), 1e-3, 2.5)
    np.testing.assert_array_equal(constant.values, 410.0)

_GUARD_MESSAGES = {
    "lam": "lam must be positive",
    "cfl": "cfl must lie in",
    "t_end": "t_end must be finite",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("lam", 0.0), ("lam", -0.005), ("lam", float("nan")),
        ("cfl", 0.0), ("cfl", 0.7), ("cfl", float("nan")),
        ("t_end", -1.0), ("t_end", float("nan")), ("t_end", float("inf")),
    ],
)
def test_both_entry_points_raise_the_same_diffusion_guard(key, value):
    geo = InterfaceGeometry()
    args = {"lam": 1e-3, "t_end": 1.0, "cfl": 0.4, key: value}
    coeffs, germ = synthetic_coeffs(3, shared=True)
    _footprint_response.cache_clear()
    with pytest.raises(ValueError, match=_GUARD_MESSAGES[key]) as assembled:
        assemble_interface_from_coeffs(
            geo, coeffs, germ, args["lam"], args["t_end"], 300, args["cfl"]
        )
    assert _footprint_response.cache_info().currsize == 0
    field = assemble_initial_field(geo, coeffs[:, 0], 300)
    with pytest.raises(ValueError) as diffused:
        diffuse_field(field, args["lam"], args["t_end"], args["cfl"])
    assert str(diffused.value) == str(assembled.value)


def test_shipped_model2_footprint_build_peaks_below_3_mb():
    config = resolve_config("model2")
    geo = config.geometry
    _footprint_response.cache_clear()
    tracemalloc.start()
    try:
        _footprint_response(geo, geo.diffusivity, geo.t_constraint, config.n_z, config.cfl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("name", ["model2", "model3"])
def test_shipped_scans_and_chains_keep_the_dense_basis_results(name, monkeypatch):
    def scan_and_chains():
        _footprint_response.cache_clear()
        _footprint_svd.cache_clear()
        scenario = Scenario(resolve_config(name))
        return scenario.scan(), scenario.run_all_chains()

    scan, chains = scan_and_chains()
    monkeypatch.setattr(heat_interface, "_spectral_propagate", _dense_propagate)
    try:
        reference, reference_chains = scan_and_chains()
    finally:
        _footprint_response.cache_clear()
        _footprint_svd.cache_clear()
    np.testing.assert_array_equal(scan.thetas, reference.thetas)
    np.testing.assert_array_equal(scan.feasible, reference.feasible)
    assert scan.intervals == reference.intervals
    np.testing.assert_allclose(scan.probabilities, reference.probabilities, rtol=0.0, atol=1e-11)
    assert len(chains) == len(reference_chains)
    for chain, want in zip(chains, reference_chains):
        for column in ("samples", "accepted", "feasible", "log_post"):
            assert getattr(chain, column).tobytes() == getattr(want, column).tobytes(), column


def _coefficient_fields(isurr: InterfaceSurrogate) -> np.ndarray:
    """Higher chaos coefficient fields, one row per mode (shared germ) or per
    (strip, mode) (independent germs), from the factored surrogate."""
    if isurr.shared:
        return isurr.coeffs[:, 1:].T @ isurr.unit
    n_z = isurr.z_grid.shape[0]
    return (isurr.coeffs[:, 1:, None] * isurr.unit[:, None, :]).reshape(-1, n_z)


def _parent_rows(geo, coeffs, shared, n_z):
    """Coefficient fields stacked row by row before diffusion, one per mode
    (shared) or per (strip, mode) (independent), base row first."""
    order = coeffs.shape[1] - 1
    idx, covered = _footprint_index(geo, np.linspace(0.0, 1.0, n_z))
    rows = np.zeros((1 + (order if shared else geo.n_strips * order), n_z))
    rows[0] = assemble_initial_field(geo, coeffs[:, 0], n_z).values
    for k in range(1, order + 1):
        if shared:
            rows[k, covered] = coeffs[idx[covered], k]
        else:
            rows[1 + idx[covered] * order + (k - 1), covered] = coeffs[idx[covered], k]
    return rows


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("slope", [0, 3])
def test_response_assembly_matches_stacked_spectral(shared, slope):
    # the shipped long march: n_z 600, lam 0.005, t 20, cfl 0.4 (89 700 steps)
    geo = InterfaceGeometry(wall_temp=410.0)
    coeffs, germ = synthetic_coeffs(slope, shared)
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 0.005, 20.0, 600, 0.4)
    rows = _parent_rows(geo, coeffs, shared, 600)
    n_full, r_rem = _march_plan(isurr.z_grid, 0.005, 20.0, 0.4)
    expected = _spectral_propagate(rows, 0.4, n_full, r_rem)
    assert np.max(np.abs(isurr.base_field - expected[0])) <= 1e-10
    modes = _coefficient_fields(isurr)
    assert modes.shape == expected[1:].shape
    assert np.max(np.abs(modes - expected[1:]), initial=0.0) <= 1e-10


@pytest.mark.parametrize("shared", [True, False])
def test_response_at_time_zero_is_the_initial_field(shared):
    geo = InterfaceGeometry()
    coeffs, germ = synthetic_coeffs(3, shared)
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 0.0, 600)
    initial = assemble_initial_field(geo, coeffs[:, 0], 600)
    np.testing.assert_array_equal(isurr.base_field, initial.values)
    np.testing.assert_array_equal(isurr.z_grid, initial.z_grid)
    rows = _parent_rows(geo, coeffs, shared, 600)
    np.testing.assert_array_equal(_coefficient_fields(isurr), rows[1:])


def test_footprint_response_partition_of_unity():
    geo = InterfaceGeometry(wall_temp=410.0)
    for t_end in (0.0, 1.0, 20.0):
        _, wall, unit = _footprint_response(geo, 0.005, t_end, 600, 0.4)
        assert np.max(np.abs(wall / geo.wall_temp + unit.sum(axis=0) - 1.0)) <= 1e-12


def test_footprint_response_is_cached_read_only():
    geo = InterfaceGeometry()
    first = _footprint_response(geo, 1e-3, 1.0, 300, 0.4)
    assert _footprint_response(geo, 1e-3, 1.0, 300, 0.4) is first
    for array in first:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_footprint_response_keys_on_every_input():
    geo = InterfaceGeometry()
    args = dict(geometry=geo, lam=1e-3, t_end=1.0, n_z=300, cfl=0.4)
    _, wall, unit = _footprint_response(**args)
    changed = [
        dict(geometry=dataclasses.replace(geo, wall_temp=390.0)),
        dict(geometry=dataclasses.replace(geo, d1=0.2, d2=0.8)),
        dict(lam=2e-3),
        dict(t_end=0.5),
        dict(n_z=301),
        dict(cfl=0.3),
    ]
    for change in changed:
        _, other_wall, other_unit = _footprint_response(**{**args, **change})
        same = (
            other_wall.shape == wall.shape
            and other_unit.shape == unit.shape
            and np.array_equal(other_wall, wall)
            and np.array_equal(other_unit, unit)
        )
        assert not same, change


def test_degenerate_germ_interface_collapse():
    geo = InterfaceGeometry()
    rng = np.random.default_rng(4)
    means = rng.uniform(320, 360, 60)
    germ = GermSpec((GermVariable("q", 450.0, 0.0),))
    coeffs = np.zeros((60, 2))
    coeffs[:, 0] = means
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 500)
    reference = diffuse_field(assemble_initial_field(geo, means, 500), 1e-3, 1.0)
    np.testing.assert_allclose(isurr.base_field, reference.values, atol=1e-10)
    assert np.max(np.abs(_coefficient_fields(isurr))) <= 1e-12


@pytest.mark.parametrize("shared", [True, False])
def test_commute_diffuse_then_evaluate(shared):
    geo = InterfaceGeometry()
    coeffs, germ = synthetic_coeffs(3, shared)
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 600)
    assert isurr.shared is shared
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi = rng.standard_normal(1 if shared else 60)
        strip_temps = coeffs[:, 0] + coeffs[:, 1] * xi
        evaluated = evaluate_interface_batch(isurr, xi if shared else xi[None, :])[0]
        oracle = diffuse_field(assemble_initial_field(geo, strip_temps, 600), 1e-3, 1.0)
        assert np.max(np.abs(evaluated - oracle.values)) <= 1e-8


def test_single_evaluation_matches_batch():
    geo = InterfaceGeometry()
    isurr = assemble_interface_from_coeffs(geo, *synthetic_coeffs(3, shared=False), 1e-3, 1.0, 500)
    xi = np.random.default_rng(9).standard_normal((3, 60))
    single = evaluate_interface_batch(isurr, xi[:1])[0]
    # a one-row product may take another BLAS kernel than a three-row one
    np.testing.assert_allclose(single, evaluate_interface_batch(isurr, xi)[0], rtol=1e-13, atol=0)
    assert isurr.time == 1.0


def test_build_interface_validation():
    geo = InterfaceGeometry()
    coeffs, germ = synthetic_coeffs(3, shared=True)
    with pytest.raises(ValueError):
        assemble_interface_from_coeffs(geo, coeffs[:59], germ, 1e-3, 1.0, 600)
    with pytest.raises(ValueError):
        assemble_interface_from_coeffs(geo, coeffs[:, 0], germ, 1e-3, 1.0, 600)
    with pytest.raises(ValueError):
        assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, -1.0, 600)
    # the germ has one variable shared by all strips, or one per strip
    _, independent = synthetic_coeffs(3, shared=False, n_strips=59)
    with pytest.raises(ValueError):
        assemble_interface_from_coeffs(geo, coeffs, independent, 1e-3, 1.0, 600)
    # every strip's exit temperature is affine in its germ: c0 + c1 xi
    with pytest.raises(ValueError, match="n_strips, 2"):
        assemble_interface_from_coeffs(geo, np.column_stack([coeffs, coeffs[:, 1]]), germ, 1e-3, 1.0, 600)


@pytest.mark.parametrize("slope", [0, 2])
def test_evaluation_checks_the_draw_shape_at_every_order(slope):
    geo = InterfaceGeometry()
    for shared, wrong in ((True, np.zeros((7, 3))), (False, np.zeros(7))):
        coeffs, germ = synthetic_coeffs(slope, shared)
        isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 200)
        with pytest.raises(ValueError):
            evaluate_interface_batch(isurr, wrong)
        right = np.zeros((7,) + isurr.germ_axes)
        assert evaluate_interface_batch(isurr, right).shape == (7, 200)


def _direct_sum(isurr: InterfaceSurrogate, xi: np.ndarray) -> np.ndarray:
    """wall + sum_s (c[s, 0] + c[s, 1] xi_s) unit[s], one draw and strip at a time."""
    n_strips = isurr.coeffs.shape[0]
    out = np.empty((xi.shape[0], isurr.z_grid.shape[0]))
    for n, draw in enumerate(xi):
        field = isurr.wall.copy()
        for s in range(n_strips):
            x = draw if isurr.shared else draw[s]
            field += np.polynomial.hermite_e.hermeval(x, isurr.coeffs[s]) * isurr.unit[s]
        out[n] = field
    return out


@settings(max_examples=40, deadline=None)
@given(
    slope=st.integers(0, 4),
    n_strips=st.integers(1, 4),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    xi=hnp.arrays(float, st.tuples(st.integers(1, 5), st.just(4)), elements=st.floats(-6.0, 6.0)),
)
def test_factored_evaluation_matches_direct_sum(slope, n_strips, shared, seed, xi):
    geo = InterfaceGeometry(n_strips=n_strips, section_porosities=((0.25, 0.75, 0.2),))
    coeffs, germ = synthetic_coeffs(slope, shared, n_strips, seed)
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 120)
    assert isurr.shared is (shared or n_strips == 1)
    xi = xi[:, 0] if isurr.shared else xi[:, :n_strips]
    got = evaluate_interface_batch(isurr, xi)
    want = _direct_sum(isurr, xi)
    scale = np.max(np.abs(isurr.wall)) + np.sum(np.abs(coeffs)) * 6.0
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("shared", [True, False])
def test_affine_evaluation_matches_the_order_one_design(shared):
    # c0 + c1 xi gives the bits of the order-1 Hermite design it replaces
    geo = InterfaceGeometry()
    coeffs, germ = synthetic_coeffs(3, shared)
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 600)
    xi = np.random.default_rng(12).standard_normal((5000,) + isurr.germ_axes)
    design = hermite_design(1, xi.ravel()).reshape(xi.shape[0], -1, 2)
    expected = np.einsum("nsk,sk->ns", design, coeffs) @ isurr.unit
    expected += isurr.wall
    assert np.array_equal(evaluate_interface_batch(isurr, xi), expected)


def test_unit_svd_factors_the_unit_responses():
    geo = InterfaceGeometry(wall_temp=410.0)
    isurr = assemble_interface_from_coeffs(geo, *synthetic_coeffs(3, False), 0.005, 20.0, 600)
    left, right = isurr.unit_svd()
    assert left.shape == (60, 60) and right.shape == (60, 600)
    np.testing.assert_allclose(left @ right, isurr.unit, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(right @ right.T, np.eye(60), rtol=0.0, atol=1e-12)
    # U S: orthogonal columns whose norms are the singular values
    sv = np.linalg.svd(isurr.unit, compute_uv=False)
    np.testing.assert_allclose(left.T @ left, np.diag(sv**2), rtol=0.0, atol=1e-13 * sv[0] ** 2)


def test_unit_svd_is_built_on_use_once_per_response_key():
    geo = InterfaceGeometry()
    _footprint_svd.cache_clear()
    shared = assemble_interface_from_coeffs(geo, *synthetic_coeffs(3, True), 1e-3, 1.0, 300)
    independent = assemble_interface_from_coeffs(geo, *synthetic_coeffs(3, False), 1e-3, 1.0, 300)
    evaluate_interface_batch(shared, np.zeros(3))
    assert _footprint_svd.cache_info().currsize == 0
    first = independent.unit_svd()
    again = assemble_interface_from_coeffs(geo, *synthetic_coeffs(2, False, seed=1), 1e-3, 1.0, 300)
    assert again.unit_svd() is first and shared.unit_svd() is first
    assert _footprint_svd.cache_info().currsize == 1
    for array in first:
        assert not array.flags.writeable
