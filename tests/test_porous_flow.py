"""Forward strip model: fixed points, convergence, frozen reference values,
and the one batched march against a frozen copy of the scalar loop."""
from __future__ import annotations

import math

import numpy as np
import pytest
from dataclasses import replace

from tcbayes import porous_flow
from tcbayes.porous_flow import (
    DEFAULT_N_STEPS,
    DEFAULT_SINGULAR_EPS,
    ModelParams,
    NonFiniteStateError,
    SingularDenominatorError,
    forward_pressure_at_mean,
    integrate_strip,
    interface_state_batch,
    march_batch,
)

# Frozen self-convergence reference: default parameter set integrated once at
# n_steps = 10**6. Regenerate only if the governing equations change.
REF_N_STEPS = 10**6
REF_T_FLUID_1 = 3180.76059666
REF_PRESSURE = 595117.29470231


# ---------------------------------------------------------------------------
# the scalar Euler march on floats, frozen as it stood before every march went
# through ``march_batch``: the reference that the batched loop must equal bit
# for bit, and the reference value of tests that compare a table or the
# posterior with the march at many thetas
# ---------------------------------------------------------------------------


def _singular(denom: float, i: int, dx: float) -> SingularDenominatorError:
    return SingularDenominatorError(
        f"density denominator {denom!r} below epsilon at x={i * dx:.6f}"
    )


def frozen_march(params, q, phi, re, n_steps=DEFAULT_N_STEPS, singular_eps=DEFAULT_SINGULAR_EPS,
                 states=None):
    """The scalar Euler march of one strip on floats; returns its exit state.

    A ``states`` list gets each state (T_f, T_s, rho_f) after a step. The
    singularity guard is tested at every step, finiteness only at the exit:
    a NaN or infinite state stays non-finite to the end of the march.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie in (0, 1), got {phi}")
    if not re > 0.0:  # also rejects NaN
        raise ValueError(f"re must be positive, got {re}")
    try:  # a subnormal float re underflows a denominator to 0.0
        rhs = porous_flow._rhs(params, q, phi, re)
    except ZeroDivisionError:
        raise NonFiniteStateError(f"non-finite right-hand side at re={re!r}") from None
    dx = 1.0 / n_steps
    dx_fluid = dx * rhs[0]
    tf, ts, rho = porous_flow._initial_state(params)
    for i in range(n_steps):
        try:
            tf, ts, rho, denom = porous_flow._euler_step(tf, ts, rho, rhs, dx, dx_fluid)
        except ZeroDivisionError:
            raise _singular(0.0, i, dx) from None
        if abs(denom) < singular_eps:
            raise _singular(denom, i, dx)
        if states is not None:
            states.append((tf, ts, rho))
    if not (math.isfinite(tf) and math.isfinite(ts) and math.isfinite(rho)):
        raise NonFiniteStateError(f"non-finite state at the exit of a march at re={re!r}")
    return tf, ts, rho


def frozen_forward(params, xi_mean, re, n_steps=DEFAULT_N_STEPS, singular_eps=DEFAULT_SINGULAR_EPS):
    """``forward_pressure_at_mean`` as it stood on the frozen scalar march."""
    tf, _, rho = frozen_march(params, *xi_mean, re, n_steps, singular_eps)
    return tf * rho


@pytest.mark.parametrize(
    "q, phi, re, n_steps",
    [
        (462.675, 0.111, 700.0, 1000),
        (30845.0, 0.111, 405.0, 1000),
        (25000.0, 0.2, 350.0, 300),
        (34000.0, 0.4, 950.0, 777),
        (462.675, 0.4, 40.0, 200),
        (462.675, 0.111, 1400.0, 1),
        (0.0, 0.111, 2000.0, 25),
    ],
)
def test_strip_states_are_the_frozen_march_bit_for_bit(q, phi, re, n_steps):
    p = ModelParams()
    want = [porous_flow._initial_state(p)]
    frozen_march(p, q, phi, re, n_steps, states=want)
    traj = integrate_strip(p, q, phi, re, n_steps)
    got = np.stack([traj.t_fluid, traj.t_solid, traj.density], axis=1)
    assert got.tobytes() == np.array(want).tobytes()
    # a guard hit raises the frozen loop's failure
    eps = min(abs(porous_flow._rhs(p, q, phi, re)[-1] - rho * rho * tf) for tf, _, rho in want[:-1]) * 1.5
    with pytest.raises(SingularDenominatorError):
        frozen_march(p, q, phi, re, n_steps, singular_eps=eps)
    with pytest.raises(SingularDenominatorError):
        integrate_strip(p, q, phi, re, n_steps, singular_eps=eps)


def test_initial_conditions_exact():
    p = ModelParams()
    traj = integrate_strip(p, p.heat_flux_nominal, p.porosity, p.reynolds_nominal)
    assert traj.t_fluid[0] == p.coolant_temp
    assert traj.t_solid[0] == p.solid_temp
    assert traj.density[0] == p.reservoir_pressure / p.coolant_temp
    assert traj.density[0] == pytest.approx(1972.3865877712, rel=1e-12)


def test_zero_flux_equal_temperatures_is_fixed_point():
    p = replace(ModelParams(), coolant_temp=347.0, solid_temp=347.0)
    traj = integrate_strip(p, 0.0, p.porosity, p.reynolds_nominal, n_steps=500)
    # both temperature right-hand sides vanish identically
    assert np.all(traj.t_fluid == p.hot_gas_temp)
    assert np.all(traj.t_solid == p.hot_gas_temp)


# The two tests below step the Euler law of ``_euler_step`` up to 10**6
# times through the frozen scalar loop, whose states ``integrate_strip``
# equals bit for bit (``test_strip_states_are_the_frozen_march_bit_for_bit``):
# a one-element batch costs about 20 us a step.


def test_frozen_high_resolution_reference():
    p = ModelParams()
    tf, _, rho = frozen_march(p, p.heat_flux_nominal, p.porosity, p.reynolds_nominal, n_steps=REF_N_STEPS)
    assert tf == pytest.approx(REF_T_FLUID_1, rel=1e-10)
    assert tf * rho == pytest.approx(REF_PRESSURE, rel=1e-10)


def test_euler_first_order_self_convergence():
    p = ModelParams()

    def tf1(n):
        return frozen_march(p, p.heat_flux_nominal, p.porosity, p.reynolds_nominal, n_steps=n)[0]

    errs = [abs(tf1(n) - tf1(2 * n)) for n in (1000, 10000, 100000)]
    assert errs[0] > errs[1] > errs[2]
    # first order: a tenfold finer grid cuts the doubling error by about ten
    assert errs[1] <= 0.2 * errs[0]
    assert errs[2] <= 0.2 * errs[1]
    # coarse interface values stay within the first-order error band of the reference
    coarse = tf1(1000)
    finer = tf1(100000)
    assert abs(coarse - REF_T_FLUID_1) <= 2.0 * abs(coarse - finer)


def test_velocity_is_stored_reciprocal_density():
    p = ModelParams()
    traj = integrate_strip(p, p.heat_flux_nominal, p.porosity, p.reynolds_nominal, n_steps=200)
    assert np.all(traj.velocity == 1.0 / traj.density)


def test_determinism_bit_identical():
    p = ModelParams()
    a = integrate_strip(p, p.heat_flux_nominal, p.porosity, 405.0, n_steps=777)
    b = integrate_strip(p, p.heat_flux_nominal, p.porosity, 405.0, n_steps=777)
    for name in ("t_fluid", "t_solid", "density", "velocity"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    f1 = forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), 405.0)
    f2 = forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), 405.0)
    assert f1 == f2


def test_batch_matches_scalar_integration():
    p = ModelParams()
    qs = np.array([30845.0, 25000.0, 34000.0])
    phis = np.array([0.111, 0.2, 0.4])
    tf, ts, rho = interface_state_batch(p, qs, phis, 405.0, n_steps=300)
    for k in range(3):
        traj = integrate_strip(p, qs[k], phis[k], 405.0, n_steps=300)
        assert tf[k] == pytest.approx(traj.t_fluid[-1], rel=1e-13)
        assert ts[k] == pytest.approx(traj.t_solid[-1], rel=1e-13)
        assert rho[k] == pytest.approx(traj.density[-1], rel=1e-13)


def test_chunked_batch_march_equals_unchunked(monkeypatch):
    p = ModelParams()
    rng = np.random.default_rng(3)
    qs = 30845.0 * (1.0 + 0.1 * rng.standard_normal((4, 5)))
    phis = 0.111 + 0.01 * rng.standard_normal(5)
    res = np.array([[380.0], [405.0], [540.0], [900.0]])
    whole = interface_state_batch(p, qs, phis, res, n_steps=200)
    # 20 elements in chunks of 7: two chunk boundaries, a short last chunk
    monkeypatch.setattr(porous_flow, "_MARCH_CHUNK", 7)
    chunked = interface_state_batch(p, qs, phis, res, n_steps=200)
    for a, b in zip(chunked, whole):
        assert a.shape == (4, 5)
        np.testing.assert_array_equal(a, b)
    # a guard hit in any chunk raises the unchunked exception type
    hot = np.where(np.arange(20).reshape(4, 5) == 15, 1e300, qs)
    with pytest.raises(NonFiniteStateError):
        interface_state_batch(p, hot, phis, res, n_steps=200)
    with pytest.raises(SingularDenominatorError):
        interface_state_batch(p, qs, phis, res, n_steps=200, singular_eps=1e300)


def _denominators(p: ModelParams, q: float, phi: float, n_steps: int) -> list[float]:
    """|phi^-2 - rho^2 T_f| at each step of the scalar march."""
    rhs, dx = porous_flow._rhs(p, q, phi, 405.0), 1.0 / n_steps
    state, out = porous_flow._initial_state(p), []
    for _ in range(n_steps):
        *state, denom = porous_flow._euler_step(*state, rhs, dx, dx * rhs[0])
        out.append(abs(denom))
    return out


def test_a_nan_element_does_not_hide_a_guard_hit():
    p = ModelParams()
    # element 0 has a NaN flux: its denominator turns NaN from step 2 on;
    # element 1 crosses the guard only at step 2, next to that NaN
    eps = 8.5e8
    nan_run = _denominators(p, float("nan"), 0.5, 10)
    hit_run = _denominators(p, p.heat_flux_nominal, p.porosity, 10)
    assert min(nan_run[:2]) >= eps and np.isnan(nan_run[2:]).all()
    assert [k for k, d in enumerate(hit_run) if d < eps] == [2]
    q, phi = np.array([np.nan, p.heat_flux_nominal]), np.array([0.5, p.porosity])
    states, singular = march_batch(p, q, phi, 405.0, n_steps=10, singular_eps=eps)
    assert singular.tolist() == [False, True]
    assert np.isnan(states[:, 0]).all()
    with pytest.raises(SingularDenominatorError):
        interface_state_batch(p, q, phi, 405.0, n_steps=10, singular_eps=eps)
    with pytest.raises(SingularDenominatorError):
        forward_pressure_at_mean(p, (q[1], phi[1]), 405.0, n_steps=10, singular_eps=eps)


def test_the_scalar_and_batched_marches_take_the_one_step(monkeypatch):
    p = ModelParams()
    real_step, calls = porous_flow._euler_step, []

    def counting(*args):
        calls.append(type(args[0]))
        return real_step(*args)

    monkeypatch.setattr(porous_flow, "_euler_step", counting)
    # one theta is a one-element batch: no march steps floats
    forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), 405.0, n_steps=25)
    assert calls == [np.ndarray] * 25
    calls.clear()
    integrate_strip(p, p.heat_flux_nominal, p.porosity, 405.0, n_steps=25)
    assert calls == [np.ndarray] * 25
    calls.clear()
    march_batch(p, p.heat_flux_nominal, np.array([0.111, 0.2, 0.4]), 405.0, n_steps=25)
    assert calls == [np.ndarray] * 25


def test_an_array_step_updates_its_state_in_place_as_the_float_step():
    p = ModelParams()
    q, phi, re = np.array([30845.0, 25000.0, 34000.0]), np.array([0.111, 0.2, 0.4]), 405.0
    dx = 1.0 / 50
    state = np.array([[300.0, 310.0, 320.0], [330.0, 325.0, 315.0], [1900.0, 2000.0, 1950.0]])
    tf, ts, rho = state.copy()
    rhs = porous_flow._rhs(p, q, phi, re)
    *stepped, denom = porous_flow._euler_step(tf, ts, rho, rhs, dx, dx * rhs[0])
    assert all(a is b for a, b in zip(stepped, (tf, ts, rho)))
    for k in range(3):
        rhs_k = porous_flow._rhs(p, float(q[k]), float(phi[k]), re)
        want = porous_flow._euler_step(*state[:, k].tolist(), rhs_k, dx, dx * rhs_k[0])
        assert all(type(v) is float for v in want)
        assert (tf[k], ts[k], rho[k], denom[k]) == want


def test_interface_pressure_is_terminal_product():
    # the pressure observable is T_f(1) * rho_f(1) of the batch march at the mean germ
    p = ModelParams()
    for re in (320.0, 405.0, 880.0):
        tf, _, rho = interface_state_batch(p, p.heat_flux_nominal, p.porosity, re)
        fast = forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), re)
        assert fast == tf * rho


def test_fast_path_matches_trajectory_pressure():
    p = ModelParams()
    for re in (320.0, 405.0, 880.0):
        traj = integrate_strip(p, p.heat_flux_nominal, p.porosity, re)
        fast = forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), re)
        # the interface pressure is the terminal product T_f(1) * rho_f(1)
        assert fast == pytest.approx(traj.t_fluid[-1] * traj.density[-1], rel=1e-14)


def test_singular_denominator_guard():
    # park the system close to the algebraic singularity and widen the guard
    p = replace(
        ModelParams(),
        porosity=0.9,
        reservoir_pressure=1.0,
        coolant_temp=1.23,
        solid_temp=1.23,
    )
    with pytest.raises(SingularDenominatorError):
        integrate_strip(p, 0.0, p.porosity, 405.0, n_steps=10, singular_eps=1.0)


def test_non_finite_state_raises():
    p = ModelParams()
    with pytest.raises(NonFiniteStateError):
        integrate_strip(p, 1e308, p.porosity, p.reynolds_nominal, n_steps=10)


def test_input_validation():
    p = ModelParams()
    with pytest.raises(ValueError):
        integrate_strip(p, 0.0, 1.5, 405.0)
    with pytest.raises(ValueError):
        integrate_strip(p, 0.0, 0.111, -1.0)
    with pytest.raises(ValueError):
        integrate_strip(p, 0.0, 0.111, 405.0, n_steps=0)
    with pytest.raises(ValueError):
        ModelParams(porosity=1.2)
    with pytest.raises(ValueError):
        ModelParams(kappa_solid=-1.0)


def test_nan_inputs_are_rejected_before_the_march(monkeypatch):
    def no_step(*args):
        raise AssertionError("a NaN input must be rejected before the march")

    monkeypatch.setattr(porous_flow, "_euler_step", no_step)
    p = ModelParams()
    nan = float("nan")
    with pytest.raises(ValueError, match="re must be positive"):
        integrate_strip(p, p.heat_flux_nominal, p.porosity, nan)
    with pytest.raises(ValueError, match="re must be positive"):
        forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), nan)
    with pytest.raises(ValueError, match="re must be positive"):
        interface_state_batch(p, p.heat_flux_nominal, p.porosity, np.array([405.0, nan]))
    with pytest.raises(ValueError, match="phi draws"):
        interface_state_batch(p, p.heat_flux_nominal, np.array([p.porosity, nan]), 405.0)


def test_pressure_scan_is_strictly_monotone_in_re():
    # direction is recorded by this scan rather than asserted from theory
    p = ModelParams()
    res = np.linspace(300.0, 1000.0, 8)
    pressures = [forward_pressure_at_mean(p, (p.heat_flux_nominal, p.porosity), r) for r in res]
    diffs = np.diff(pressures)
    assert np.all(diffs != 0.0)
    assert np.all(np.sign(diffs) == np.sign(diffs[0]))
