"""Deterministic forward model for a single porous strip.

Two coupled temperature ODEs (fluid and solid) plus an algebraic density
closure are marched in the normalized coordinate x in [0, 1] with explicit
Euler. The observable exposed to the inverse problem is the interface
pressure p = T_f(1) * rho_f(1). One step, ``_euler_step``, states the law,
and one loop, ``march_batch``, steps it on arrays of strips; a single strip
is a one-element march.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv

__all__ = [
    "ModelParams",
    "StripTrajectory",
    "SingularDenominatorError",
    "NonFiniteStateError",
    "MARCH_FAILURES",
    "integrate_strip",
    "march_batch",
    "interface_state_batch",
    "forward_pressure_at_mean",
]

DEFAULT_N_STEPS = 1000
DEFAULT_SINGULAR_EPS = 1e-12
# elements per chunk of the batched march: its ``_euler_step`` temporaries fit in cache
_MARCH_CHUNK = 16384


class SingularDenominatorError(ArithmeticError):
    """Density-equation denominator phi^-2 - rho^2*T_f dropped below the epsilon guard."""


class NonFiniteStateError(ArithmeticError):
    """A state variable became NaN or infinite during integration."""


MARCH_FAILURES = (SingularDenominatorError, NonFiniteStateError)  # read as infeasible


@dataclass(frozen=True)
class ModelParams:
    """Deterministic strip-model parameters.

    Defaults are the reference values of the phi = 0.111 section; scenario
    configs override individual fields (porosity for the second section,
    pre-scaled heat flux, and so on).
    """

    reynolds_nominal: float = 405.0
    prandtl: float = 0.64
    nusselt: float = 7500.0
    heat_flux_nominal: float = 30845.0
    hot_gas_temp: float = 347.0
    porosity: float = 0.111
    kappa_fluid: float = 0.03
    kappa_solid: float = 15.2
    permeability_darcy: float = 3.57e-13
    forchheimer: float = 5.17e-8
    coolant_temp: float = 304.2
    solid_temp: float = 321.9
    reservoir_pressure: float = 600000.0
    length: float = 0.015

    def __post_init__(self) -> None:
        if not 0.0 < self.porosity < 1.0:
            raise ValueError(f"porosity must lie in (0, 1), got {self.porosity}")
        if not self.reynolds_nominal > 0.0:  # also rejects NaN
            raise ValueError("reynolds_nominal must be positive")
        for name in (
            "prandtl",
            "nusselt",
            "hot_gas_temp",
            "kappa_fluid",
            "kappa_solid",
            "permeability_darcy",
            "forchheimer",
            "coolant_temp",
            "solid_temp",
            "reservoir_pressure",
            "length",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class StripTrajectory:
    """Euler trajectory of one strip on the normalized coordinate x."""

    x_grid: np.ndarray
    t_fluid: np.ndarray
    t_solid: np.ndarray
    density: np.ndarray
    velocity: np.ndarray

    def __post_init__(self) -> None:
        n = self.x_grid.shape[0]
        for name in ("t_fluid", "t_solid", "density", "velocity"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have the same length as x_grid")
        if n < 2 or self.x_grid[0] != 0.0 or self.x_grid[-1] != 1.0:
            raise ValueError("x_grid must run from 0 to 1")
        if np.any(np.diff(self.x_grid) <= 0.0):
            raise ValueError("x_grid must be strictly increasing")
        if np.any(self.density <= 0.0):
            raise ValueError("density must be positive everywhere")

    def to_csv(self, path: str) -> None:
        write_csv(
            path,
            ("x", "t_fluid", "t_solid", "density", "velocity"),
            (self.x_grid, self.t_fluid, self.t_solid, self.density, self.velocity),
        )


def _rhs(params: ModelParams, q, phi, re) -> tuple:
    """Right-hand-side coefficients at (q, phi, re); floats or broadcastable arrays."""
    solid_cap = (1.0 - phi) * params.kappa_solid
    return (
        params.nusselt / (params.prandtl * re),
        params.kappa_fluid / solid_cap * re * params.prandtl,
        q / solid_cap,
        params.length**2 / (re * params.permeability_darcy),
        params.length / params.forchheimer,
        params.hot_gas_temp,
        # not phi**-2: a SIMD array power may round differently from libm pow
        1.0 / (phi * phi),
    )


def _initial_state(params: ModelParams) -> tuple[float, float, float]:
    return params.coolant_temp, params.solid_temp, params.reservoir_pressure / params.coolant_temp


def _euler_step(tf, ts, rho, rhs: tuple, dx: float, dx_fluid):
    """One explicit Euler step of (T_f, T_s, rho_f), the one statement of
    the law; ``dx_fluid`` is ``dx * a_fluid``, formed once per march.

    Its augmented assignments update the state arrays in place. Returns
    the new state and the old state's density denominator
    phi^-2 - rho^2*T_f for the caller's singularity guard.
    """
    a_fluid, a_solid, source, darcy, forch, t_hg, phi_inv2 = rhs
    diff = ts - tf
    denom = rho * rho
    denom *= tf
    denom = phi_inv2 - denom
    growth = a_fluid * rho
    growth *= rho
    growth *= diff
    growth += darcy
    growth += forch
    growth /= denom
    heat = tf - t_hg
    heat *= a_solid
    heat += source
    heat *= dx
    ts += heat
    diff *= dx_fluid
    tf += diff
    growth *= dx
    growth *= rho
    rho += growth
    return tf, ts, rho, denom


def integrate_strip(
    params: ModelParams,
    q: float,
    phi: float,
    re: float,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
) -> StripTrajectory:
    """Integrate one strip with explicit Euler and return the full trajectory.

    Parameters
    ----------
    params : ModelParams
        Deterministic parameter set; ``q`` and ``phi`` override the nominal
        heat flux and porosity so the caller can substitute germ realizations.
    q, phi, re : float
        Heat flux, porosity and Reynolds number for this run.
    n_steps : int
        Number of Euler steps on [0, 1].
    singular_eps : float
        Guard on |phi^-2 - rho^2*T_f|; crossing it raises
        SingularDenominatorError. A state that turns NaN or infinite raises
        NonFiniteStateError (``interface_state_batch``).
    """
    states = np.empty((n_steps + 1, 3, 1))
    states[0, :, 0] = _initial_state(params)
    interface_state_batch(params, q, phi, re, n_steps, singular_eps, states[1:])
    t_fluid, t_solid, density = states[:, :, 0].T
    return StripTrajectory(
        x_grid=np.linspace(0.0, 1.0, n_steps + 1),
        t_fluid=t_fluid,
        t_solid=t_solid,
        density=density,
        velocity=1.0 / density,
    )


def march_batch(
    params: ModelParams,
    q: np.ndarray,
    phi: np.ndarray,
    re: float | np.ndarray,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
    record: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exit states (T_f, T_s, rho_f) of the broadcast (q, phi, re), as
    (3, *shape), and which elements hit the density guard, as (*shape).

    No element raises. Each step goes through ``_euler_step`` on views of
    the exit-state array, so an element's march does not depend on the
    others. ``_MARCH_CHUNK`` elements march at a time, so the step
    temporaries stay in cache; chunking changes no bit. A ``record`` array
    (n_steps, 3, n_elements) gets the state after each step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    q, phi, re = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (q, phi, re)))
    # "not" forms: a NaN input fails them too
    if not np.all((phi > 0.0) & (phi < 1.0)):
        raise ValueError("phi draws must lie in (0, 1)")
    if not np.all(re > 0.0):
        raise ValueError("re must be positive")
    shape = q.shape
    q, phi, re = q.ravel(), phi.ravel(), re.ravel()
    dx = 1.0 / n_steps
    states = np.empty((3, q.size))
    singular = np.zeros(q.size, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, q.size, _MARCH_CHUNK):
            part = slice(lo, lo + _MARCH_CHUNK)
            rhs = _rhs(params, q[part], phi[part], re[part])
            dx_fluid = dx * rhs[0]
            states[:, part] = np.array(_initial_state(params))[:, None]
            tf, ts, rho = state = states[:, part]
            for i in range(n_steps):
                *_, denom = _euler_step(tf, ts, rho, rhs, dx, dx_fluid)
                # fmin skips NaN, which would hide a guard hit in another element
                if np.fmin.reduce(np.abs(denom, out=denom)) < singular_eps:
                    singular[part] |= denom < singular_eps
                if record is not None:
                    record[i, :, part] = state
    return states.reshape((3, *shape)), singular.reshape(shape)


def interface_state_batch(
    params: ModelParams,
    q: np.ndarray,
    phi: np.ndarray,
    re: float | np.ndarray,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
    record: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal states (T_f, T_s, rho_f at x=1) of ``march_batch``, which
    raises SingularDenominatorError if any element hit the guard, else
    NonFiniteStateError if any is non-finite."""
    states, singular = march_batch(params, q, phi, re, n_steps, singular_eps, record)
    if singular.any():
        raise SingularDenominatorError("density denominator below epsilon in batch")
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("non-finite state in batch integration")
    return tuple(v[()] for v in states)


def forward_pressure_at_mean(
    params: ModelParams,
    xi_mean: tuple[float, float],
    re: float,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
) -> float:
    """Pressure observable F(re) with the germ frozen at its mean.

    This is the likelihood evaluation point: a one-element march of the
    strip at the mean heat flux and porosity, read off as the interface
    pressure. The scenario's forward tables give F wherever the samplers
    go, so this runs only beyond every table.
    """
    tf, _, rho = interface_state_batch(params, *xi_mean, re, n_steps, singular_eps)
    return float(tf * rho)
