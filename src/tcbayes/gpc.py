"""Polynomial chaos machinery for the strip model.

Probabilists' Hermite basis in standardized Gaussian germ variables,
Gauss-Hermite quadrature with its one product rule (``tensor_rule``, which
a germ's projection reads), and the strip exit law the surrogates read.

The temperature march is linear in (T_f, T_s), and its coefficients
depend on (phi, re) but not on the flux, which enters only the source, so
T_f(1) = A(phi, re) + B(phi, re) q exactly. ``strip_exit_law`` names the
two fluxes per distinct porosity to march for A and B, and gives each
strip's germ q = mean + std xi its exact order-1 expansion (c0, c1) from
their exit T_f; ``Scenario`` marches them at many re with ``porous_flow``'s
batched kernel. Models 2 and 3 pass their strips. Model 1 passes one strip
per node of ``porosity_projection``, the Gauss-Hermite rule of its porosity
germ, and projects those (c0, c1) onto He_k(xi_phi) of the given order: an
anisotropic expansion, degree 1 in the flux and degree K in the porosity
(non-intrusive spectral projection; Xiu, *Numerical Methods for Stochastic
Computations*, 2010, ch. 7). ``build_strip_surrogate`` keeps the
intrusive Galerkin march (``_galerkin_march``) with the full x history of
one strip, as the reference the tests hold the exit law to.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .porous_flow import (
    DEFAULT_N_STEPS,
    DEFAULT_SINGULAR_EPS,
    ModelParams,
    NonFiniteStateError,
    SingularDenominatorError,
    _initial_state,
    _rhs,
)

__all__ = [
    "GermVariable",
    "GermSpec",
    "StripSurrogate",
    "hermite_design",
    "hermite_norms_squared",
    "gauss_hermite_rule",
    "tensor_rule",
    "build_strip_surrogate",
    "strip_exit_law",
    "porosity_projection",
    "evaluate_surrogate",
    "surrogate_moments",
]

DEFAULT_ORDER = 3
DEFAULT_N_QUAD = 6


def hermite_design(order: int, x: np.ndarray) -> np.ndarray:
    """Matrix He_k(x_m) with shape (len(x), order+1), built by recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.shape[0], order + 1))
    out[:, 0] = 1.0
    if order >= 1:
        out[:, 1] = x
    for k in range(1, order):
        out[:, k + 1] = x * out[:, k] - k * out[:, k - 1]
    return out


def hermite_norms_squared(order: int) -> np.ndarray:
    """Squared norms <He_k, He_k> = k! under the standard normal measure."""
    return np.array([math.factorial(k) for k in range(order + 1)], dtype=float)


def gauss_hermite_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, normalized to the N(0,1) measure.

    Weights sum to 1; the rule integrates polynomials of degree up to
    2*n_nodes - 1 exactly against the standard normal density.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return nodes, weights / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class GermVariable:
    """One Gaussian germ variable tied to a named model input."""

    name: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std < 0.0:
            raise ValueError("std must be >= 0 (0 marks a degenerate variable)")


@dataclass(frozen=True)
class GermSpec:
    """Ordered collection of germ variables defining the expansion space."""

    variables: tuple[GermVariable, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("germ needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("germ variable names must be unique")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def standardize(self, values: dict[str, float]) -> np.ndarray:
        """Map named physical values to germ coordinates; degenerate vars map to 0."""
        xi = []
        for v in self.variables:
            if v.std == 0.0:
                xi.append(np.zeros_like(np.asarray(values[v.name], dtype=float)))
            else:
                xi.append((np.asarray(values[v.name], dtype=float) - v.mean) / v.std)
        return np.stack(np.broadcast_arrays(*xi), axis=-1)


@dataclass(frozen=True)
class StripSurrogate:
    """Truncated chaos expansion of both strip temperatures along x.

    Coefficient arrays are indexed by one degree per germ variable followed
    by the x node, e.g. (K+1, K+1, n_nodes) for a two-variable germ. The
    order-zero entry at x=0 carries the deterministic initial condition and
    all higher entries start at zero.
    """

    order: int
    germ: GermSpec
    re: float
    x_grid: np.ndarray
    coeff_t_fluid: np.ndarray
    coeff_t_solid: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.order + 1,) * self.germ.dim + (self.x_grid.shape[0],)
        if self.coeff_t_fluid.shape != expected or self.coeff_t_solid.shape != expected:
            raise ValueError(f"coefficient arrays must have shape {expected}")


def tensor_rule(rules) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (M, len(rules)), the last axis fastest, and weights (M,) of the
    product of the 1-D rules ``(nodes, weights)``; no rule gives one node."""
    weights = functools.reduce(np.kron, (w for _, w in rules), np.ones(1))
    nodes = np.array(list(itertools.product(*(x for x, _ in rules))))
    return nodes.reshape(len(weights), len(rules)), weights


def _product_norms(order: int, dim: int) -> np.ndarray:
    """Squared norms of the ``dim``-variable Hermite products, in ``tensor_rule``'s order."""
    return functools.reduce(np.kron, [hermite_norms_squared(order)] * dim, np.ones(1))


class _Projection:
    """Quadrature, design and projection operators for one germ and order: the
    product rule (``tensor_rule``) and the Kronecker product of the variables' designs."""

    def __init__(self, germ: GermSpec, order: int, n_quad: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        if n_quad < order + 1:
            raise ValueError(
                f"quadrature with {n_quad} nodes cannot resolve order {order}; "
                "need n_quad >= order + 1"
            )
        nodes1d, weights1d = gauss_hermite_rule(n_quad)
        # a degenerate variable takes one node, at its mean, and the constant mode only
        spread = [var.std != 0.0 for var in germ.variables]
        rules = [(nodes1d, weights1d) if s else (np.zeros(1), np.ones(1)) for s in spread]
        designs = [hermite_design(order, nodes1d) if s else np.eye(1, order + 1) for s in spread]
        self.xi_nodes, self.weights = tensor_rule(rules)  # (M, dim), (M,)
        self.norms2 = _product_norms(order, germ.dim)
        self.design = functools.reduce(np.kron, designs, np.ones((1, 1)))  # (M, C)
        self.project = (self.design * self.weights[:, None]).T / self.norms2[:, None]  # (C, M)


def _physical_nodes(
    params: ModelParams, germ: GermSpec, xi_nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Heat flux and porosity at each collocation node, filling non-germ inputs
    from the deterministic parameter set."""
    m = xi_nodes.shape[0]
    q = np.full(m, params.heat_flux_nominal)
    phi = np.full(m, params.porosity)
    for d, var in enumerate(germ.variables):
        values = var.mean + var.std * xi_nodes[:, d]
        if var.name == "q":
            q = values
        elif var.name == "phi":
            phi = values
        else:
            raise ValueError(
                f"strip surrogate germ variables must be named 'q' or 'phi', got {var.name!r}"
            )
    return q, phi


def _galerkin_march(
    params: ModelParams,
    q_nodes: np.ndarray,
    phi_nodes: np.ndarray,
    re: float,
    proj: _Projection,
    n_steps: int,
    singular_eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """March the Galerkin coefficient system of one strip.

    At every Euler step the truncated temperature expansions are
    reconstructed at the collocation nodes (``q_nodes``, ``phi_nodes``),
    the physical right-hand sides are evaluated there, and the results are
    projected back onto the basis. The density is advanced per node
    alongside. Returns the fluid and solid coefficient histories, each
    (n_steps+1, C).
    """
    a_fluid, a_solid, source, darcy, forch, t_hg, phi_inv2 = _rhs(params, q_nodes, phi_nodes, re)
    dx = 1.0 / n_steps
    coeff_tf = np.zeros((n_steps + 1, proj.design.shape[1]))
    coeff_ts = np.zeros_like(coeff_tf)
    coeff_tf[0, 0], coeff_ts[0, 0], rho0 = _initial_state(params)
    rho = np.full(q_nodes.shape, rho0)
    for i in range(n_steps):
        tf = proj.design @ coeff_tf[i]
        ts = proj.design @ coeff_ts[i]
        diff = ts - tf
        denom = phi_inv2 - rho * rho * tf
        if np.any(np.abs(denom) < singular_eps):
            raise SingularDenominatorError(
                f"density denominator below epsilon at x={i * dx:.6f}"
            )
        growth = (a_fluid * rho * rho * diff + darcy + forch) / denom
        coeff_tf[i + 1] = coeff_tf[i] + dx * (proj.project @ (a_fluid * diff))
        coeff_ts[i + 1] = coeff_ts[i] + dx * (proj.project @ (a_solid * (tf - t_hg) + source))
        rho = rho + dx * growth * rho
    if not all(np.all(np.isfinite(v)) for v in (coeff_tf, coeff_ts, rho)):
        raise NonFiniteStateError("non-finite coefficient state during surrogate build")
    return coeff_tf, coeff_ts


def build_strip_surrogate(
    params: ModelParams,
    germ: GermSpec,
    re: float,
    order: int = DEFAULT_ORDER,
    n_quad: int = DEFAULT_N_QUAD,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
) -> StripSurrogate:
    """March the Galerkin coefficient system for one strip at fixed re and
    keep the coefficients at every x node."""
    if not re > 0.0:  # also rejects NaN
        raise ValueError(f"re must be positive, got {re}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    proj = _Projection(germ, order, n_quad)
    q_nodes, phi_nodes = _physical_nodes(params, germ, proj.xi_nodes)
    if not np.all((phi_nodes > 0.0) & (phi_nodes < 1.0)):
        raise ValueError("porosity leaves (0, 1) at a collocation node; shrink its std")
    coeff_tf, coeff_ts = _galerkin_march(
        params, q_nodes, phi_nodes, re, proj, n_steps, singular_eps
    )
    shape = (order + 1,) * germ.dim + (n_steps + 1,)
    return StripSurrogate(
        order=order,
        germ=germ,
        re=re,
        x_grid=np.linspace(0.0, 1.0, n_steps + 1),
        coeff_t_fluid=coeff_tf.T.reshape(shape),
        coeff_t_solid=coeff_ts.T.reshape(shape),
    )


def porosity_projection(phi: GermVariable, order: int, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Porosity at the ``n_quad`` Gauss-Hermite nodes of the germ ``phi``
    (one node at the mean when its std is 0), and the (order+1, nodes)
    matrix that projects values at those nodes onto He_0..He_order."""
    proj = _Projection(GermSpec((phi,)), order, n_quad)
    porosities = phi.mean + phi.std * proj.xi_nodes[:, 0]
    if not np.all((porosities > 0.0) & (porosities < 1.0)):
        raise ValueError("porosity leaves (0, 1) at a collocation node; shrink its std")
    return porosities, proj.project


def strip_exit_law(q_means: np.ndarray, q_stds: np.ndarray, porosities: np.ndarray):
    """The elements to march for many strips' exact flux expansions, and the
    map ``coeffs`` from their exit T_f, (..., 2, n_phis), to (..., n_strips, 2).

    T_f(1) = A(phi, re) + B(phi, re) q, so a strip with heat-flux germ
    q = mean + std xi has the order-1 expansion c0 = A + B mean, c1 = B std.
    The elements, ``q`` and ``phi`` of shape (2, n_phis), are two fluxes,
    the ends min(mean - std) and max(mean + std) of the germs, at every
    distinct porosity.
    """
    q_means, q_stds, porosities = (np.asarray(v, float) for v in (q_means, q_stds, porosities))
    if q_means.ndim != 1 or not q_means.shape == q_stds.shape == porosities.shape:
        raise ValueError("q_means, q_stds and porosities must be 1-D of equal length")
    if not np.all((porosities > 0.0) & (porosities < 1.0)):
        raise ValueError("porosities must lie in (0, 1)")
    phis, inverse = np.unique(porosities, return_inverse=True)
    ends = np.array([np.min(q_means - q_stds), np.max(q_means + q_stds)])
    span = ends[1] - ends[0]

    def coeffs(tf: np.ndarray) -> np.ndarray:
        rise = (tf[..., 1, :] - tf[..., 0, :])[..., inverse]
        slope = rise / span if span > 0.0 else np.zeros_like(rise)
        intercept = tf[..., 0, inverse] - slope * ends[0]
        return np.stack([intercept + slope * q_means, slope * q_stds], axis=-1)

    q, phi = np.broadcast_arrays(ends[:, None], phis)
    return q, phi, coeffs


def evaluate_surrogate(s: StripSurrogate, x_index: int, q, phi) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate both temperature expansions at one x node and given (q, phi).

    Inputs are standardized with the germ means and stds; degenerate
    variables are pinned to their mean. Scalars in, scalars out; arrays
    broadcast.
    """
    values = {"q": q, "phi": phi}
    xi = s.germ.standardize({name: values[name] for name in s.germ.names})
    designs = [hermite_design(s.order, xi[..., d].ravel()) for d in range(s.germ.dim)]

    ctf = s.coeff_t_fluid[..., x_index]
    cts = s.coeff_t_solid[..., x_index]
    if s.germ.dim == 1:
        tf = designs[0] @ ctf
        ts = designs[0] @ cts
    elif s.germ.dim == 2:
        tf = np.einsum("ni,ij,nj->n", designs[0], ctf, designs[1])
        ts = np.einsum("ni,ij,nj->n", designs[0], cts, designs[1])
    else:
        raise ValueError("strip surrogates support one or two germ variables")
    shape = xi.shape[:-1]
    if shape == ():
        return float(tf[0]), float(ts[0])
    return tf.reshape(shape), ts.reshape(shape)


def surrogate_moments(
    s: StripSurrogate, x_index: int, field: str = "t_fluid"
) -> tuple[float, float]:
    """Mean and variance of one temperature field at an x node.

    Mean is the order-zero coefficient; variance sums squared higher
    coefficients weighted by the basis norms.
    """
    coeff = {"t_fluid": s.coeff_t_fluid, "t_solid": s.coeff_t_solid}[field][..., x_index]
    flat = coeff.ravel()
    norms2 = _product_norms(s.order, s.germ.dim)
    mean = float(flat[0])
    var = float(np.sum(flat[1:] ** 2 * norms2[1:]))
    return mean, var
