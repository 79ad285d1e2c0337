"""Polynomial chaos machinery for the strip model.

Probabilists' Hermite basis in standardized Gaussian germ variables,
Gauss-Hermite quadrature, and a Galerkin coefficient system for the two
strip temperatures marched with the same explicit Euler scheme and
right-hand-side coefficients (``porous_flow._rhs``) as the deterministic
model. The density closure is integrated per collocation
node (collocation in rho, Galerkin in the temperatures). One march,
``_galerkin_march``, serves every builder: ``build_strip_surrogate`` keeps
the full x history of one strip at one re; ``build_strip_exit_batch`` (one
strip germ at many re) and ``build_strip_surrogate_batch`` (many strips with
univariate heat-flux germs, one re per strip) keep only the exit
coefficients, so a batch of thousands of rows holds no history.
"""
from __future__ import annotations

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
    _rhs,
)

__all__ = [
    "GermVariable",
    "GermSpec",
    "StripSurrogate",
    "hermite_design",
    "hermite_norms_squared",
    "gauss_hermite_rule",
    "build_strip_surrogate",
    "build_strip_exit_batch",
    "build_strip_surrogate_batch",
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
    distribution: str = "gaussian"

    def __post_init__(self) -> None:
        if self.distribution != "gaussian":
            raise ValueError(f"unsupported distribution {self.distribution!r}")
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


class _Projection:
    """Shared quadrature/design/projection operators for one germ and order."""

    def __init__(self, germ: GermSpec, order: int, n_quad: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        if n_quad < order + 1:
            raise ValueError(
                f"quadrature with {n_quad} nodes cannot resolve order {order}; "
                "need n_quad >= order + 1"
            )
        nodes1d, weights1d = gauss_hermite_rule(n_quad)
        per_dim_nodes = []
        per_dim_weights = []
        per_dim_design = []
        for var in germ.variables:
            if var.std == 0.0:
                # degenerate variable: single node at the mean, constant mode only
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
        self.xi_nodes = np.stack([g.ravel() for g in node_grids], axis=-1)  # (M, dim)
        weight_grids = np.meshgrid(*per_dim_weights, indexing="ij")
        self.weights = np.prod(np.stack([g.ravel() for g in weight_grids]), axis=0)

        norms1d = hermite_norms_squared(order)
        multi = list(itertools.product(range(order + 1), repeat=germ.dim))
        self.multi_indices = multi
        self.norms2 = np.array([np.prod([norms1d[k] for k in idx]) for idx in multi])

        sizes = [len(nodes) for nodes in per_dim_nodes]
        idx_grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
        n_nodes = self.xi_nodes.shape[0]
        design = np.ones((n_nodes, len(multi)))
        for c, idx in enumerate(multi):
            for d, k in enumerate(idx):
                design[:, c] *= per_dim_design[d][idx_grids[d].ravel(), k]
        self.design = design  # (M, C): reconstruction at quadrature nodes
        self.project = (design * self.weights[:, None]).T / self.norms2[:, None]  # (C, M)


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
    re: float | np.ndarray,
    design: np.ndarray,
    project: np.ndarray,
    n_steps: int,
    singular_eps: float,
    history: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """March the Galerkin coefficient system of a batch of strips.

    ``q_nodes`` and ``phi_nodes`` broadcast to (B, M) collocation values;
    ``re`` is a scalar or one value per batch row. At every Euler step the
    truncated temperature expansions are reconstructed at the nodes with
    ``design`` (M, C), the physical right-hand sides are evaluated there,
    and the results are projected back onto the basis with ``project``
    (C, M). The density is advanced per node alongside. Returns the fluid
    and solid temperature coefficients at the exit, (B, C), or with
    ``history`` their (n_steps+1, B, C) histories.
    """
    re = np.asarray(re, dtype=float)
    q_nodes, phi_nodes, re = np.broadcast_arrays(
        np.atleast_2d(q_nodes), np.atleast_2d(phi_nodes), re[:, None] if re.ndim else re
    )
    a_fluid, a_solid, source, darcy, forch, t_hg, phi_inv2 = _rhs(params, q_nodes, phi_nodes, re)
    dx = 1.0 / n_steps

    ctf = np.zeros((q_nodes.shape[0], design.shape[1]))
    cts = np.zeros_like(ctf)
    ctf[:, 0] = params.coolant_temp
    cts[:, 0] = params.solid_temp
    if history:
        coeff_tf = np.empty((n_steps + 1,) + ctf.shape)
        coeff_ts = np.empty_like(coeff_tf)
        coeff_tf[0], coeff_ts[0] = ctf, cts
    rho = np.full(q_nodes.shape, params.reservoir_pressure / params.coolant_temp)

    design_t = design.T
    project_t = project.T
    for i in range(n_steps):
        tf = ctf @ design_t
        ts = cts @ design_t
        diff = ts - tf
        denom = phi_inv2 - rho * rho * tf
        if np.any(np.abs(denom) < singular_eps):
            raise SingularDenominatorError(
                f"density denominator below epsilon at x={i * dx:.6f}"
            )
        growth = (a_fluid * rho * rho * diff + darcy + forch) / denom
        ctf = ctf + dx * ((a_fluid * diff) @ project_t)
        cts = cts + dx * ((a_solid * (tf - t_hg) + source) @ project_t)
        rho = rho + dx * growth * rho
        if history:
            coeff_tf[i + 1], coeff_ts[i + 1] = ctf, cts
    if not (np.all(np.isfinite(ctf)) and np.all(np.isfinite(cts)) and np.all(np.isfinite(rho))):
        raise NonFiniteStateError("non-finite coefficient state during surrogate build")
    return (coeff_tf, coeff_ts) if history else (ctf, cts)


def _check_re(re) -> np.ndarray:
    re = np.asarray(re, dtype=float)
    if not np.all(re > 0.0):  # also rejects NaN
        raise ValueError(f"re must be positive, got {re}")
    return re


def _strip_nodes(
    params: ModelParams, germ: GermSpec, order: int, n_quad: int, n_steps: int
) -> tuple[_Projection, np.ndarray, np.ndarray]:
    """Projection and collocation (q, phi) of one strip germ, with input checks."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    proj = _Projection(germ, order, n_quad)
    q_nodes, phi_nodes = _physical_nodes(params, germ, proj.xi_nodes)
    if not np.all((phi_nodes > 0.0) & (phi_nodes < 1.0)):
        raise ValueError("porosity leaves (0, 1) at a collocation node; shrink its std")
    return proj, q_nodes, phi_nodes


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
    _check_re(re)
    proj, q_nodes, phi_nodes = _strip_nodes(params, germ, order, n_quad, n_steps)
    coeff_tf, coeff_ts = _galerkin_march(
        params, q_nodes, phi_nodes, re, proj.design, proj.project, n_steps, singular_eps,
        history=True,
    )
    shape = (order + 1,) * germ.dim + (n_steps + 1,)
    return StripSurrogate(
        order=order,
        germ=germ,
        re=re,
        x_grid=np.linspace(0.0, 1.0, n_steps + 1),
        coeff_t_fluid=coeff_tf[:, 0].T.reshape(shape),
        coeff_t_solid=coeff_ts[:, 0].T.reshape(shape),
    )


def build_strip_exit_batch(
    params: ModelParams,
    germ: GermSpec,
    res: np.ndarray,
    order: int = DEFAULT_ORDER,
    n_quad: int = DEFAULT_N_QUAD,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
) -> np.ndarray:
    """Fluid exit coefficients of one strip germ at many re, in one march.

    Returns shape (len(res),) + (order+1,) * germ.dim: for each re the
    ``coeff_t_fluid[..., -1]`` of ``build_strip_surrogate``, without the
    x history.
    """
    res = _check_re(res).ravel()
    proj, q_nodes, phi_nodes = _strip_nodes(params, germ, order, n_quad, n_steps)
    coeff_tf, _ = _galerkin_march(
        params, q_nodes, phi_nodes, res, proj.design, proj.project, n_steps, singular_eps
    )
    return coeff_tf.reshape((res.size,) + (order + 1,) * germ.dim)


def build_strip_surrogate_batch(
    params: ModelParams,
    q_means: np.ndarray,
    q_stds: np.ndarray,
    porosities: np.ndarray,
    re: float | np.ndarray,
    order: int = DEFAULT_ORDER,
    n_quad: int = DEFAULT_N_QUAD,
    n_steps: int = DEFAULT_N_STEPS,
    singular_eps: float = DEFAULT_SINGULAR_EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Interface coefficients for many strips with univariate heat-flux germs.

    All strips share the standardized basis and quadrature, so the Galerkin
    march vectorizes across strips; ``re`` is a scalar or one value per
    strip, so one call can march the strips of many thetas. Returns
    (coeff_t_fluid, coeff_t_solid) of shape (n_strips, order+1), the
    expansions of T_f(1) and T_s(1).
    """
    re = _check_re(re)
    if n_quad < order + 1:
        raise ValueError("need n_quad >= order + 1")
    q_means = np.asarray(q_means, dtype=float)
    q_stds = np.asarray(q_stds, dtype=float)
    porosities = np.asarray(porosities, dtype=float)
    n_strips = q_means.shape[0]
    if q_stds.shape != (n_strips,) or porosities.shape != (n_strips,):
        raise ValueError("q_means, q_stds and porosities must have equal length")
    if re.ndim and re.shape != (n_strips,):
        raise ValueError("re must be a scalar or one value per strip")
    if not np.all((porosities > 0.0) & (porosities < 1.0)):
        raise ValueError("porosities must lie in (0, 1)")

    proj = _Projection(GermSpec((GermVariable("q", 0.0, 1.0),)), order, n_quad)
    q_nodes = q_means[:, None] + q_stds[:, None] * proj.xi_nodes[None, :, 0]  # (B, M)
    return _galerkin_march(
        params, q_nodes, porosities[:, None], re, proj.design, proj.project, n_steps, singular_eps
    )


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
    norms1d = hermite_norms_squared(s.order)
    multi = itertools.product(range(s.order + 1), repeat=s.germ.dim)
    norms2 = np.array([np.prod([norms1d[k] for k in idx]) for idx in multi])
    mean = float(flat[0])
    var = float(np.sum(flat[1:] ** 2 * norms2[1:]))
    return mean, var
