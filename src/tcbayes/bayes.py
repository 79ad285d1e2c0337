"""Priors, synthetic observations, likelihood, posterior, and gradients.

The observable is the interface pressure F(theta) = p(x=1; Re=theta)
evaluated with the uncertain inputs frozen at their means. Observations may
come in several groups (e.g. sensors over sections with different porosity);
each group carries its own evaluation point and noise level, and the log
likelihood is additive across groups.

The per-group log likelihood is

    -log(sqrt(2*pi)*sigma) - 1/(2*N*sigma^2) * sum_i (f_i - F(theta))^2

with the 1/N inside the exponent, which tempers the data misfit by the group
size. ``classic_iid=True`` switches to the standard product-of-Gaussians form
-N*log(sqrt(2*pi)*sigma) - 1/(2*sigma^2) * sum_i (...)^2.

The prior (``_prior_laws``), a group's term (``_group_laws``) and the
Clenshaw recurrence (``ChebyshevTable.__call__``) are each written once,
in operations that act alike on a float and an ndarray: ``Posterior``'s
float call, array call and gradient all go through them.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv, write_json
from .porous_flow import MARCH_FAILURES, ModelParams, forward_pressure_at_mean

DEFAULT_UNIFORM_FLOOR = 1e-300
DEFAULT_FD_STEP = 1e-3
TABLE_NODES = 32
TABLE_TOL = 1e-12


@dataclass(frozen=True)
class PriorSpec:
    """Scalar prior over theta: gaussian(mean, std) or uniform(low, high).

    The uniform density outside [low, high] is not zero but a tiny floor
    ``floor`` so that log-domain arithmetic stays finite and out-of-support
    proposals are rejected by magnitude rather than by NaN.
    """

    kind: str
    mean: float = 0.0
    std: float = 1.0
    low: float = 0.0
    high: float = 1.0
    floor: float = DEFAULT_UNIFORM_FLOOR

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "gaussian" and not self.std > 0.0:
            raise ValueError("gaussian prior requires std > 0")
        if self.kind == "uniform" and not (self.low < self.high and math.isfinite(self.high - self.low)):
            raise ValueError("uniform prior requires low < high, a finite width apart")
        if not 0.0 < self.floor < 1.0:
            raise ValueError("floor must be in (0, 1)")

    @staticmethod
    def from_json(data: dict) -> "PriorSpec":
        kind = data["kind"]
        if kind == "gaussian":
            return PriorSpec("gaussian", mean=float(data["mean"]), std=float(data["std"]))
        return PriorSpec(
            "uniform",
            low=float(data["low"]),
            high=float(data["high"]),
            floor=float(data.get("floor", DEFAULT_UNIFORM_FLOOR)),
        )


@dataclass(frozen=True)
class ObservationGroup:
    """One batch of pressure observations sharing a forward evaluation point.

    ``heat_flux`` and ``porosity`` pin the non-inferred inputs for this group
    (germ means in the scenarios); None falls back to the model defaults.
    ``provenance`` records how the values were made (for synthetic data:
    theta_true, xi_true, seed and pressure_true); it goes into the group's
    entry of the provenance file.
    """

    label: str
    values: np.ndarray
    noise_std: float
    heat_flux: float | None = None
    porosity: float | None = None
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values, dtype=float)))
        if self.values.size == 0:
            raise ValueError("observation group must be nonempty")
        if not np.isfinite(self.values).all():
            raise ValueError("observation values must be finite")
        if not self.noise_std > 0.0:
            raise ValueError("noise_std must be positive")

    def evaluation_point(self, params: ModelParams) -> tuple[float, float]:
        q = params.heat_flux_nominal if self.heat_flux is None else self.heat_flux
        phi = params.porosity if self.porosity is None else self.porosity
        return (q, phi)


# the keys of a group's provenance-file entry that are not its ``provenance``
GROUP_KEYS = ("label", "n_obs", "noise_std", "heat_flux", "porosity")


@dataclass(frozen=True)
class ObservationSet:
    groups: tuple[ObservationGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("observation set must contain at least one group")
        labels = [g.label for g in self.groups]
        if len(set(labels)) != len(labels):
            raise ValueError("group labels must be unique")

    def to_csv(self, path: str) -> None:
        labels = [g.label for g in self.groups for _ in range(g.values.size)]
        write_csv(path, ("group", "value"), (labels, np.concatenate([g.values for g in self.groups])))

    def save_provenance(self, path: str) -> None:
        """One entry per group: its ``GROUP_KEYS`` and its own provenance."""
        entries = [
            {
                **g.provenance,
                "label": g.label,
                "n_obs": int(g.values.size),
                "noise_std": g.noise_std,
                "heat_flux": g.heat_flux,
                "porosity": g.porosity,
            }
            for g in self.groups
        ]
        write_json(path, {"groups": entries})


def generate_observations(
    truth: float,
    theta_true: float,
    xi_true: tuple[float, float],
    noise_std: float,
    n_obs: int,
    seed: int,
    label: str = "obs",
) -> ObservationSet:
    """Synthetic pressures: the noise-free pressure ``truth`` of a forward
    run at (theta*, xi*) plus white noise. ``xi_true``, the (heat flux,
    porosity) pair the data are generated at, is the group's evaluation
    point for later likelihood calls.
    """
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    group = ObservationGroup(
        label,
        truth + noise_std * np.random.default_rng(seed).standard_normal(n_obs),
        noise_std,
        *xi_true,
        provenance={
            "theta_true": theta_true,
            "xi_true": list(xi_true),
            "seed": seed,
            "pressure_true": truth,
        },
    )
    return ObservationSet((group,))


class ChebyshevTable:
    """Chebyshev interpolant of a smooth scalar or array function on [lo, hi].

    Built from the values (n, ...) at the n first-kind nodes
    (``chebyshev_nodes``) with the cosine sum
    c_j = (2/n) sum_k f_k cos(j*pi*(k+1/2)/n), c_0 halved. The longest
    trailing run of coefficients whose summed magnitude (the largest entry
    of each) is below ``TABLE_TOL / 100`` of the largest node value is
    dropped: |T_j| <= 1 on [lo, hi], so no value moves by more than that.
    Evaluated by the Clenshaw recurrence, on arrays for an array table; a
    scalar table takes a float, or an array of thetas bit for bit as floats.
    ``terms`` counts the kept coefficients; ``max_rel_error`` is the build error.
    """

    def __init__(self, lo: float, hi: float, node_values):
        values = np.asarray(node_values, dtype=float)
        n = values.shape[0]
        angles = np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n
        coeffs = (2.0 / n) * (np.cos(angles) @ values.reshape(n, -1)).reshape(values.shape)
        coeffs[0] *= 0.5
        tails = np.cumsum(np.abs(coeffs.reshape(n, -1)).max(axis=1)[::-1])[::-1]
        terms = max(1, n - int(np.count_nonzero(tails < TABLE_TOL / 100 * np.abs(values).max())))
        self.lo, self.hi = float(lo), float(hi)
        self.n_nodes = n
        self.terms = terms
        self.max_rel_error = math.nan
        self._center = 0.5 * (self.lo + self.hi)
        self._scale = 2.0 / (self.hi - self.lo)
        kept = coeffs[:terms] if values.ndim > 1 else [float(c) for c in coeffs[:terms]]
        self._c0 = kept[0]
        self._tail = tuple(kept[:0:-1])  # c_{terms-1}, ..., c_1

    def __call__(self, theta: float):
        t = (theta - self._center) * self._scale
        t2 = t + t
        b1 = b2 = 0.0
        for c in self._tail:
            b1, b2 = c + t2 * b1 - b2, b1
        return self._c0 + t * b1 - b2


def chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """First-kind Chebyshev points cos(pi*(k+1/2)/n) mapped onto [lo, hi]."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(n) + 0.5) / n)


def table_thetas(theta_range: tuple[float, float]) -> np.ndarray | None:
    """The TABLE_NODES nodes of a table over ``theta_range``, then its check
    points: the midpoints between them and both ends. None if theta <= 0
    is in range."""
    lo, hi = theta_range
    if not 0.0 < lo < hi:
        return None
    nodes = chebyshev_nodes(lo, hi, TABLE_NODES)
    return np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]), [lo, hi]])


def fit_table(theta_range: tuple[float, float], values: np.ndarray) -> ChebyshevTable | None:
    """Chebyshev table of the marched ``values`` (n_thetas, ...) at
    ``table_thetas(theta_range)``, kept only if at every check point
    max|table - march| / max|march| is at most TABLE_TOL (for a scalar
    table, the relative error); otherwise None: keep the direct march.
    """
    table = ChebyshevTable(*theta_range, values[:TABLE_NODES])
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = [
            np.abs(table(float(t)) - direct).max() / np.abs(direct).max()
            for t, direct in zip(table_thetas(theta_range)[TABLE_NODES:], values[TABLE_NODES:])
        ]
    error = float(np.max(errors))
    if not error <= TABLE_TOL:
        return None
    table.max_rel_error = error
    return table


def table_record(table: ChebyshevTable | None) -> dict | str:
    """What a run reports of a table: nodes, terms kept and build error, or "direct"."""
    if table is None:
        return "direct"
    return {"nodes": table.n_nodes, "terms": table.terms, "max_rel_error": table.max_rel_error}


class Posterior:
    """Unnormalized log posterior of theta and its gradient for one data set.

    Built once per scenario. Each observation group is reduced to its
    evaluation point, that point's Chebyshev table (or None) and the closures
    of ``_group_laws`` over its size n, mean ybar, sum of squared deviations
    ss, log normaliser c and misfit scale k, so a call costs one forward
    value per group:

        log p(theta) = log prior + sum_g [c_g - k_g * (n_g*(F_g - ybar_g)^2 + ss_g)]

    which equals the per-observation sum in the module docstring.
    ybar is kept as a double plus its rounding remainder, so F - ybar and
    the residual sum n*(ybar - F) keep the precision of the per-observation
    differences. F_g comes from the point's table in its range, else from
    the first of its extension pieces that holds theta (for ``grad``, both
    ends of its difference), else from the direct march; a march failure
    gives -inf (NaN for the gradient), as does theta <= 0. ``tables`` maps
    an evaluation point to a table of F built for ``params``; ``pieces``,
    called only beyond a table, returns a map from a point to a tuple of
    tables over other ranges. A call also takes an ndarray.
    """

    def __init__(self, obs: ObservationSet, prior: PriorSpec, params: ModelParams,
                 classic_iid: bool = False, tables: dict | None = None,
                 pieces: Callable[[], dict] | None = None):
        self.params = params
        self._pieces = pieces
        self._log_prior, self._grad_log_prior = _prior_laws(prior)
        groups = []
        for group in obs.groups:
            point = group.evaluation_point(params)
            table = (tables or {}).get(point)
            lo, hi = (math.inf, -math.inf) if table is None else (table.lo, table.hi)
            # the table's bound method: a call skips the instance's call slot
            table = None if table is None else table.__call__
            groups.append((point, table, lo, hi, *_group_laws(group.values, group.noise_std, classic_iid)))
        self._groups = tuple(groups)

    def __call__(self, theta):
        """Unnormalized log posterior without the feasibility indicator;
        an ndarray goes to ``_on_array``."""
        # isinstance is quick to say yes and slow to say no: a float asks once
        if not isinstance(theta, float) and isinstance(theta, np.ndarray):
            return self._on_array(theta)
        log_prior = self._log_prior(theta)
        if not theta > 0.0:  # also rejects NaN from diverged trajectories
            return log_prior - math.inf
        total = 0.0
        try:
            for point, table, lo, hi, term, _ in self._groups:
                if lo <= theta <= hi:
                    total += term(table(theta))
                elif (piece := self._piece(point, theta, theta)) is not None:
                    total += term(piece(theta))
                else:
                    total += term(forward_pressure_at_mean(self.params, point, theta))
        except MARCH_FAILURES:
            total = -math.inf
        return log_prior + total

    def _on_array(self, thetas: np.ndarray) -> np.ndarray:
        """``self`` at each theta, bit for bit: the thetas in every table's
        range in one array pass through the same laws; one float call for
        each other theta."""
        thetas = thetas.astype(float)
        inside = np.logical_and.reduce([(g[2] <= thetas) & (thetas <= g[3]) for g in self._groups])
        out = np.empty(thetas.shape)
        out[~inside] = [self(theta) for theta in thetas[~inside].tolist()]
        x, total = thetas[inside], 0.0
        if x.size:
            for _, table, _, _, term, _ in self._groups:
                total += term(table(x))
            out[inside] = self._log_prior(x) + total
        return out

    def grad(self, theta: float, fd_step: float = DEFAULT_FD_STEP) -> float:
        """d/dtheta of the log posterior.

        The chain rule is applied analytically; only the pressure sensitivity
        dF/dtheta is numerical, via the one-sided difference
        (F(theta+h)-F(theta))/h per group. Outside the physical domain
        (theta <= 0) or on forward failure the gradient is NaN, which a
        trajectory-based sampler treats as a divergence.
        """
        if not theta > 0.0:
            return math.nan
        grad = self._grad_log_prior(theta)
        theta_h = theta + fd_step
        try:
            for point, table, lo, hi, _, slope in self._groups:
                if lo <= theta and theta_h <= hi:
                    pressure, pressure_h = table(theta), table(theta_h)
                elif (piece := self._piece(point, theta, theta_h)) is not None:
                    pressure, pressure_h = piece(theta), piece(theta_h)
                else:
                    # each end not in the table marched: values from two tables
                    # would add their 1e-12 errors divided by fd_step
                    pressure = (table(theta) if lo <= theta <= hi
                                else forward_pressure_at_mean(self.params, point, theta))
                    pressure_h = forward_pressure_at_mean(self.params, point, theta_h)
                grad += slope(pressure) * (pressure_h - pressure) / fd_step
        except MARCH_FAILURES:
            return math.nan
        return grad

    def _piece(self, point, lo: float, hi: float) -> ChebyshevTable | None:
        """The first extension piece of ``point`` whose range holds [lo, hi], or None."""
        pieces = self._pieces().get(point, ()) if self._pieces else ()
        return next((piece for piece in pieces if piece.lo <= lo and hi <= piece.hi), None)


def _prior_laws(prior: PriorSpec):
    """The log prior density of theta and its derivative, with the prior's
    constants bound once; the same operations on a float and an ndarray.
    A uniform density is 1/(high - low) on [low, high] and ``floor`` off it
    (NaN included): a bool times a finite level is that level or a signed
    zero, so the sum is exactly one level. Both levels are flat."""
    if prior.kind == "gaussian":
        mean, std, var = prior.mean, prior.std, prior.std**2
        norm = -math.log(math.sqrt(2.0 * math.pi) * std)

        def log_prior(theta):
            z = (theta - mean) / std
            return norm - 0.5 * z * z

        return log_prior, lambda theta: -(theta - mean) / var
    low, high = prior.low, prior.high
    norm, floor = -math.log(high - low), math.log(prior.floor)

    def log_prior(theta):
        inside = (low <= theta) & (theta <= high)
        return norm * inside + floor * (1 - inside)

    return log_prior, lambda theta: 0.0


def _group_laws(values: np.ndarray, sigma: float, classic_iid: bool):
    """A group's log likelihood at its forward value F and its derivative in
    F, on a float or an ndarray: c - k * (n*m*m + ss) with
    m = (F - ybar) - ybar_rem, and 2*k times the residual sum."""
    n = values.size
    ybar = float(np.mean(values))
    ybar_rem = math.fsum(values - ybar) / n
    ss = math.fsum(((values - ybar) - ybar_rem) ** 2)
    if classic_iid:
        norm = -n * math.log(math.sqrt(2.0 * math.pi) * sigma)
        scale = 1.0 / (2.0 * sigma**2)
    else:
        norm = -math.log(math.sqrt(2.0 * math.pi) * sigma)
        scale = 1.0 / (2.0 * n * sigma**2)

    def term(pressure):
        misfit = (pressure - ybar) - ybar_rem
        return norm - scale * (n * misfit * misfit + ss)

    return term, lambda pressure: 2.0 * scale * (n * ((ybar - pressure) + ybar_rem))
