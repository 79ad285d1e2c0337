"""Probabilistic feasibility of a parameter value through cheap surrogates.

The constraint P(f2(xi; theta) <= beta) >= alpha is evaluated on a chaos
surrogate of f2 built at the given theta. The heat flux enters the linear
strip march only through its source, so the exit temperature, and with it
every interface field, is affine in the flux germ: every model's strip
exit comes as (c0, c1) pairs, c0 + c1 xi_q, and model 1's pairs are
expansions in its porosity germ xi_phi.

One kernel, ``_interval_mass``, computes every satisfaction probability
(Genz & Bretz, *Computation of Multivariate Normal and t Probabilities*,
2009; Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V): at each node
m of an outer rule, {a_mz + b_mz h <= beta for all z} is one interval
(l_m, u_m) in an inner standard normal h, and
P = sum_m w_m (Phi(u_m) - Phi(l_m)). Model 2 is one node; model 1 has
h = xi_q and Gauss-Hermite nodes in xi_phi; model 3 has h along the
field's first principal axis and nodes over the next ones. Each rule, a
``gpc.tensor_rule``, comes as a pair, and P is accepted where the two
agree to ``_ETA_TOL``; elsewhere Monte Carlo decides, on ``n_prob_samples``
seeded germ draws that the oracle draws once and reuses for every theta.
``probability(xi, beta)`` keeps that estimate for every constraint, for
cross-checks.

The boundary scan asks the oracle for many thetas, and each needs a
surrogate, whose costly part is the march of the strips. The strip
exit coefficients are as smooth in theta as the forward pressure, so a
scenario tabulates them once, from one march over the Chebyshev nodes of
its theta range, and its surrogate factory reads the table (see
``Scenario.exit_table``). The oracle and the scan only see that factory
and compute P at the thetas the bisection visits.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .gpc import GermSpec, gauss_hermite_rule, hermite_design, tensor_rule
from .heat_interface import InterfaceSurrogate, evaluate_interface_batch
from .porous_flow import MARCH_FAILURES

__all__ = [
    "ChanceConstraintSpec",
    "F2Surrogate",
    "StripExitConstraint",
    "InterfaceMaxConstraint",
    "ChanceConstraintOracle",
    "FeasibilityScan",
    "satisfaction_probability",
    "scan_feasible_boundary",
]

logger = logging.getLogger(__name__)

BUILD_FAILURES = MARCH_FAILURES
# width of the theta bins the oracle caches one probability for
CACHE_QUANTUM = 1e-6
_EVAL_CHUNK = 8192
# Gauss-Hermite nodes in xi_phi, and the largest gap between the two rules of
# a pair that counts as converged: well below the Monte Carlo error instead
_ETA_NODES = 32
_ETA_TOL = 1e-6
# model 3: principal axes, the nodes per axis of the coarse rule, and cells
_MAX_AXES = 3
_AXIS_NODES = 401
_AXIS_HALF = 8.5
_MINOR_NODES = 2
_CELLS = 64
# largest |slope| of a node's cut along a Gauss-Hermite axis, against its slope
# along the first axis: a steeper cut can bind only past the rule's few nodes
_MINOR_SLOPE = 0.05


@dataclass(frozen=True)
class ChanceConstraintSpec:
    """Threshold beta, required probability alpha, and the MC budget."""

    beta: float
    alpha: float
    n_prob_samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.n_prob_samples < 1:
            raise ValueError("n_prob_samples must be >= 1")


class F2Surrogate:
    """Evaluable constraint functional at a fixed theta.

    Subclasses provide ``germ`` and ``f2_values``; ``probability`` is the
    fraction of draws satisfying f2 <= beta and may be overridden when the
    constraint aggregates differently (pointwise-per-z mode).
    ``exact_probability`` returns P(f2 <= beta) without sampling where the
    surrogate admits it, and None otherwise.
    """

    germ: GermSpec

    def f2_values(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def probability(self, xi: np.ndarray, beta: float) -> float:
        return float(np.mean(self.f2_values(xi) <= beta))

    def exact_probability(self, beta: float) -> float | None:
        return None


class StripExitConstraint(F2Surrogate):
    """f2 = fluid exit temperature T_f(x=1) of one strip, on the (q, phi) germ.

    ``coeffs`` (K+1, 2), as ``Scenario._strip_exit_coeffs`` builds them per
    theta: row k holds the He_k(xi_phi) coefficients of (a, b) in the exact
    flux law T_f = a(xi_phi) + b(xi_phi) xi_q.
    """

    def __init__(self, germ: GermSpec, coeffs: np.ndarray):
        if coeffs.ndim != 2 or coeffs.shape[0] < 1 or coeffs.shape[1] != 2:
            raise ValueError(f"coeffs must have shape (K+1, 2), got {coeffs.shape}")
        self.germ = germ
        self._coeff = coeffs

    def _affine(self, eta: np.ndarray) -> np.ndarray:
        """(a, b) at the porosity germ values ``eta``, shape (2, len(eta))."""
        return (hermite_design(self._coeff.shape[0] - 1, eta) @ self._coeff).T

    def f2_values(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        a, b = self._affine(xi[:, 1])
        return a + b * xi[:, 0]

    def exact_probability(self, beta: float) -> float | None:
        """P(f2 <= beta) from the affine dependence on the flux germ xi_q,
        summed by Gauss-Hermite quadrature over xi_phi; None when the slope
        b(eta) is not of one strict sign on the nodes (the conditional mass
        jumps where b vanishes or turns, and two rules can agree on a wrong
        value: with a q std of 0 it is 0 or 1 at every node), or the two
        rules differ by more than ``_ETA_TOL``.
        """
        if math.isnan(beta):
            return math.nan  # every comparison with NaN is False: P would read 0
        nodes, weights = _rule_pair((_ETA_NODES,), (2 * _ETA_NODES,), trapezoid=False)
        a, b = self._affine(nodes[:, 0])
        if not ((b > 0.0).all() or (b < 0.0).all()):
            return None
        return _converged(_interval_mass(a[:, None], b[:, None], beta, weights))


class InterfaceMaxConstraint(F2Surrogate):
    """f2 = max over z of the interface temperature at the constraint time.

    With ``pointwise=True`` the probability is instead the worst per-node
    satisfaction fraction min_z P(T(z) <= beta), the per-z reading of the
    constraint. ``exact_probability`` computes P with ``_interval_mass`` (see
    the module docstring); ``probability`` stays the Monte Carlo estimate on
    given draws.
    """

    def __init__(self, isurr: InterfaceSurrogate, pointwise: bool = False):
        self.isurr = isurr
        self.germ = isurr.germ
        self.pointwise = pointwise

    def _fields(self, xi: np.ndarray):
        """Realized fields of the germ draws ``xi``, ``_EVAL_CHUNK`` draws at a time."""
        xi = np.asarray(xi, dtype=float)
        draws = xi.reshape(xi.shape[:1] + self.isurr.germ_axes)
        for lo in range(0, draws.shape[0], _EVAL_CHUNK):
            yield evaluate_interface_batch(self.isurr, draws[lo : lo + _EVAL_CHUNK])

    def f2_values(self, xi: np.ndarray) -> np.ndarray:
        return np.concatenate([fields.max(axis=1) for fields in self._fields(xi)])

    def probability(self, xi: np.ndarray, beta: float) -> float:
        if not self.pointwise:
            return super().probability(xi, beta)
        satisfied = sum(np.count_nonzero(fields <= beta, axis=0) for fields in self._fields(xi))
        return float(satisfied.min() / len(xi))

    def exact_probability(self, beta: float) -> float | None:
        """P with one node, or over the next principal axes of independent
        germs; None past ``_MAX_AXES`` axes, where a Gauss-Hermite axis moves
        some node's cut faster than ``_MINOR_SLOPE`` times the first axis,
        or where the rules disagree."""
        isurr = self.isurr
        base, c1 = isurr.base_field, isurr.coeffs[:, 1]
        if isurr.shared or self.pointwise:
            # one node; independent germs, pointwise: each T(z) alone is base_z + sigma_z h
            b = c1 @ isurr.unit if isurr.shared else np.sqrt(c1**2 @ isurr.unit**2)
            return float(_interval_mass(base, b, beta, np.ones((1, 1)), self.pointwise)[0])
        # the field is base + sum_k h_k D_k, h_k iid N(0, 1), along the principal axes
        # of c1[:, None] * unit, from the SVD of c1[:, None] * U S (unit = U S V^T)
        left, right = isurr.unit_svd()
        _, sv, qt = np.linalg.svd(c1[:, None] * left, full_matrices=False)
        directions = sv[:, None] * (qt @ right)
        # a node that no germ variable moves is fixed, as in the draws, not the SVD's roundoff
        directions[:, np.abs(c1) @ np.abs(isurr.unit) == 0.0] = 0.0
        n_axes = max(1, int(np.count_nonzero(sv > math.sqrt(_ETA_TOL) * sv[0])))
        if n_axes > _MAX_AXES:
            return None
        if np.any(np.abs(directions[2:n_axes]) > _MINOR_SLOPE * np.abs(directions[0])):
            return None
        # axes 2..n_axes; the finer rule halves the trapezoid step, adds a node on
        # each other axis and axis n_axes + 1, so the gap also bounds the truncation
        coarse = ((_AXIS_NODES,) + (_MINOR_NODES,) * (n_axes - 2))[: n_axes - 1]
        fine = (2 * _AXIS_NODES - 1,) + (_MINOR_NODES + 1,) * (n_axes - 2) + (_MINOR_NODES,)
        nodes, weights = _rule_pair(coarse, fine[: min(n_axes, len(sv) - 1)], trapezoid=True)
        b, minor = directions[0], directions[1 : nodes.shape[1] + 1]
        if np.all(b * b[0] > 0.0):  # h_1 -> -h_1 makes every slope positive
            b = np.abs(b)
            keep = _binding((beta - base) / b, minor / b, nodes)
            base, b, minor = base[keep], b[keep], minor[:, keep]
        return _converged(_interval_mass(base + nodes @ minor, b, beta, weights))


def _cut(a: np.ndarray, b: np.ndarray, beta: float) -> np.ndarray:
    """Per a + b xi, the t with {a + b xi <= beta} = {sign(b) xi <= t}, whose
    normal mass is Phi(t): (beta - a) / |b|, or +-inf where b = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = (beta - a) / np.abs(b)
    return np.where(b == 0.0, np.where(a <= beta, math.inf, -math.inf), cut)


def _interval_mass(
    a: np.ndarray, b: np.ndarray, beta: float, weights: np.ndarray, pointwise: bool = False
) -> np.ndarray:
    """Normal mass of {a + b h <= beta} per rule (row of ``weights``).

    ``a`` (M, Z) holds offsets at the M outer nodes and ``b`` slopes along
    the inner standard normal h. At node m, u_m is the smallest cut over
    b >= 0 and l_m the largest -cut over b < 0; P = sum_m w_m (Phi(u_m) -
    Phi(l_m)), or with ``pointwise`` min_z sum_m w_m Phi(cut_mz).
    """
    cut = _cut(a, b, beta)
    if pointwise:
        return np.minimum(1.0, weights @ _normal_cdf(np.atleast_2d(cut))).min(axis=1)
    upper = np.where(b >= 0.0, cut, math.inf).min(axis=-1, keepdims=True)
    lower = -np.where(b < 0.0, cut, math.inf).min(axis=-1, keepdims=True)
    mass = np.maximum(0.0, _normal_cdf(upper) - _normal_cdf(lower))
    # np.minimum keeps a NaN sum NaN, where min(1.0, nan) is 1.0
    return np.minimum(1.0, weights @ mass.ravel())


def _converged(probs: np.ndarray) -> float | None:
    """The coarse rule's P, or None where the finer rule differs by more than ``_ETA_TOL``."""
    return None if np.ptp(probs) > _ETA_TOL else float(probs[0])


def _binding(cut: np.ndarray, slope: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Mask of the columns z whose cut_z - h @ slope_z can be the smallest at
    a node h: on no cell of the first axis (where the cut is linear, the
    others adding at most ``slack``) does its range lie above another's."""
    ends = np.linspace(nodes[:, 0].min(), nodes[:, 0].max(), _CELLS + 1)
    reach = cut - ends[:, None] * slope[0]
    slack = np.abs(nodes[:, 1:]).max(axis=0, initial=0.0) @ np.abs(slope[1:])
    low = np.minimum(reach[:-1], reach[1:]) - slack
    high = np.maximum(reach[:-1], reach[1:]) + slack
    return (low <= high.min(axis=1, keepdims=True)).any(axis=0)


@functools.cache
def _rule_pair(coarse: tuple, fine: tuple, trapezoid: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of two ``gpc.tensor_rule`` products stacked, (M, len(fine)), the
    coarse rule's padded with zero columns, and their weights as the rows of a
    (2, M) matrix. Read-only. Axis i of a rule takes the Gauss-Hermite rule of
    its size; with ``trapezoid`` the first takes the uniform trapezoid rule on
    [-_AXIS_HALF, _AXIS_HALF], which copes with the kinks of u along it.
    """
    def tensor(sizes):
        rules = [gauss_hermite_rule(n) for n in sizes[int(trapezoid) :]]
        if trapezoid and sizes:
            h = np.linspace(-_AXIS_HALF, _AXIS_HALF, sizes[0])
            rules.insert(0, (h, (h[1] - h[0]) * np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)))
        nodes, weights = tensor_rule(rules)
        return np.pad(nodes, ((0, 0), (0, len(fine) - len(sizes)))), weights

    (c_nodes, c_weights), (f_nodes, f_weights) = tensor(coarse), tensor(fine)
    nodes = np.concatenate([c_nodes, f_nodes])
    weights = np.zeros((2, nodes.shape[0]))
    weights[0, : len(c_weights)], weights[1, len(c_weights) :] = c_weights, f_weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _normal_cdf(x) -> np.ndarray:
    """Phi elementwise, by ``math.erfc`` (numpy has none)."""
    erfc = np.frompyfunc(math.erfc, 1, 1)
    return 0.5 * erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)).astype(float)


def _germ_draws(germ: GermSpec, spec: ChanceConstraintSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal((spec.n_prob_samples, germ.dim))


def satisfaction_probability(
    surrogate_f2: F2Surrogate, spec: ChanceConstraintSpec, draws=_germ_draws
) -> float:
    """P(f2 <= beta), deterministic per spec.

    Exact where the surrogate admits it; otherwise the fraction of the germ
    draws ``draws(germ, spec)`` (by default a fresh seeded sample) with
    f2 <= beta.
    """
    exact = surrogate_f2.exact_probability(spec.beta)
    if exact is not None:
        return exact
    return surrogate_f2.probability(draws(surrogate_f2.germ, spec), spec.beta)


class ChanceConstraintOracle:
    """Callable feasibility oracle with a quantized per-theta probability cache.

    Repeated chain visits to (nearly) the same theta reuse the cached
    probability; cache keys quantize theta by ``CACHE_QUANTUM``. Build
    failures are cached as NaN (infeasible) and counted. The seeded germ
    sample of the Monte Carlo path is drawn once, on first use.
    """

    def __init__(self, spec: ChanceConstraintSpec, surrogate_factory):
        self.spec = spec
        self.surrogate_factory = surrogate_factory
        self._probabilities: dict[int, float] = {}
        self._draws: dict[int, np.ndarray] = {}
        self.build_failures = 0
        self.evaluations = 0
        self.mc_draws = 0

    def _germ_draws(self, germ: GermSpec, spec: ChanceConstraintSpec) -> np.ndarray:
        xi = self._draws.get(germ.dim)
        if xi is None:
            xi = _germ_draws(germ, spec)
            xi.flags.writeable = False
            self._draws[germ.dim] = xi
        self.mc_draws += xi.shape[0]
        return xi

    def _key(self, theta: float) -> int:
        return int(round(theta / CACHE_QUANTUM))

    def probability(self, theta: float) -> float:
        key = self._key(theta)
        cached = self._probabilities.get(key)
        if cached is not None:
            return cached
        self.evaluations += 1
        try:
            surrogate = self.surrogate_factory(theta)
            prob = satisfaction_probability(surrogate, self.spec, self._germ_draws)
        except BUILD_FAILURES as exc:
            self.build_failures += 1
            logger.warning(
                "surrogate build failed at theta=%s (%s); treating as infeasible", theta, exc
            )
            prob = float("nan")
        self._probabilities[key] = prob
        return prob

    def __call__(self, theta: float) -> bool:
        return bool(self.probability(theta) >= self.spec.alpha)

    def counters(self) -> dict[str, int]:
        """Probabilities computed, builds failed, and the germ draws evaluated
        by Monte Carlo (0 on an exact path)."""
        return {
            "evaluations": self.evaluations,
            "build_failures": self.build_failures,
            "mc_draws": self.mc_draws,
        }


@dataclass(frozen=True)
class FeasibilityScan:
    """Feasible set estimate plus the probability table behind it."""

    intervals: tuple[tuple[float, float], ...]
    thetas: np.ndarray
    probabilities: np.ndarray
    feasible: np.ndarray
    tol: float

    def to_csv(self, path: str) -> None:
        write_csv(
            path, ("theta", "probability", "feasible"), (self.thetas, self.probabilities, self.feasible)
        )


def scan_feasible_boundary(
    theta_range: tuple[float, float],
    oracle: ChanceConstraintOracle,
    tol: float = 0.5,
    n_coarse: int = 33,
) -> FeasibilityScan:
    """Locate the feasible set on a range by coarse scan plus bisection.

    Each feasibility transition detected on the coarse grid is bisected to
    width ``tol``; interval endpoints are taken on the feasible side of the
    final bracket, so membership in a returned interval implies feasibility
    up to the scan resolution. A non-interval coarse pattern simply yields
    several intervals. The ``oracle`` carries the constraint spec, and its
    cache keeps every probability the scan asked for.
    """
    lo, hi = theta_range
    if not lo < hi:
        raise ValueError("theta_range must be an increasing pair")
    if n_coarse < 2:
        raise ValueError("n_coarse must be >= 2")
    thetas = np.linspace(lo, hi, n_coarse)
    probs = np.array([oracle.probability(t) for t in thetas])
    feas = np.array([p >= oracle.spec.alpha for p in probs])

    def bisect(a: float, b: float) -> tuple[float, float]:
        # invariant: feasibility differs between a and b
        fa = oracle(a)
        while abs(b - a) > tol:
            mid = 0.5 * (a + b)
            if oracle(mid) == fa:
                a = mid
            else:
                b = mid
        return (a, b) if fa else (b, a)  # (feasible end, infeasible end)

    intervals: list[tuple[float, float]] = []
    start: float | None = thetas[0] if feas[0] else None
    for i in range(len(thetas) - 1):
        if feas[i] == feas[i + 1]:
            continue
        feasible_end, _ = bisect(thetas[i], thetas[i + 1])
        if feas[i]:
            intervals.append((start, feasible_end))
            start = None
        else:
            start = feasible_end
    if start is not None:
        intervals.append((start, thetas[-1]))
    return FeasibilityScan(
        intervals=tuple(intervals),
        thetas=thetas,
        probabilities=probs,
        feasible=feas,
        tol=tol,
    )
