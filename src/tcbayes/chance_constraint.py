"""Probabilistic feasibility of a parameter value through cheap surrogates.

The constraint P(f2(xi; theta) <= beta) >= alpha is evaluated on a chaos
surrogate of f2 built at the given theta. The strip march is linear in the
temperatures with coefficients in (phi, re) only, and the heat flux enters
only its source, so the exit temperature is affine in the flux germ xi_q,
T = a + b xi_q, and models 1 and 2 have closed forms.

* Shared germ (model 2): the field at each z node is a_z + b_z xi, so
  {max_z T <= beta} is one interval (l, u): u is the smallest
  (beta - a_z) / b_z over b_z > 0, l the largest over b_z < 0, and
  P = Phi(u) - Phi(l). With ``pointwise`` P is the smallest per-node mass.
* Two-variable strip germ (model 1): conditional on xi_phi = eta, the exit
  temperature is a(eta) + b(eta) xi_q, whose satisfied mass is a normal
  cdf. P is the Gauss-Hermite sum over eta of those masses, the last
  integral of conditional Monte Carlo done by quadrature (Asmussen & Glynn,
  *Stochastic Simulation*, 2007, ch. V). A rule of twice the size checks
  it; where the two disagree Monte Carlo decides instead.
* Independent per-strip germs (model 3): plain Monte Carlo over
  ``n_prob_samples`` seeded germ draws. Every probability uses the same
  draws, so probabilities are deterministic and smooth in theta (common
  random numbers), which keeps the bisection on the feasible boundary well
  behaved; the oracle draws them once and counts the draws it evaluates.

Each closed form first checks that the flux-degree >= 2 chaos coefficients
are within ``bayes.TABLE_TOL`` of the largest coefficient, or Monte Carlo
decides. A model-1 exit temperature that does not depend on the flux
(q std 0) is a polynomial in xi_phi alone, and ``_root_segments`` gives
its P from the real roots of p(xi) = beta.

``probability(xi, beta)`` keeps the Monte Carlo estimate of every
constraint for cross-checks.

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
from .bayes import TABLE_TOL
from .gpc import GermSpec, gauss_hermite_rule, hermite_design
from .heat_interface import InterfaceSurrogate, evaluate_interface_batch
from .porous_flow import NonFiniteStateError, SingularDenominatorError

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

BUILD_FAILURES = (SingularDenominatorError, NonFiniteStateError)
DEFAULT_CACHE_QUANTUM = 1e-6
_EVAL_CHUNK = 8192
# Phi(-40) and 1 - Phi(40) are 0 in double precision, so [-40, 40] carries all the mass
_XI_CUT = 40.0
# leading power coefficients this small against the polynomial's scale on
# [-_XI_CUT, _XI_CUT] are dropped: their term is below roundoff there
_LEAD_RTOL = 1e-15
# imaginary parts (in xi) up to this are taken as roundoff on near-multiple real roots
_IMAG_TOL = 1e-4
# Gauss-Hermite nodes over the conditioning variable of a two-variable strip
# germ, and the largest gap to the rule of twice the size that still counts
# as converged: well below the Monte Carlo error that replaces it
_ETA_NODES = 32
_ETA_TOL = 1e-6


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
    """f2 = fluid exit temperature T_f(x=1) of one strip.

    Needs only the exit coefficients of T_f, as
    ``gpc.build_strip_exit_batch`` returns them per re.
    """

    def __init__(self, germ: GermSpec, order: int, coeff: np.ndarray):
        self.germ = germ
        self.order = order
        self._coeff = coeff

    def f2_values(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.germ.dim == 1:
            return hermite_design(self.order, xi[:, 0]) @ self._coeff
        d0 = hermite_design(self.order, xi[:, 0])
        d1 = hermite_design(self.order, xi[:, 1])
        return np.einsum("ni,ij,nj->n", d0, self._coeff, d1)

    def exact_probability(self, beta: float) -> float | None:
        """P(f2 <= beta) from the affine dependence on the flux germ xi_0,
        summed by Gauss-Hermite quadrature over xi_1; None when f2 is not
        affine in xi_0 or the two rules differ by more than ``_ETA_TOL`` (the
        conditional mass is not smooth where b(eta) = 0 and a(eta) = beta).
        An f2 that does not vary with xi_0 takes the root intervals in xi_1.
        """
        # row k: the coefficient of He_k(xi_0), as a polynomial in xi_1
        coeff = self._coeff.reshape(self.order + 1, -1)
        if not coeff[1:].any():
            if math.isnan(beta):
                return math.nan  # every comparison with NaN is False: P would read 0
            edges, satisfied = _root_segments(coeff[0][:, None], beta)
            # np.minimum keeps a NaN sum NaN, where min(1.0, nan) is 1.0
            return float(np.minimum(1.0, np.diff(_normal_cdf(edges)) @ satisfied[:, 0]))
        if not _negligible(coeff[2:], coeff):
            return None
        nodes, weights = _eta_rules(_ETA_NODES)
        a, b = coeff[:2] @ hermite_design(coeff.shape[1] - 1, nodes).T
        probs = weights @ _normal_cdf(_cut(a, b, beta))
        if np.ptp(probs) > _ETA_TOL:
            return None
        return float(np.minimum(1.0, probs[0]))


class InterfaceMaxConstraint(F2Surrogate):
    """f2 = max over z of the interface temperature at the constraint time.

    With ``pointwise=True`` the probability is instead the worst per-node
    satisfaction fraction min_z P(T(z) <= beta), the per-z reading of the
    constraint. A shared germ has an exact probability (see the module
    docstring); ``probability`` stays the Monte Carlo estimate on given draws.
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
        """P from the one xi-interval where every node is satisfied; None for
        independent germs or a field that is not affine in the shared germ."""
        isurr = self.isurr
        if not isurr.shared or not _negligible(isurr.coeffs[:, 2:], isurr.coeffs):
            return None
        a = isurr.base_field
        b = isurr.coeffs[:, 1] @ isurr.unit if isurr.order else np.zeros_like(a)
        cut = _cut(a, b, beta)
        if self.pointwise:
            return float(_normal_cdf([cut.min()])[0])
        # nodes with b >= 0 bound xi from above, nodes with b < 0 from below
        lower, upper = -cut[b < 0.0].min(initial=math.inf), cut[b >= 0.0].min(initial=math.inf)
        lo, hi = _normal_cdf([lower, upper])
        return float(max(0.0, hi - lo))


def _negligible(high: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether every entry of ``high`` is within TABLE_TOL of the largest of ``coeffs``."""
    return bool(np.abs(high).max(initial=0.0) <= TABLE_TOL * np.abs(coeffs).max(initial=0.0))


def _cut(a: np.ndarray, b: np.ndarray, beta: float) -> np.ndarray:
    """Per a + b xi, the t with {a + b xi <= beta} = {sign(b) xi <= t}, whose
    normal mass is Phi(t): (beta - a) / |b|, or +-inf where b = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = (beta - a) / np.abs(b)
    return np.where(b == 0.0, np.where(a <= beta, math.inf, -math.inf), cut)


def _root_segments(coeffs: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Segment edges on [-40, 40] and, per segment and column of HermiteE
    coefficients ``coeffs`` (K+1, R), p <= beta. The edges are the real roots
    of every p - beta, so p at a segment's midpoint decides the segment; a
    spurious root only splits a segment."""
    order = coeffs.shape[0] - 1
    power = (_herme_to_power(order) @ coeffs).T  # (R, K+1), ascending
    power[:, 0] -= beta
    edges = np.concatenate([[-_XI_CUT], np.unique(_root_breakpoints(power)), [_XI_CUT]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    values = coeffs[0] + hermite_design(order, mids)[:, 1:] @ coeffs[1:]
    return edges, values <= beta


@functools.cache
def _eta_rules(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the n- and 2n-node Gauss-Hermite rules side by side, (3n,),
    and their weights as the rows of a (2, 3n) matrix. Read-only."""
    small, large = gauss_hermite_rule(n_nodes), gauss_hermite_rule(2 * n_nodes)
    weights = np.zeros((2, 3 * n_nodes))
    weights[0, :n_nodes], weights[1, n_nodes:] = small[1], large[1]
    nodes = np.concatenate([small[0], large[0]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _herme_to_power(order: int) -> np.ndarray:
    """(K+1, K+1) matrix whose column k holds He_k in the ascending power basis. Read-only."""
    out = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        poly = np.polynomial.hermite_e.herme2poly(np.eye(order + 1)[k])
        out[: poly.shape[0], k] = poly
    out.flags.writeable = False
    return out


def _root_breakpoints(power: np.ndarray) -> np.ndarray:
    """Near-real roots in (-40, 40) of every row's polynomial, all rows at once.

    ``power`` holds ascending power-basis coefficients, one polynomial per
    row. Roots are found in t = xi / 40, where a row's degree is its highest
    coefficient that is not negligible on |t| <= 1 (exact zeros included),
    as the eigenvalues of stacked companion matrices, one stack per degree.
    A root a + bi with small |b| gives the breakpoint a + b, so a computed
    conjugate pair brackets a near-double real root from both sides.
    """
    scaled = power * _XI_CUT ** np.arange(power.shape[1])
    mag = np.abs(scaled)
    significant = mag > _LEAD_RTOL * mag.max(axis=1, keepdims=True)
    degree = np.where(
        significant.any(axis=1), power.shape[1] - 1 - np.argmax(significant[:, ::-1], axis=1), 0
    )
    roots = [np.zeros(0, dtype=complex)]
    for d in np.unique(degree[degree > 0]):
        rows = scaled[degree == d, : d + 1]
        companion = np.zeros((rows.shape[0], d, d))
        companion[:, 0, :] = -rows[:, d - 1 :: -1] / rows[:, d : d + 1]
        companion[:, 1:, :-1] += np.eye(d - 1)
        roots.append(np.linalg.eigvals(companion).ravel())
    xi = _XI_CUT * np.concatenate(roots)
    xi = xi[np.isfinite(xi) & (np.abs(xi.imag) <= _IMAG_TOL)]
    breaks = xi.real + xi.imag
    return breaks[np.abs(breaks) < _XI_CUT]


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


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
    probability; cache keys quantize theta. Build failures are cached as
    NaN (infeasible) and counted. The seeded germ sample of the Monte Carlo
    path is drawn once, on first use.
    """

    def __init__(
        self,
        spec: ChanceConstraintSpec,
        surrogate_factory,
        cache_quantum: float = DEFAULT_CACHE_QUANTUM,
    ):
        self.spec = spec
        self.surrogate_factory = surrogate_factory
        self.cache_quantum = cache_quantum
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
        return int(round(theta / self.cache_quantum))

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
    spec: ChanceConstraintSpec,
    surrogate_factory,
    tol: float = 0.5,
    n_coarse: int = 33,
) -> FeasibilityScan:
    """Locate the feasible set on a range by coarse scan plus bisection.

    Each feasibility transition detected on the coarse grid is bisected to
    width ``tol``; interval endpoints are taken on the feasible side of the
    final bracket, so membership in a returned interval implies feasibility
    up to the scan resolution. A non-interval coarse pattern simply yields
    several intervals.
    """
    lo, hi = theta_range
    if not lo < hi:
        raise ValueError("theta_range must be an increasing pair")
    if n_coarse < 2:
        raise ValueError("n_coarse must be >= 2")
    oracle = (
        surrogate_factory
        if isinstance(surrogate_factory, ChanceConstraintOracle)
        else ChanceConstraintOracle(spec, surrogate_factory)
    )
    thetas = np.linspace(lo, hi, n_coarse)
    probs = np.array([oracle.probability(t) for t in thetas])
    feas = np.array([p >= spec.alpha for p in probs])

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
