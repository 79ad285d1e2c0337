"""Chance-constraint probability estimation, feasibility, boundary scan."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tcbayes import chance_constraint
from tcbayes.chance_constraint import (
    ChanceConstraintOracle,
    BUILD_FAILURES,
    ChanceConstraintSpec,
    F2Surrogate,
    InterfaceMaxConstraint,
    StripExitConstraint,
    satisfaction_probability,
    scan_feasible_boundary,
)
from tcbayes.bayes import fit_table, table_thetas
from tcbayes.cli import resolve_config
from tcbayes.gpc import (
    GermSpec,
    GermVariable,
    build_strip_surrogate,
    hermite_design,
    porosity_projection,
    strip_exit_law,
)
from tcbayes.heat_interface import (
    InterfaceGeometry,
    InterfaceSurrogate,
    _footprint_svd,
    assemble_interface_from_coeffs,
    evaluate_interface_batch,
)
from tcbayes.porous_flow import ModelParams, SingularDenominatorError, interface_state_batch
from tcbayes.scenario import Scenario, ScenarioConfig

UNIT_GERM = GermSpec((GermVariable("q", 0.0, 1.0),))


class _ConstF2(F2Surrogate):
    def __init__(self, value: float):
        self.germ = UNIT_GERM
        self.value = value

    def f2_values(self, xi):
        return np.full(xi.shape[0], self.value)


class _ShiftF2(F2Surrogate):
    """f2(xi; theta) = theta + xi with standard normal xi."""

    def __init__(self, theta: float):
        self.germ = UNIT_GERM
        self.theta = theta

    def f2_values(self, xi):
        return self.theta + xi[:, 0]


def test_constant_surrogate_probabilities():
    spec = ChanceConstraintSpec(beta=380.0, alpha=0.95, n_prob_samples=100)
    assert satisfaction_probability(_ConstF2(379.0), spec) == 1.0
    assert satisfaction_probability(_ConstF2(381.0), spec) == 0.0
    assert ChanceConstraintOracle(spec, lambda theta: _ConstF2(379.0))(0.0)


def test_symmetric_law_median():
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=100_000, seed=7)
    prob = satisfaction_probability(_ShiftF2(0.0), spec)
    assert abs(prob - 0.5) <= 3.0 / np.sqrt(spec.n_prob_samples)


def test_strict_threshold_comparison():
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.95, n_prob_samples=1000, seed=1)
    # probability just below alpha is infeasible
    assert not ChanceConstraintOracle(spec, lambda theta: _ConstF2(1.0))(0.0)


def test_seed_determinism_and_repeatability():
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=5000, seed=42)
    p1 = satisfaction_probability(_ShiftF2(0.3), spec)
    p2 = satisfaction_probability(_ShiftF2(0.3), spec)
    assert p1 == p2
    other = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=5000, seed=43)
    assert satisfaction_probability(_ShiftF2(0.3), other) != p1


def test_monotonicity_in_alpha():
    factory = lambda theta: _ShiftF2(theta)
    theta = -0.1
    for a1, a2 in [(0.5, 0.6), (0.6, 0.9), (0.9, 0.95)]:
        spec1 = ChanceConstraintSpec(beta=0.0, alpha=a1, n_prob_samples=20_000, seed=3)
        spec2 = ChanceConstraintSpec(beta=0.0, alpha=a2, n_prob_samples=20_000, seed=3)
        if ChanceConstraintOracle(spec2, factory)(theta):
            assert ChanceConstraintOracle(spec1, factory)(theta)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChanceConstraintSpec(beta=0.0, alpha=1.5)
    with pytest.raises(ValueError):
        ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=0)
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta must be finite"):
            ChanceConstraintSpec(beta=beta, alpha=0.5)


def test_build_failure_marks_infeasible(caplog):
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=100)

    def exploding_factory(theta):
        raise SingularDenominatorError("synthetic failure")

    with caplog.at_level("WARNING"):
        assert not ChanceConstraintOracle(spec, exploding_factory)(1.0)
    assert "infeasible" in caplog.text

    oracle = ChanceConstraintOracle(spec, exploding_factory)
    assert not oracle(1.0)
    assert oracle.build_failures == 1
    # failure result is cached too
    assert not oracle(1.0)
    assert oracle.build_failures == 1


def test_oracle_caches_by_quantized_theta():
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=500)
    calls = {"n": 0}

    def factory(theta):
        calls["n"] += 1
        return _ShiftF2(theta)

    oracle = ChanceConstraintOracle(spec, factory)
    oracle(0.25)
    oracle(0.25)
    oracle(0.25 + 1e-9)  # same quantized key
    assert calls["n"] == 1
    oracle(0.26)
    assert calls["n"] == 2


@pytest.mark.parametrize(
    "windows",
    [
        # bad thetas only inside the bisection bracket around 0
        ((0.2, 0.3), (-0.3, -0.2)),
        # and a bad coarse theta at -9
        ((0.2, 0.3), (-0.3, -0.2), (-9.1, -8.9)),
    ],
)
def test_failed_batch_falls_back_to_per_theta_builds(caplog, windows):
    # A scenario whose batched exit-table march fails builds every theta
    # alone (see test_scenario); each failed build is then one visited theta,
    # cached as NaN, counted and logged once, and scanned as infeasible.
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=2000, seed=4)

    def bad(theta):
        return any(lo < theta < hi for lo, hi in windows)

    def failing(theta):
        if bad(theta):
            raise SingularDenominatorError("synthetic failure")
        return _ShiftF2(theta)

    def never_satisfied(theta):
        return _ConstF2(math.inf) if bad(theta) else _ShiftF2(theta)

    oracle = ChanceConstraintOracle(spec, failing)
    with caplog.at_level("WARNING"):
        got = scan_feasible_boundary((-15.0, 17.0), oracle, tol=0.1, n_coarse=17)
    ref = scan_feasible_boundary(
        (-15.0, 17.0), ChanceConstraintOracle(spec, never_satisfied), tol=0.1, n_coarse=17
    )
    assert got.intervals == ref.intervals
    np.testing.assert_array_equal(got.feasible, ref.feasible)
    nan_keys = {k for k, p in oracle._probabilities.items() if math.isnan(p)}
    assert nan_keys == {k for k in oracle._probabilities if bad(k * chance_constraint.CACHE_QUANTUM)}
    assert nan_keys and oracle.build_failures == len(nan_keys)
    assert oracle.evaluations == len(oracle._probabilities)
    assert caplog.text.count("surrogate build failed") == len(nan_keys)


def test_scan_synthetic_upper_boundary():
    # f2 = theta + xi, beta = 0, alpha = 0.5: feasible exactly for theta <= 0
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=200_000, seed=11)
    scan = scan_feasible_boundary((-2.0, 2.0), ChanceConstraintOracle(spec, _ShiftF2), tol=0.01)
    assert len(scan.intervals) == 1
    lo, hi = scan.intervals[0]
    assert lo == -2.0
    assert abs(hi - 0.0) <= 0.02 + 3.0 / np.sqrt(spec.n_prob_samples)


def test_scan_all_feasible_returns_full_range():
    spec = ChanceConstraintSpec(beta=10.0, alpha=0.5, n_prob_samples=100)
    oracle = ChanceConstraintOracle(spec, lambda t: _ConstF2(0.0))
    scan = scan_feasible_boundary((0.0, 1.0), oracle, tol=0.1)
    assert scan.intervals == ((0.0, 1.0),)
    assert np.all(scan.feasible)


def test_scan_none_feasible_returns_empty():
    spec = ChanceConstraintSpec(beta=-10.0, alpha=0.5, n_prob_samples=100)
    oracle = ChanceConstraintOracle(spec, lambda t: _ConstF2(0.0))
    scan = scan_feasible_boundary((0.0, 1.0), oracle, tol=0.1)
    assert scan.intervals == ()


def test_scan_csv_roundtrip(tmp_path):
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=1000, seed=2)
    scan = scan_feasible_boundary((-1.0, 1.0), ChanceConstraintOracle(spec, _ShiftF2), tol=0.05)
    path = tmp_path / "scan.csv"
    scan.to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "theta,probability,feasible"
    assert len(rows) == 1 + scan.thetas.shape[0]


def test_strip_exit_constraint_against_brute_force():
    q0 = 30845.0 * 0.015
    params = ModelParams(heat_flux_nominal=q0)
    germ, (coeff,) = _model1_exits((540.0,))
    f2 = StripExitConstraint(germ, coeff)
    spec = ChanceConstraintSpec(beta=343.2, alpha=0.95, n_prob_samples=40_000, seed=5)
    prob = satisfaction_probability(f2, spec)

    rng = np.random.default_rng(99)
    n = 40_000
    qd = q0 + 0.03 * q0 * rng.standard_normal(n)
    pd = params.porosity + 0.01 * rng.standard_normal(n)
    tf, _, _ = interface_state_batch(params, qd, pd, 540.0)
    brute = float(np.mean(tf <= spec.beta))
    assert abs(prob - brute) <= 0.02


def test_interface_constraint_modes():
    geo = InterfaceGeometry()
    rng = np.random.default_rng(21)
    coeffs = np.column_stack([rng.uniform(330, 360, 60), rng.normal(0, 2, 60)])
    germ = GermSpec((GermVariable("q", 450.0, 10.0),))
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 400)
    spec = ChanceConstraintSpec(beta=395.0, alpha=0.8, n_prob_samples=4000, seed=13)
    max_mode = satisfaction_probability(InterfaceMaxConstraint(isurr), spec)
    pointwise = satisfaction_probability(InterfaceMaxConstraint(isurr, pointwise=True), spec)
    # every per-node satisfaction fraction dominates the joint all-z fraction
    assert pointwise >= max_mode
    # Monte Carlo agreement for the max mode on a direct evaluation
    xi = np.random.default_rng(13).standard_normal((4000, 1))
    direct = float(np.mean(evaluate_interface_batch(isurr, xi[:, 0]).max(axis=1) <= spec.beta))
    assert InterfaceMaxConstraint(isurr).probability(xi, spec.beta) == direct
    # the exact shared-germ probability agrees with that estimate
    assert abs(max_mode - direct) <= 4.0 * _std_error(max_mode, 4000) + 1.0 / 4000


# ---------------------------------------------------------------------------
# exact shared-germ probability
# ---------------------------------------------------------------------------


def _std_error(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


# coefficients on a 1/8 grid: no field is flat to within roundoff of beta
_coef = st.integers(-24, 24).map(lambda k: k / 8.0)
_beta = st.floats(-4.0, 4.0, allow_subnormal=False)


def _factored(coeffs: np.ndarray) -> InterfaceSurrogate:
    """Shared-germ surrogate whose every z node is its own strip (unit = I,
    wall = 0), so row j of ``coeffs`` is the expansion of the field at node j."""
    n_z = coeffs.shape[0]
    return InterfaceSurrogate(
        germ=UNIT_GERM,
        z_grid=np.linspace(0.0, 1.0, n_z),
        time=1.0,
        coeffs=coeffs,
        wall=np.zeros(n_z),
        unit=np.eye(n_z),
        unit_svd=lambda: (np.eye(n_z), np.eye(n_z)),
    )


@st.composite
def _shared_fields(draw, flat: bool = False) -> InterfaceSurrogate:
    """Random shared-germ surrogates, affine in the germ as every interface
    field is; some nodes (every node when ``flat``) have no slope."""
    n_z = draw(st.integers(1, 6))
    base = np.array(draw(st.lists(_coef, min_size=n_z, max_size=n_z)))
    slope = np.array(draw(st.lists(_coef, min_size=n_z, max_size=n_z)))
    no_slope = flat or np.array(draw(st.lists(st.booleans(), min_size=n_z, max_size=n_z)))
    slope[no_slope] = 0.0
    return _factored(np.column_stack([base, slope]))


_DRAWS = np.random.default_rng(2024).standard_normal((100_000, 1))


@settings(max_examples=60, deadline=None)
@given(_shared_fields(), _beta, st.booleans())
def test_affine_cut_reproduces_monte_carlo_on_the_draws(isurr, beta, pointwise):
    # the satisfied set of a + b xi <= beta is sign(b) xi <= cut at every node
    f2 = InterfaceMaxConstraint(isurr, pointwise)
    xi = _DRAWS[:20_000]
    b = isurr.coeffs[:, 1] @ isurr.unit
    cut = chance_constraint._cut(isurr.base_field, b, beta)
    ok = np.sign(b) * xi <= cut
    from_cut = ok.mean(axis=0).min() if pointwise else ok.all(axis=1).mean()
    assert float(from_cut) == f2.probability(xi, beta)


@settings(max_examples=30, deadline=None)
@given(_shared_fields(), _beta, st.booleans())
def test_exact_probability_within_monte_carlo_error(isurr, beta, pointwise):
    f2 = InterfaceMaxConstraint(isurr, pointwise)
    exact = f2.exact_probability(beta)
    mc = f2.probability(_DRAWS, beta)
    n = _DRAWS.shape[0]
    assert 0.0 <= exact <= 1.0
    assert abs(exact - mc) <= 4.0 * _std_error(exact, n) + 1.0 / n


@settings(max_examples=60, deadline=None)
@given(_shared_fields(), _beta, _beta)
def test_exact_probability_monotone_in_beta_and_pointwise_dominates(isurr, b1, b2):
    lo, hi = sorted((b1, b2))
    for pointwise in (False, True):
        f2 = InterfaceMaxConstraint(isurr, pointwise)
        # 1e-12 absorbs roundoff in roots that move by less than that
        assert f2.exact_probability(lo) <= f2.exact_probability(hi) + 1e-12
    max_mode = InterfaceMaxConstraint(isurr).exact_probability(lo)
    assert InterfaceMaxConstraint(isurr, pointwise=True).exact_probability(lo) >= max_mode - 1e-12


@settings(max_examples=40, deadline=None)
@given(_shared_fields(flat=True), _shared_fields(), _beta)
def test_constant_fields_give_zero_or_one(flat_field, other, beta):
    # a surrogate without slope, and another one's base with its slope zeroed
    flat = _factored(np.column_stack([other.coeffs[:, :1], np.zeros_like(other.coeffs[:, 1:])]))
    for isurr in (flat_field, flat):
        expected = float(np.all(isurr.base_field <= beta))
        for pointwise in (False, True):
            assert InterfaceMaxConstraint(isurr, pointwise).exact_probability(beta) == expected


def test_exact_path_draws_no_germ_sample(monkeypatch):
    rng = np.random.default_rng(5)
    geo = InterfaceGeometry()
    coeffs = np.column_stack([rng.uniform(330, 360, 60), rng.normal(0, 2, 60)])
    isurr = assemble_interface_from_coeffs(geo, coeffs, UNIT_GERM, 1e-3, 1.0, 400)

    def no_draws(*args):
        raise AssertionError("the shared-germ path must not draw")

    rows = []

    def counted(order, xi):
        rows.append(len(xi))
        return hermite_design(order, xi)

    monkeypatch.setattr(chance_constraint, "_germ_draws", no_draws)
    monkeypatch.setattr(chance_constraint, "hermite_design", counted)
    spec = ChanceConstraintSpec(beta=405.0, alpha=0.5, n_prob_samples=100_000)
    prob = ChanceConstraintOracle(spec, lambda theta: InterfaceMaxConstraint(isurr)).probability(1.0)
    assert 0.0 <= prob <= 1.0
    # the closed form evaluates no Hermite design at all
    assert rows == []


def test_model1_scan_draws_no_germ_sample(monkeypatch, tiny_model1_dict):
    def no_draws(*args):
        raise AssertionError("the strip-exit path must not draw")

    monkeypatch.setattr(chance_constraint, "_germ_draws", no_draws)
    scenario = Scenario(ScenarioConfig.from_dict(tiny_model1_dict))
    assert scenario.intervals()
    assert scenario.oracle().counters()["mc_draws"] == 0


# Phi(-40) and 1 - Phi(40) are 0 in double precision, so [-40, 40] carries all the mass
_XI_CUT = 40.0
# leading power coefficients this small against the polynomial's scale on
# [-_XI_CUT, _XI_CUT] are dropped: their term is below roundoff there
_LEAD_RTOL = 1e-15
# imaginary parts (in xi) up to this are taken as roundoff on near-multiple real roots
_IMAG_TOL = 1e-4


def _herme_to_power(order: int) -> np.ndarray:
    """(K+1, K+1) matrix whose column k holds He_k in the ascending power basis."""
    out = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        poly = np.polynomial.hermite_e.herme2poly(np.eye(order + 1)[k])
        out[: poly.shape[0], k] = poly
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


def _normal_cdf(x) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


def _reference_shared_probability(isurr: InterfaceSurrogate, beta: float, pointwise: bool) -> float:
    """The shared-germ probability by root intervals, as computed before the
    closed form: segments between the real roots of every node's polynomial,
    classified by ``evaluate_interface_batch``."""
    base = isurr.wall + isurr.coeffs[:, 0] @ isurr.unit
    stacked = np.vstack([base, isurr.coeffs[:, 1:].T @ isurr.unit])
    power = (_herme_to_power(1) @ stacked).T
    power[:, 0] -= beta
    breaks = np.unique(_root_breakpoints(power))
    edges = np.concatenate([[-40.0], breaks, [40.0]])
    satisfied = evaluate_interface_batch(isurr, 0.5 * (edges[:-1] + edges[1:])) <= beta
    mass = np.diff(_normal_cdf(edges))
    per_segment = satisfied if pointwise else satisfied.all(axis=1)
    return float(min(1.0, np.min(mass @ per_segment)))


def test_closed_form_matches_root_intervals_on_shipped_interface():
    # the shipped model-2 interface around its feasible boundary (589.16)
    scenario = Scenario(resolve_config("model2"))
    factory, t_max = scenario.surrogate_factory(), scenario.config.constraint.beta
    for theta in (560.0, 589.16015625, 650.0):
        isurr = factory(theta).isurr
        for beta in (t_max - 1.0, t_max, t_max + 1.0):
            for pointwise in (False, True):
                got = InterfaceMaxConstraint(isurr, pointwise).exact_probability(beta)
                assert abs(got - _reference_shared_probability(isurr, beta, pointwise)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_shared_fields(), _beta, st.booleans())
def test_closed_form_matches_root_intervals_on_random_fields(isurr, beta, pointwise):
    got = InterfaceMaxConstraint(isurr, pointwise).exact_probability(beta)
    assert abs(got - _reference_shared_probability(isurr, beta, pointwise)) <= 1e-12


def _reference_strip_probability(f2: StripExitConstraint, beta: float) -> float:
    """Model 1's probability by root intervals, as computed before the closed
    form: the exit temperature's polynomial in xi_0 at each node of the
    32-node Gauss-Hermite rule in xi_1, weighted by that rule."""
    nodes, weights = chance_constraint.gauss_hermite_rule(32)
    rows = (hermite_design(f2._coeff.shape[0] - 1, nodes) @ f2._coeff).T
    edges, satisfied = _root_segments(rows, beta)
    return float(min(1.0, weights @ (np.diff(_normal_cdf(edges)) @ satisfied)))


@pytest.mark.parametrize(
    "name, interval", [("model1", (540.283203125, 1000.0)), ("model2", (589.16015625, 1000.0))]
)
def test_scanned_probabilities_match_root_intervals(monkeypatch, name, interval):
    # every surrogate the shipped scan visits, by the closed form and by roots
    scenario = Scenario(resolve_config(name))
    factory, visited = scenario.surrogate_factory(), []

    def recording(theta):
        visited.append(factory(theta))
        return visited[-1]

    monkeypatch.setattr(scenario, "surrogate_factory", lambda: recording)
    assert scenario.intervals() == (interval,)
    assert scenario.oracle().counters() == {
        "evaluations": len(visited), "build_failures": 0, "mc_draws": 0
    }
    beta = scenario.config.constraint.beta
    for f2 in visited:
        if name == "model1":
            expected = _reference_strip_probability(f2, beta)
        else:
            expected = _reference_shared_probability(f2.isurr, beta, f2.pointwise)
        assert abs(f2.exact_probability(beta) - expected) <= 1e-12


def test_non_affine_fields_fall_back_to_monte_carlo():
    # model 1's exit is affine in the flux by its layout: (K+1, 2) coefficients,
    # one (c0, c1) pair per porosity degree, and no other shape
    germ, (coeff,) = _model1_exits((540.28,))
    for bad in (coeff[:, :1], np.column_stack([coeff, coeff[:, 1]]), coeff[None], coeff[:0]):
        with pytest.raises(ValueError, match=r"\(K\+1, 2\)"):
            StripExitConstraint(germ, bad)
    # an interface field is affine by construction: c0 + c1 xi per strip
    isurr = Scenario(resolve_config("model2")).interface_surrogate(589.16015625)
    with pytest.raises(ValueError, match="n_strips, 2"):
        dataclasses.replace(isurr, coeffs=np.column_stack([isurr.coeffs, isurr.coeffs[:, 1]]))


# ---------------------------------------------------------------------------
# the oracle reuses one seeded germ sample on the Monte Carlo path
# ---------------------------------------------------------------------------


class _PairF2(F2Surrogate):
    """f2 = theta + xi_0 * xi_1 on a two-variable germ."""

    def __init__(self, theta: float):
        self.germ = GermSpec((GermVariable("q", 0.0, 1.0), GermVariable("phi", 0.0, 1.0)))
        self.theta = theta

    def f2_values(self, xi):
        return self.theta + xi[:, 0] * xi[:, 1]


def _independent_surrogate(theta: float) -> InterfaceMaxConstraint:
    """Four independent strips that diffusion barely couples: the field keeps
    four principal axes, more than ``_MAX_AXES``, so Monte Carlo decides."""
    geo = InterfaceGeometry(n_strips=4)
    germ = GermSpec(tuple(GermVariable(f"q{s}", 450.0, 10.0) for s in range(4)))
    rng = np.random.default_rng(3)
    coeffs = np.column_stack([theta + rng.uniform(0, 5, 4), rng.normal(0, 2, 4)])
    f2 = InterfaceMaxConstraint(assemble_interface_from_coeffs(geo, coeffs, germ, 1e-3, 1.0, 120))
    assert f2.exact_probability(401.0) is None
    return f2


@pytest.mark.parametrize(
    "factory, thetas, beta",
    [
        (_PairF2, (-0.5, 0.0, 0.3, 1.2), 0.1),
        (_independent_surrogate, (385.0, 392.0, 398.0), 401.0),
    ],
)
def test_oracle_reuses_draws_bit_identically(monkeypatch, factory, thetas, beta):
    spec = ChanceConstraintSpec(beta=beta, alpha=0.5, n_prob_samples=3000, seed=9)
    expected = [satisfaction_probability(factory(t), spec) for t in thetas]
    draws = {"n": 0}
    original = chance_constraint._germ_draws

    def counted(germ, spec):
        draws["n"] += 1
        return original(germ, spec)

    monkeypatch.setattr(chance_constraint, "_germ_draws", counted)
    oracle = ChanceConstraintOracle(spec, factory)
    assert [oracle.probability(t) for t in thetas] == expected
    assert draws["n"] == 1
    assert len(set(expected)) > 1


# ---------------------------------------------------------------------------
# exact two-variable strip-exit probability
# ---------------------------------------------------------------------------

PAIR_GERM = GermSpec((GermVariable("q", 0.0, 1.0), GermVariable("phi", 0.0, 1.0)))
_PAIR_DRAWS = np.random.default_rng(2025).standard_normal((200_000, 2))


def _model1_exits(thetas, phi_std: float = 0.01, q_std: float = 0.03 * 30845.0 * 0.015):
    """The shipped model-1 germ, with the given stds, and its (K+1, 2) exit
    coefficients at ``thetas``."""
    config = resolve_config("model1")
    q, phi = config.germ.variables
    germ = GermSpec((GermVariable("q", q.mean, q_std), GermVariable("phi", phi.mean, phi_std)))
    exits = Scenario(dataclasses.replace(config, germ=germ))._strip_exit_coeffs(np.asarray(thetas, float))
    return germ, exits


def test_exact_strip_exit_probability_matches_monte_carlo():
    thetas = (500.0, 530.0, 540.0, 560.0, 600.0)
    germ, exits = _model1_exits(thetas)
    n = _PAIR_DRAWS.shape[0]
    for coeff in exits:
        f2 = StripExitConstraint(germ, coeff)
        exact = f2.exact_probability(343.2)
        mc = f2.probability(_PAIR_DRAWS, 343.2)
        assert abs(exact - mc) <= 4.0 * _std_error(exact, n) + 1.0 / n


def test_strip_exit_quadrature_converged(monkeypatch):
    germ, exits = _model1_exits((530.0, 540.28, 545.0, 560.0, 600.0))
    for coeff in exits:
        f2 = StripExitConstraint(germ, coeff)
        p32 = f2.exact_probability(343.2)
        monkeypatch.setattr(chance_constraint, "_ETA_NODES", 64)
        p64 = f2.exact_probability(343.2)
        monkeypatch.setattr(chance_constraint, "_ETA_NODES", 32)
        assert abs(p32 - p64) <= 1e-9


def test_degenerate_phi_is_the_one_dimensional_path():
    # with phi std 0 every porosity-degree >= 1 row is exactly 0, and row 0 is
    # the one-strip flux law at the mean porosity
    germ, (coeff,) = _model1_exits((540.0,), phi_std=0.0)
    q, phi = germ.variables
    assert coeff.shape == (4, 2) and not coeff[1:].any()
    exit_q, exit_phi, exit_law = strip_exit_law([q.mean], [q.std], [phi.mean])
    tf, _, _ = interface_state_batch(resolve_config("model1").params, exit_q, exit_phi, 540.0)
    one_strip = exit_law(tf)
    np.testing.assert_array_equal(coeff[:1], one_strip)
    c0, c1 = coeff[0]
    for beta in (330.0, 343.2, 350.0):
        # the same coefficients take the same path at order 0, bit for bit
        one_row = StripExitConstraint(germ, coeff[:1]).exact_probability(beta)
        assert StripExitConstraint(germ, coeff).exact_probability(beta) == one_row
        # and that is the normal cdf of the one affine law
        assert abs(one_row - 0.5 * math.erfc(-(beta - c0) / c1 / math.sqrt(2.0))) <= 1e-15


def test_nan_threshold_gives_a_nan_probability():
    # min(1.0, nan) is 1.0: a NaN sum must not read as certain satisfaction
    germ, (coeff,) = _model1_exits((540.0,))
    assert math.isnan(StripExitConstraint(germ, coeff).exact_probability(math.nan))
    # and without any flux dependence
    flux_free = coeff.copy()
    flux_free[:, 1] = 0.0
    assert math.isnan(StripExitConstraint(germ, flux_free).exact_probability(math.nan))


def test_degenerate_heat_flux_falls_back_to_monte_carlo():
    # with q std 0 the exit temperature is a cubic in xi_phi alone: every
    # conditional mass is 0 or 1, the two eta rules disagree, and the draws decide
    pair, (coeff2,) = _model1_exits((540.0,), q_std=0.0)
    assert not coeff2[:, 1].any()
    f2 = StripExitConstraint(pair, coeff2)
    n = 50_000
    for beta in (340.6, 340.9, 341.2):
        # the normal mass of the root intervals of the cubic in xi_phi
        edges, satisfied = _root_segments(coeff2[:, :1], beta)
        expected = float(np.diff(_normal_cdf(edges)) @ satisfied[:, 0])
        assert 0.0 < expected < 1.0
        assert f2.exact_probability(beta) is None
        spec = ChanceConstraintSpec(beta=beta, alpha=0.5, n_prob_samples=n, seed=8)
        oracle = ChanceConstraintOracle(spec, lambda theta: f2)
        prob = oracle.probability(540.0)
        assert abs(prob - expected) <= 4.0 * _std_error(expected, n) + 1.0 / n
        assert oracle.counters()["mc_draws"] == n


@st.composite
def _pair_tensors(draw) -> np.ndarray:
    """Random (K+1, 2) coefficients: row k holds the He_k(xi_1) terms of the
    offset and slope of a law affine in xi_0, as a strip exit temperature is
    in the heat flux. Some get a dominant slope and a mild dependence on xi_1,
    as the exit temperature has on the porosity."""
    order = draw(st.integers(0, 4))
    coeff = np.array(draw(st.lists(_coef, min_size=2 * order + 2, max_size=2 * order + 2)))
    coeff = coeff.reshape(order + 1, 2)
    if order > 0 and draw(st.booleans()):
        coeff[0, 1] += 8.0
        coeff[1:] /= 64.0
    return coeff


@settings(max_examples=80, deadline=None)
@given(_pair_tensors(), _beta, _beta)
# b(eta) = 0.125 + 0.75 eta changes sign between the two central nodes of both
# rules, which integrate that jump alike: they agree on 0.5, where P = 0.4548
@example(np.array([[0.125, 0.125], [0.75, 0.75]]), 0.0, 0.0)
def test_exact_strip_exit_probability_property(coeff, b1, b2):
    f2 = StripExitConstraint(PAIR_GERM, coeff)
    draws = _PAIR_DRAWS[:100_000]
    n = draws.shape[0]
    exact = {}
    for beta in sorted((b1, b2)):
        p = f2.exact_probability(beta)
        mc = f2.probability(draws, beta)
        # None: the quadrature rules disagree, and the draws decide
        spec = ChanceConstraintSpec(beta=beta, alpha=0.5)
        assert satisfaction_probability(f2, spec, lambda germ, spec: draws) == (
            mc if p is None else p
        )
        if p is not None:
            assert 0.0 <= p <= 1.0
            assert abs(p - mc) <= 5.0 * _std_error(p, n) + 1.0 / n
            exact[beta] = p
    if len(exact) == 2:
        lo, hi = exact.values()
        assert lo <= hi + 1e-12


def test_unconverged_quadrature_falls_back_to_monte_carlo():
    # f2 = (xi_1 - 0.3)(1 + xi_0) is affine in xi_0, but at xi_1 = 0.3 both
    # a and b vanish: the satisfied mass of f2 <= 0 jumps from Phi(1) to
    # Phi(-1) there, and the quadrature fails
    coeff = np.array([[-0.3, -0.3], [1.0, 1.0]])
    f2 = StripExitConstraint(PAIR_GERM, coeff)
    assert f2.exact_probability(0.0) is None
    spec = ChanceConstraintSpec(beta=0.0, alpha=0.5, n_prob_samples=50_000, seed=3)
    oracle = ChanceConstraintOracle(spec, lambda theta: f2)
    prob = oracle.probability(1.0)
    below = 0.5 * math.erfc(-0.3 / math.sqrt(2.0))  # P(xi_1 < 0.3)
    low, high = 0.5 * math.erfc(1.0 / math.sqrt(2.0)), 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
    assert abs(prob - (below * high + (1.0 - below) * low)) <= 4.0 * _std_error(prob, 50_000)
    assert oracle.counters()["mc_draws"] == 50_000


# ---------------------------------------------------------------------------
# the closed forms' premise: the exit temperature is affine in the heat flux
# ---------------------------------------------------------------------------


def _galerkin_flux_exit(config: ScenarioConfig, porosity: float, mean: float, std: float, theta):
    """Order-3, 6-node Galerkin expansion of one strip's exit T_f in its flux germ."""
    germ = GermSpec((GermVariable("q", mean, std),))
    params = dataclasses.replace(config.params, porosity=porosity)
    return build_strip_surrogate(params, germ, theta, 3, 6, config.n_steps).coeff_t_fluid[:, -1]


def _strip_flux(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-strip heat-flux germ means and stds of model 2 (its one shared germ
    on every strip) or model 3, read from the config's germ."""
    variables = config.germ.variables * (config.geometry.n_strips if config.model == 2 else 1)
    return np.array([v.mean for v in variables]), np.array([v.std for v in variables])


def _flux_curvature(scenario: Scenario, thetas, strips=slice(None)) -> np.ndarray:
    """Per theta, the larger of the Galerkin reference's largest flux-degree
    >= 2 exit coefficient and the gap between the builder's (c0, c1) and the
    reference's degree 0-1 terms, over the reference's largest coefficient.

    The reference is the Galerkin expansion of each selected strip's flux
    germ. Model 1's strips are the nodes of its porosity rule, and its
    (c0, c1) are compared with their degree 0-1 terms projected onto
    He_k(xi_phi). Its full (q, phi) Galerkin tensor differs from that
    projection at porosity truncation level, which ``test_gpc`` bounds.
    """
    coeffs = scenario._strip_exit_coeffs(thetas)
    config, project = scenario.config, None
    if config.model == 1:
        q, phi = config.germ.variables
        porosities, project = porosity_projection(phi, config.order, config.n_quad)
        rows = [(porosity, q.mean, q.std) for porosity in porosities]
    else:
        rows = np.stack([config.geometry.strip_porosities(), *_strip_flux(config)], 1)
        rows, coeffs = rows[strips], coeffs[:, strips]
    reference = np.array([
        [_galerkin_flux_exit(config, *row, theta) for row in rows] for theta in thetas
    ])  # (theta, strip, flux degree)
    high = np.abs(reference[..., 2:]).max(axis=(1, 2))
    expected = reference[..., :2] if project is None else project @ reference[..., :2]
    gap = np.abs(coeffs - expected).max(axis=(1, 2))
    return np.maximum(high, gap) / np.abs(reference).max(axis=(1, 2))


@pytest.mark.parametrize("name", ["model1", "model2", "model3"])
def test_shipped_exit_temperatures_are_affine_in_the_flux(name):
    scenario = Scenario(resolve_config(name))
    thetas = np.linspace(*scenario.config.theta_range(), 5)
    # every fifth strip covers both porosity sections and model 3's flux peak and trough
    assert np.all(_flux_curvature(scenario, thetas, slice(None, None, 5)) <= 1e-12)


_PHYSICS = ("prandtl", "nusselt", "kappa_fluid", "kappa_solid", "permeability_darcy",
            "forchheimer", "hot_gas_temp", "coolant_temp", "reservoir_pressure", "length")


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["model1", "model2", "model3"]),
    st.fixed_dictionaries({name: st.floats(0.5, 2.0) for name in _PHYSICS}),
    st.floats(300.0, 1000.0),
)
def test_random_physics_keeps_the_exit_affine_in_the_flux(name, scales, theta):
    config = resolve_config(name)
    params = dataclasses.replace(
        config.params, **{key: scale * getattr(config.params, key) for key, scale in scales.items()}
    )
    scenario = Scenario(dataclasses.replace(config, params=params, n_steps=40))
    try:
        curvature = _flux_curvature(scenario, [theta])
    except BUILD_FAILURES:
        assume(False)
    assert curvature[0] <= 1e-12


# ---------------------------------------------------------------------------
# collocation-built exit tables against the intrusive Galerkin reference
# ---------------------------------------------------------------------------


def _galerkin_exit_coeffs(config: ScenarioConfig, thetas) -> np.ndarray:
    """``Scenario._strip_exit_coeffs`` from the intrusive Galerkin march.

    Model 1 builds its (q, phi) germ at each theta and keeps the flux-degree
    0-1 rows of the tensor, as (K+1, 2). Models 2 and 3 build strip 0's
    flux germ once per distinct porosity and theta, and carry its degree 0-1
    terms to every strip's germ by the affine law, which
    ``test_shipped_exit_temperatures_are_affine_in_the_flux`` checks strip by
    strip.
    """
    if config.model == 1:
        args = (config.order, config.n_quad, config.n_steps)
        return np.stack([
            build_strip_surrogate(config.params, config.germ, theta, *args).coeff_t_fluid[:2, :, -1].T
            for theta in thetas
        ])
    porosities, inverse = np.unique(config.geometry.strip_porosities(), return_inverse=True)
    means, stds = _strip_flux(config)
    mean, std = means[0], stds[0]
    reference = np.array([
        [_galerkin_flux_exit(config, phi, mean, std, theta)[:2] for phi in porosities]
        for theta in thetas
    ])[:, inverse]
    slope = reference[..., 1] / std
    intercept = reference[..., 0] - slope * mean
    return np.stack([intercept + slope * means, slope * stds], axis=-1)


@pytest.mark.parametrize(
    "name, tol", [("model1", 1e-10), ("model2", 1e-12), ("model3", 1e-12)]
)
def test_shipped_scans_match_the_galerkin_built_table(name, tol, monkeypatch):
    scan = Scenario(resolve_config(name)).scan()
    monkeypatch.setattr(
        Scenario, "_strip_exit_coeffs", lambda self, thetas: _galerkin_exit_coeffs(self.config, thetas)
    )
    galerkin = Scenario(resolve_config(name))
    theta_range = galerkin.config.theta_range()
    # the exit table the scenario's one march would build, fitted to the Galerkin march
    exits = galerkin._strip_exit_coeffs(table_thetas(theta_range))
    galerkin._stages["exit_table"] = fit_table(theta_range, exits)
    assert galerkin.exit_table() is not None
    reference = galerkin.scan()
    np.testing.assert_array_equal(scan.thetas, reference.thetas)
    np.testing.assert_array_equal(scan.feasible, reference.feasible)
    assert scan.intervals == reference.intervals
    np.testing.assert_allclose(scan.probabilities, reference.probabilities, rtol=0.0, atol=tol)


# ---------------------------------------------------------------------------
# independent per-strip germs (model 3) through the same kernel
# ---------------------------------------------------------------------------


def test_model3_scan_is_exact_and_keeps_its_boundary(monkeypatch):
    gaps = []
    converged = chance_constraint._converged

    def recording(probs):
        gaps.append(float(np.ptp(probs)))
        return converged(probs)

    def no_draws(*args):
        raise AssertionError("the shipped model-3 scan must not draw")

    monkeypatch.setattr(chance_constraint, "_converged", recording)
    monkeypatch.setattr(chance_constraint, "_germ_draws", no_draws)
    scenario = Scenario(resolve_config("model3"))
    scan = scenario.scan()
    assert scan.intervals == ((499.609375, 1000.0),)
    counters = scenario.oracle().counters()
    assert counters["mc_draws"] == 0
    # every scanned P: its two rules agree to the one tolerance
    assert len(gaps) == counters["evaluations"] and max(gaps) <= chance_constraint._ETA_TOL
    # the 33 coarse feasibility flags of the seeded Monte Carlo scan it replaces
    np.testing.assert_array_equal(scan.feasible, scan.thetas >= 518.75)


@pytest.mark.slow
def test_model3_probability_matches_a_million_draws():
    # each P against one Monte Carlo sample of 2^20 draws through the fields
    scenario = Scenario(resolve_config("model3"))
    beta = scenario.config.constraint.beta
    surrogates = [scenario.surrogate_factory()(theta) for theta in (499.0, 499.267578125, 499.609375)]
    exact = np.array([f2.exact_probability(beta) for f2 in surrogates])
    rng, n, chunk = np.random.default_rng(17), 2**20, 2**14
    satisfied = np.zeros(len(surrogates))
    for _ in range(n // chunk):
        xi = rng.standard_normal((chunk, 60))
        for i, f2 in enumerate(surrogates):
            satisfied[i] += np.count_nonzero(evaluate_interface_batch(f2.isurr, xi).max(axis=1) <= beta)
    mc = satisfied / n
    assert np.all(np.abs(exact - mc) <= 4.0 * np.sqrt(exact * (1.0 - exact) / n))


def test_pointwise_independent_probability_is_the_per_node_normal_cdf():
    geo = InterfaceGeometry(n_strips=6)
    germ = GermSpec(tuple(GermVariable(f"q{s}", 450.0, 10.0) for s in range(6)))
    rng = np.random.default_rng(23)
    coeffs = np.column_stack([rng.uniform(380, 390, 6), rng.normal(0, 4, 6)])
    isurr = assemble_interface_from_coeffs(geo, coeffs, germ, 2e-3, 1.0, 150)
    f2 = InterfaceMaxConstraint(isurr, pointwise=True)
    n = 200_000
    xi = np.random.default_rng(24).standard_normal((n, 6))
    for beta in (395.0, 400.0, 405.0):
        # T(z) alone is normal: base_z + sigma_z h
        sigma = np.sqrt((coeffs[:, 1:] ** 2 * isurr.unit**2).sum(axis=0))
        closed = min(0.5 * math.erfc(-(beta - a) / s / math.sqrt(2.0)) for a, s in zip(isurr.base_field, sigma))
        exact = f2.exact_probability(beta)
        assert abs(exact - closed) <= 1e-14
        assert abs(exact - f2.probability(xi, beta)) <= 4.0 * _std_error(exact, n) + 1.0 / n


@st.composite
def _independent_fields(draw) -> InterfaceMaxConstraint:
    """Small independent-germ interfaces, from nearly uncoupled strips to
    strips that diffusion merges into one principal axis."""
    n_strips = draw(st.integers(2, 5))
    geo = InterfaceGeometry(n_strips=n_strips, section_porosities=((0.25, 0.75, 0.2),))
    germ = GermSpec(tuple(GermVariable(f"q{s}", 0.0, 1.0) for s in range(n_strips)))
    coeffs = np.column_stack([
        draw(st.lists(_coef, min_size=n_strips, max_size=n_strips)),
        draw(st.lists(_coef.filter(bool), min_size=n_strips, max_size=n_strips)),
    ])
    t_end = draw(st.sampled_from([0.5, 5.0, 50.0, 500.0]))
    return InterfaceMaxConstraint(
        assemble_interface_from_coeffs(dataclasses.replace(geo, wall_temp=1e-3), coeffs, germ, 2e-3, t_end, 80)
    )


@settings(max_examples=30, deadline=None)
@given(_independent_fields(), _beta)
def test_independent_germ_probability_within_monte_carlo_error(f2, beta):
    # None: more than _MAX_AXES axes or a gap above _ETA_TOL, and the draws decide
    exact = f2.exact_probability(beta)
    draws = np.random.default_rng(2026).standard_normal((100_000, f2.germ.dim))
    mc = f2.probability(draws, beta)
    spec = ChanceConstraintSpec(beta=beta, alpha=0.5)
    assert satisfaction_probability(f2, spec, lambda germ, spec: draws) == (mc if exact is None else exact)
    if exact is not None:
        assert 0.0 <= exact <= 1.0
        assert abs(exact - mc) <= 4.0 * _std_error(exact, len(draws)) + 1.0 / len(draws)



@pytest.mark.parametrize("c0", [[0.0, 0.0, 0.0], [0.0, 0.125]])
def test_nodes_no_germ_moves_hold_at_beta_equal_to_the_wall(c0):
    # 0.5 s of diffusion leaves the end nodes at the wall temperature with zero
    # unit response; at beta there they always hold, in the draws and in P
    n_strips = len(c0)
    geo = InterfaceGeometry(n_strips=n_strips, section_porosities=((0.25, 0.75, 0.2),), wall_temp=1e-3)
    germ = GermSpec(tuple(GermVariable(f"q{s}", 0.0, 1.0) for s in range(n_strips)))
    coeffs = np.column_stack([c0, np.full(n_strips, 0.125)])
    f2 = InterfaceMaxConstraint(assemble_interface_from_coeffs(geo, coeffs, germ, 2e-3, 0.5, 80))
    assert f2.isurr.wall[0] == f2.isurr.wall[-1] == 1e-3 and not f2.isurr.unit[:, [0, -1]].any()
    draws = np.random.default_rng(2026).standard_normal((100_000, n_strips))
    exact, mc = f2.exact_probability(1e-3), f2.probability(draws, 1e-3)
    assert mc > 0.05
    assert exact is None or abs(exact - mc) <= 4.0 * _std_error(exact, len(draws)) + 1.0 / len(draws)

# (c0, c1, t_end, beta): three principal axes whose failures sit where the third
# axis is near 4, past every node of its 2- and 3-node Gauss-Hermite rules
_MINOR_AXIS_TAILS = [
    ([0.0, 0.0, 1.125], [0.25, 0.25, 0.125], 0.5, 1.5),  # singular values 1, 0.81, 0.43
    ([-1.625, -1.75, -2.875], [0.125, -0.625, -1.0], 5.0, -0.165),  # 1, 0.37, 0.064
]


@pytest.mark.parametrize("c0, c1, t_end, beta", _MINOR_AXIS_TAILS, ids=["sv-0.43", "sv-0.064"])
def test_minor_axis_tail_is_not_understated(c0, c1, t_end, beta):
    geo = InterfaceGeometry(n_strips=3, section_porosities=((0.25, 0.75, 0.2),), wall_temp=1e-3)
    germ = GermSpec(tuple(GermVariable(f"q{s}", 0.0, 1.0) for s in range(3)))
    coeffs = np.column_stack([c0, c1])
    f2 = InterfaceMaxConstraint(assemble_interface_from_coeffs(geo, coeffs, germ, 2e-3, t_end, 80))
    exact = f2.exact_probability(beta)
    n = 1_000_000
    mc = f2.probability(np.random.default_rng(2026).standard_normal((n, 3)), beta)
    assert exact is None or abs(exact - mc) <= 4.0 * _std_error(exact, n) + 1.0 / n


@pytest.mark.parametrize("theta", [496.875, 499.609375, 507.8125])
def test_binding_keeps_every_column_that_sets_u(monkeypatch, theta):
    f2 = Scenario(resolve_config("model3")).surrogate_factory()(theta)
    isurr, beta = f2.isurr, 380.0
    left, right = isurr.unit_svd()
    _, sv, qt = np.linalg.svd(isurr.coeffs[:, 1:] * left, full_matrices=False)
    directions = sv[:, None] * (qt @ right)
    # the rule pair over axes 2 and 3 that the shipped config's three axes take
    nodes, _ = chance_constraint._rule_pair((401, 2), (801, 3, 2), trapezoid=True)
    b, minor = np.abs(directions[0]), directions[1 : nodes.shape[1] + 1]
    cut = (beta - isurr.base_field) / b
    keep = chance_constraint._binding(cut, minor / b, nodes)
    # the smallest cut at every node of both rules, over all 600 columns
    setting = np.unique(np.argmin(cut - nodes @ (minor / b), axis=1))
    assert keep[setting].all() and keep.sum() < 60
    pruned = f2.exact_probability(beta)
    monkeypatch.setattr(chance_constraint, "_binding", lambda cut, slope, nodes: np.ones(cut.shape, bool))
    assert abs(f2.exact_probability(beta) - pruned) <= 1e-14


def test_too_many_axes_fall_back_to_monte_carlo(monkeypatch):
    f2 = Scenario(resolve_config("model3")).surrogate_factory()(499.609375)
    assert f2.exact_probability(380.0) is not None
    monkeypatch.setattr(chance_constraint, "_MAX_AXES", 2)
    assert f2.exact_probability(380.0) is None


def test_shared_germ_scan_builds_no_principal_axes(tiny_model2_dict):
    _footprint_svd.cache_clear()
    Scenario(ScenarioConfig.from_dict(tiny_model2_dict)).scan()
    assert _footprint_svd.cache_info().currsize == 0


def _frozen_rule_pair(coarse: tuple, fine: tuple, trapezoid: bool):
    """``_rule_pair`` as it stood before ``gpc.tensor_rule``: its products by
    ``itertools.product`` and ``math.prod``."""
    def tensor(sizes):
        rules = [chance_constraint.gauss_hermite_rule(n) for n in sizes[int(trapezoid) :]]
        if trapezoid and sizes:
            h = np.linspace(-chance_constraint._AXIS_HALF, chance_constraint._AXIS_HALF, sizes[0])
            rules.insert(0, (h, (h[1] - h[0]) * np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)))
        weights = np.array([math.prod(w) for w in itertools.product(*(w for _, w in rules))])
        nodes = np.array(list(itertools.product(*(x for x, _ in rules)))).reshape(len(weights), -1)
        return np.pad(nodes, ((0, 0), (0, len(fine) - len(sizes)))), weights

    (c_nodes, c_weights), (f_nodes, f_weights) = tensor(coarse), tensor(fine)
    nodes = np.concatenate([c_nodes, f_nodes])
    weights = np.zeros((2, nodes.shape[0]))
    weights[0, : len(c_weights)], weights[1, len(c_weights) :] = c_weights, f_weights
    return nodes, weights


@pytest.mark.parametrize(
    "coarse, fine, trapezoid",
    [((32,), (64,), False), ((401,), (801, 2), True), ((401, 2), (801, 3, 2), True), ((), (801,), True)],
)
def test_rule_pair_is_the_frozen_product_build_bit_for_bit(coarse, fine, trapezoid):
    got = chance_constraint._rule_pair(coarse, fine, trapezoid)
    for array, want in zip(got, _frozen_rule_pair(coarse, fine, trapezoid)):
        assert array.shape == want.shape and not array.flags.writeable
        np.testing.assert_array_equal(array.view(np.int64), want.view(np.int64))
