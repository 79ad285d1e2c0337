"""End-to-end acceptance checks for the full inversion pipeline.

Every test prints exactly one `[criterion NN] PASS/FAIL` line with the
measured numbers; run with `pytest tests/test_acceptance.py -v -s` to see
them stream. The suite exercises the shipped scenario configs, so it is
slower than the unit tests (a few minutes in total).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from tcbayes.chance_constraint import (
    ChanceConstraintSpec,
    evaluate_interface_batch,
    satisfaction_probability,
)
from tcbayes.cli import resolve_config
from tcbayes.diagnostics import (
    Histogram,
    brooks_gelman_ratio,
    chain_histogram,
    reference_posterior,
    relative_l2_error,
)
from tcbayes.gpc import build_strip_surrogate, evaluate_surrogate, surrogate_moments
from tcbayes.heat_interface import InterfaceField, diffuse_field
from tcbayes.porous_flow import interface_state_batch
from tcbayes.samplers import (
    postprocess_feasible,
    run_chmc,
    run_crw,
    run_csvgd,
)
from tcbayes.scenario import Scenario

pytestmark = pytest.mark.acceptance


def _crit(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _member_mask(intervals, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    mask = np.zeros(values.shape, dtype=bool)
    for lo, hi in intervals:
        mask |= (values >= lo) & (values <= hi)
    return mask


def _array_histogram(values: np.ndarray, n_bins: int, value_range) -> Histogram:
    heights, edges = np.histogram(values, bins=n_bins, range=value_range, density=True)
    return Histogram(edges=edges, heights=heights)


def trapezoid_mean(values: np.ndarray) -> float:
    return float((0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]) / (len(values) - 1))


# ---------------------------------------------------------------------------
# shared scenario state (built once, reused across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model1():
    return Scenario(resolve_config("model1"))


@pytest.fixture(scope="module")
def model1_chain(model1):
    started = time.perf_counter()
    chain = model1.run_chain(model1.config.seed)
    return {"chain": chain, "seconds": time.perf_counter() - started}


@pytest.fixture(scope="module")
def model2_state():
    scenario = Scenario(resolve_config("model2"))
    started = time.perf_counter()
    chains = scenario.run_all_chains()
    return {
        "scenario": scenario,
        "chains": chains,
        "seconds": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_truncated_normal_random_walk():
    started = time.perf_counter()
    log_post = lambda t: -0.5 * t * t  # noqa: E731
    member = lambda t: t >= 0.5  # noqa: E731
    chain = run_crw(log_post, member, 1.2, 100_000, 1.0, seed=2)
    reference = reference_posterior(np.linspace(0.5, 6.0, 2000), log_post, member)
    err = relative_l2_error(chain_histogram(chain, 50), reference)
    elapsed = time.perf_counter() - started
    _crit(
        1,
        err <= 0.05 and elapsed <= 10.0,
        f"half-line truncated normal, hard-constrained walk: rel L2 {err:.4f} <= 0.05 "
        f"({elapsed:.1f}s <= 10s)",
    )


def test_criterion_02_unconstrained_gaussian_moments():
    log_post = lambda t: -0.5 * t * t  # noqa: E731
    grad = lambda t: -t  # noqa: E731

    t0 = time.perf_counter()
    crw = run_crw(log_post, lambda t: True, 2.4, 100_000, 0.0, seed=1)
    t_crw = time.perf_counter() - t0

    t0 = time.perf_counter()
    chmc = run_chmc(log_post, grad, 1.0, 0.3, 20, 20_000, 0.0, seed=0)
    t_chmc = time.perf_counter() - t0

    t0 = time.perf_counter()
    svgd = run_csvgd(lambda x: -x, 100, 500, seed=0).final
    t_svgd = time.perf_counter() - t0

    stats = {
        "crw": (float(crw.samples.mean()), float(crw.samples.var()), t_crw),
        "chmc": (float(chmc.samples.mean()), float(chmc.samples.var()), t_chmc),
        "csvgd": (float(svgd.mean()), float(svgd.var()), t_svgd),
    }
    ok = all(
        abs(m) <= 0.02 and 0.95 <= v <= 1.05 and sec <= 60.0
        for m, v, sec in stats.values()
    )
    detail = "; ".join(
        f"{name} mean {m:+.4f} var {v:.4f} ({sec:.1f}s)" for name, (m, v, sec) in stats.items()
    )
    _crit(2, ok, f"standard normal target: {detail}")


def test_criterion_03_surrogate_matches_monte_carlo(model1):
    params = model1.config.params
    germ = model1.config.germ
    re = params.reynolds_nominal

    t0 = time.perf_counter()
    surrogates = {
        order: build_strip_surrogate(params, germ, re, order=order, n_quad=6)
        for order in (1, 2, 3, 4)
    }
    build_seconds = time.perf_counter() - t0

    q_var, phi_var = germ.variables
    xi = np.random.default_rng(101).standard_normal((100_000, 2))
    q = q_var.mean + q_var.std * xi[:, 0]
    phi = phi_var.mean + phi_var.std * xi[:, 1]
    tf, ts, _ = interface_state_batch(params, q, phi, re)

    moment_ok = True
    moment_bits = []
    for field, exact in (("t_fluid", tf), ("t_solid", ts)):
        mean_hat, var_hat = surrogate_moments(surrogates[3], -1, field)
        mean_err = abs(mean_hat - exact.mean()) / abs(exact.mean())
        var_err = abs(var_hat - exact.var()) / exact.var()
        moment_ok &= mean_err <= 0.01 and var_err <= 0.05
        moment_bits.append(f"{field} mean err {mean_err:.2e}, var err {var_err:.3f}")

    # truncation error must not grow with the expansion order
    rms = []
    for order in (1, 2, 3, 4):
        approx, _ = evaluate_surrogate(surrogates[order], -1, q[:2000], phi[:2000])
        rms.append(float(np.sqrt(np.mean((approx - tf[:2000]) ** 2))))
    ladder_ok = all(b <= a * (1.0 + 1e-9) for a, b in zip(rms, rms[1:]))

    _crit(
        3,
        moment_ok and ladder_ok and build_seconds <= 30.0,
        f"order-3 expansion vs 1e5-draw integration: {'; '.join(moment_bits)}; "
        f"exit rms ladder {['%.3g' % r for r in rms]} non-increasing; "
        f"builds {build_seconds:.1f}s <= 30s",
    )


def test_criterion_04_satisfaction_probability_brute_force(model1):
    started = time.perf_counter()
    params = model1.config.params
    q_var, phi_var = model1.config.germ.variables
    beta = model1.config.constraint.beta
    factory = model1.surrogate_factory()

    worst = 0.0
    bits = []
    for i, theta in enumerate((450.0, 520.0, 540.0, 560.0, 650.0)):
        spec = ChanceConstraintSpec(
            beta=beta, alpha=model1.config.constraint.alpha, n_prob_samples=1_000_000, seed=11
        )
        p_surrogate = satisfaction_probability(factory(theta), spec)

        xi = np.random.default_rng(202 + i).standard_normal((1_000_000, 2))
        tf, _, _ = interface_state_batch(
            params,
            q_var.mean + q_var.std * xi[:, 0],
            phi_var.mean + phi_var.std * xi[:, 1],
            theta,
        )
        p_exact = float((tf <= beta).mean())
        worst = max(worst, abs(p_surrogate - p_exact))
        bits.append(f"theta {theta:.0f}: {p_surrogate:.4f} vs {p_exact:.4f}")
    elapsed = time.perf_counter() - started
    _crit(
        4,
        worst <= 0.02 and elapsed <= 1200.0,
        f"surrogate vs 1e6-draw direct integration, max gap {worst:.4f} <= 0.02 "
        f"({'; '.join(bits)}; {elapsed:.0f}s <= 1200s)",
    )


def test_criterion_05_feasible_boundary_and_hard_walk(model1, model1_chain):
    intervals = model1.intervals()
    chain = model1_chain["chain"]
    single_lower = (
        len(intervals) == 1
        and 300.0 < intervals[0][0] < 1000.0
        and intervals[0][1] == 1000.0
    )
    all_feasible = chain.feasible_fraction == 1.0
    _crit(
        5,
        single_lower and all_feasible,
        f"scan found a single lower boundary at {intervals[0][0]:.1f} in (300, 1000); "
        f"hard-constrained walk feasible fraction {chain.feasible_fraction:.4f} == 1",
    )


def test_criterion_06_posterior_mean_meets_audit(model2_state):
    scenario = model2_state["scenario"]
    chains = model2_state["chains"]
    started = time.perf_counter()
    pooled = np.concatenate([c.samples[int(0.1 * len(c)) :] for c in chains])
    theta_hat = float(pooled.mean())

    isurr = scenario.interface_surrogate(theta_hat)
    dim = scenario.config.germ.dim
    shape = (10_000,) if dim == 1 else (10_000, dim)  # shared germ is univariate
    xi = np.random.default_rng(99).standard_normal(shape)
    fields = evaluate_interface_batch(isurr, xi)
    prob = float((fields.max(axis=1) <= scenario.config.constraint.beta).mean())
    elapsed = time.perf_counter() - started
    _crit(
        6,
        prob >= scenario.config.constraint.alpha and elapsed <= 120.0,
        f"audit at posterior mean {theta_hat:.1f}: P(field stays below "
        f"{scenario.config.constraint.beta:.0f}) = {prob:.4f} >= "
        f"{scenario.config.constraint.alpha} ({elapsed:.1f}s <= 120s)",
    )


def test_criterion_07_diffusion_exactness():
    started = time.perf_counter()
    z = np.linspace(0.0, 1.0, 400)

    constant = diffuse_field(InterfaceField(z, np.full(400, 410.0), 0.0), 1e-3, 2.5)
    const_err = float(np.max(np.abs(constant.values - 410.0)))

    mode = diffuse_field(InterfaceField(z, np.cos(np.pi * z), 0.0), 1e-3, 1.0)
    decay = np.exp(-1e-3 * np.pi**2)
    mode_err = float(np.max(np.abs(mode.values / np.cos(np.pi * z) - decay)) / decay)

    rng = np.random.default_rng(17)
    rough = InterfaceField(z, rng.uniform(300.0, 500.0, 400), 0.0)
    smooth = diffuse_field(rough, 2e-3, 3.7)
    drift = abs(trapezoid_mean(smooth.values) - trapezoid_mean(rough.values)) / abs(
        trapezoid_mean(rough.values)
    )
    elapsed = time.perf_counter() - started
    _crit(
        7,
        const_err <= 1e-12 and mode_err <= 1e-3 and drift <= 1e-12 and elapsed <= 5.0,
        f"constant field drift {const_err:.1e} <= 1e-12; cosine mode decay err "
        f"{mode_err:.1e} <= 1e-3; mean drift {drift:.1e} <= 1e-12 ({elapsed:.1f}s <= 5s)",
    )


def test_criterion_08_gradient_matches_finite_differences(model1):
    started = time.perf_counter()
    thetas = np.random.default_rng(7).uniform(545.0, 995.0, 20)
    h = 1e-3
    worst = 0.0
    for theta in thetas:
        analytic = model1.grad_log_posterior(float(theta))
        central = (model1.log_posterior(theta + h) - model1.log_posterior(theta - h)) / (2 * h)
        worst = max(worst, abs(analytic - central) / (abs(central) + 1e-12))
    elapsed = time.perf_counter() - started
    _crit(
        8,
        worst <= 1e-3 and elapsed <= 30.0,
        f"posterior gradient vs central differences at 20 feasible Reynolds numbers: "
        f"worst rel err {worst:.2e} <= 1e-3 ({elapsed:.1f}s <= 30s)",
    )


def test_criterion_09_between_chain_shrink_ratio(model2_state):
    chains = model2_state["chains"]
    started = time.perf_counter()
    ratio = brooks_gelman_ratio(chains, confidence=0.95, checkpoints=[1000])[0][1]
    elapsed = model2_state["seconds"] + (time.perf_counter() - started)
    _crit(
        9,
        0.95 <= ratio <= 1.05 and elapsed <= 300.0,
        f"two-chain interval shrink ratio at 1000 draws: {ratio:.4f} in [0.95, 1.05] "
        f"({elapsed:.0f}s <= 300s including sampling)",
    )


def test_criterion_10_postprocessing_reduces_error(model1):
    started = time.perf_counter()
    compare = model1.config.raw["compare"]["samplers"]
    reference = model1.reference()
    value_range = model1.config.theta_range()
    intervals = model1.intervals()
    feasibility = model1.feasibility()

    chmc_block = dict(compare["chmc"], kind="chmc")
    chain = model1.with_sampler(chmc_block).run_chain(0)
    raw_chain_err = relative_l2_error(
        chain_histogram(chain, 50, value_range, 0.1), reference
    )
    cleaned = postprocess_feasible(chain, feasibility)
    post_chain_err = relative_l2_error(
        chain_histogram(cleaned, 50, value_range, 0.1), reference
    )

    csvgd_block = dict(compare["csvgd"], kind="csvgd")
    history = model1.with_sampler(csvgd_block).run_chain(0)
    flat = history.flatten(0.1)
    raw_particle_err = relative_l2_error(
        _array_histogram(flat, 50, value_range), reference
    )
    kept = flat[_member_mask(intervals, flat)]
    post_particle_err = relative_l2_error(
        _array_histogram(kept, 50, value_range), reference
    )
    elapsed = time.perf_counter() - started
    _crit(
        10,
        post_chain_err <= raw_chain_err
        and post_particle_err <= raw_particle_err
        and elapsed <= 600.0,
        f"feasibility postprocessing: penalized hmc L2 {raw_chain_err:.4f} -> "
        f"{post_chain_err:.4f}; penalized svgd L2 {raw_particle_err:.4f} -> "
        f"{post_particle_err:.4f}; both improved ({elapsed:.0f}s <= 600s)",
    )


def test_criterion_11_projection_keeps_every_generation_feasible(model1):
    block = dict(model1.config.raw["compare"]["samplers"]["projected_svgd"], kind="projected_svgd")
    history = model1.with_sampler(block).run_chain(0)
    intervals = model1.intervals()
    feasible = _member_mask(intervals, history.generations)
    fraction = float(feasible.mean())
    _crit(
        11,
        bool(feasible.all()),
        f"projected particle flow: {fraction:.4f} of particles feasible over "
        f"{history.generations.shape[0]} generations (must be exactly 1)",
    )


def test_criterion_12_strip_field_pipeline_within_budget():
    started = time.perf_counter()
    scenario = Scenario(resolve_config("model3"))
    scan = scenario.scan()
    chain = scenario.run_chain(scenario.config.seed)
    elapsed = time.perf_counter() - started

    interval_form = bool(scan.intervals) and all(
        np.isfinite([lo, hi]).all() and 300.0 <= lo < hi <= 1000.0
        for lo, hi in scan.intervals
    )
    _crit(
        12,
        interval_form and len(chain) == 10_000 and elapsed <= 1800.0,
        f"60-strip scenario: feasible set {[f'[{a:.1f}, {b:.1f}]' for a, b in scan.intervals]} "
        f"is interval-form; 10000-draw walk done in {elapsed:.0f}s <= 1800s",
    )
