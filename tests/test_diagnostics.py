"""Reference densities, histograms, L2 error, Brooks-Gelman ratio."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tcbayes.diagnostics import (
    CheckpointError,
    Histogram,
    ReferenceDensity,
    brooks_gelman_ratio,
    chain_histogram,
    default_checkpoints,
    diagnostics_summary,
    l2_error_series,
    reference_posterior,
    relative_l2_error,
)
from tcbayes.samplers import MarkovChain, ParticleHistory, run_crw

STD_NORMAL_LOGPOST = lambda t: -0.5 * t * t


def _chain_from(samples: np.ndarray) -> MarkovChain:
    n = samples.shape[0]
    return MarkovChain(
        samples,
        np.ones(n, bool),
        np.ones(n, bool),
        np.zeros(n),
        np.linspace(0.0, 1.0, n),
    )


def test_reference_density_validation():
    grid = np.linspace(0.0, 1.0, 11)
    flat = np.ones(11)
    ReferenceDensity(grid, flat, 1.0)
    with pytest.raises(ValueError):
        ReferenceDensity(grid, 2.0 * flat, 1.0)  # integral 2
    with pytest.raises(ValueError):
        ReferenceDensity(grid, -flat, 1.0)
    with pytest.raises(ValueError):
        ReferenceDensity(grid[::-1], flat, 1.0)


def test_reference_posterior_matches_analytic_normal():
    grid = np.linspace(-8.0, 8.0, 1000)
    ref = reference_posterior(grid, STD_NORMAL_LOGPOST)
    analytic = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    assert float(np.max(np.abs(ref.density - analytic))) <= 1e-4
    assert abs(np.trapezoid(ref.density, grid) - 1.0) <= 1e-8


def test_reference_posterior_indicator_masking():
    grid = np.linspace(-4.0, 4.0, 801)
    ref = reference_posterior(grid, STD_NORMAL_LOGPOST, lambda t: t >= 0.0)
    assert np.all(ref.density[grid < 0.0] == 0.0)
    assert abs(np.trapezoid(ref.density, grid) - 1.0) <= 1e-8
    # renormalized to twice the standard normal on the feasible half, up to
    # the trapezoid bias of the single jump cell (half a cell of mass)
    analytic = 2.0 * np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    mask = grid > 0.0
    assert float(np.max(np.abs(ref.density[mask] - analytic[mask]))) <= 5e-3


def test_reference_posterior_no_mass_raises():
    grid = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="no feasible"):
        reference_posterior(grid, STD_NORMAL_LOGPOST, lambda t: False)


def test_histogram_single_bin_height():
    samples = np.full(100, 0.35)
    hist = chain_histogram(samples, n_bins=10, value_range=(0.0, 1.0), burn_in=0.0)
    assert hist.heights[3] == pytest.approx(10.0, abs=1e-12)  # 1 / bin width
    assert np.all(np.delete(hist.heights, 3) == 0.0)


def test_histogram_uniform_multinomial_bands():
    n = 20_000
    samples = np.random.default_rng(3).uniform(0.0, 1.0, n)
    hist = chain_histogram(samples, n_bins=50, value_range=(0.0, 1.0), burn_in=0.0)
    counts = hist.heights * n * (1.0 / 50)
    p = 1.0 / 50
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3.0 * sigma)


def test_histogram_determinism_and_burn_in():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 5000, 0.0, seed=4)
    a = chain_histogram(chain, 50)
    b = chain_histogram(chain, 50)
    assert np.array_equal(a.heights, b.heights)
    assert np.array_equal(a.edges, b.edges)
    # burn-in drops the first 10% of samples by default
    manual = chain_histogram(chain.samples[500:], 50, burn_in=0.0)
    assert np.array_equal(a.heights, manual.heights)


def test_histogram_empty_after_burn_in():
    with pytest.raises(ValueError):
        chain_histogram(np.array([]), 10, burn_in=0.0)


def test_relative_l2_identities():
    grid = np.linspace(0.0, 2.0, 401)
    tri = np.maximum(0.0, 1.0 - np.abs(grid - 1.0))
    ref = ReferenceDensity(grid, tri / np.trapezoid(tri, grid), 1.0)
    edges = np.linspace(0.25, 1.75, 31)
    matching = Histogram(edges, ref(0.5 * (edges[:-1] + edges[1:])))
    assert relative_l2_error(matching, ref) == 0.0
    doubled = Histogram(edges, 2.0 * matching.heights)
    assert relative_l2_error(doubled, ref) == pytest.approx(1.0, abs=1e-14)


def test_relative_l2_span_check():
    grid = np.linspace(0.0, 1.0, 11)
    ref = ReferenceDensity(grid, np.ones(11), 1.0)
    hist = Histogram(np.linspace(-1.0, 2.0, 4), np.ones(3))
    with pytest.raises(ValueError, match="span"):
        relative_l2_error(hist, ref)


def test_brooks_gelman_identical_chains_exact_one():
    samples = np.random.default_rng(5).standard_normal(4000)
    for k in (2, 3, 4):
        chains = [_chain_from(samples)] * k
        series = brooks_gelman_ratio(chains, 0.95, [100, 4000])
        assert series[-1] == (4000, 1.0)


def test_brooks_gelman_iid_chains_near_one():
    rng = np.random.default_rng(6)
    chains = [_chain_from(rng.standard_normal(5000)) for _ in range(3)]
    series = brooks_gelman_ratio(chains, 0.95, [5000])
    assert 0.95 <= series[0][1] <= 1.05


def test_brooks_gelman_validation():
    samples = np.zeros(10)
    ones = _chain_from(np.arange(10.0))
    with pytest.raises(ValueError):
        brooks_gelman_ratio([ones], 0.95, [5])
    with pytest.raises(ValueError):
        brooks_gelman_ratio([ones, _chain_from(np.arange(10.0))], 0.95, [20])
    with pytest.raises(ValueError):
        brooks_gelman_ratio([ones, _chain_from(np.arange(10.0))], 0.95, [5, 5])
    with pytest.raises(ValueError):
        brooks_gelman_ratio([_chain_from(samples), _chain_from(samples)], 0.95, [10])


def test_l2_error_series_structure():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 20_000, 0.0, seed=7)
    grid = np.linspace(-6.0, 6.0, 2000)
    ref = reference_posterior(grid, STD_NORMAL_LOGPOST)
    series = l2_error_series(chain, ref, [200, 2000, 20_000], value_range=(-4.0, 4.0))
    assert [row[0] for row in series] == [200, 2000, 20_000]
    cpu = [row[2] for row in series]
    assert cpu == sorted(cpu)
    assert series[-1][1] < series[0][1]
    with pytest.raises(ValueError):
        l2_error_series(chain, ref, [30_000])


def test_default_checkpoints():
    pts = default_checkpoints(10_000)
    assert pts[0] >= 1 and pts[-1] == 10_000
    assert pts == sorted(set(pts))
    assert default_checkpoints(50) == [50]


def test_diagnostics_summary_keys():
    chains = [
        run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 3000, 0.0, seed=s) for s in (8, 9)
    ]
    grid = np.linspace(-6.0, 6.0, 2000)
    ref = reference_posterior(grid, STD_NORMAL_LOGPOST)
    summary = diagnostics_summary(chains, ref, value_range=(-4.0, 4.0))
    assert set(summary) >= {
        "acceptance_rate",
        "infeasible_fraction",
        "l2_series",
        "bg_series",
        "n_chains",
        "divergences",
    }
    assert summary["infeasible_fraction"] == 0.0
    assert summary["bg_series"][-1][0] == 3000


def _history(n_particles: int = 10, n_generations: int = 20, seed: int = 0) -> ParticleHistory:
    rng = np.random.default_rng(seed)
    generations = rng.normal(0.0, 1.0, (n_generations + 1, n_particles))
    seconds = [0.5 * (g + 1) for g in range(n_generations)]
    return ParticleHistory(generations, seconds)


def test_l2_error_series_of_a_particle_history():
    history = _history()
    ref = reference_posterior(np.linspace(-6.0, 6.0, 2000), STD_NORMAL_LOGPOST)
    series = l2_error_series(history, ref, [10, 54, 200], n_bins=20, value_range=(-4.0, 4.0))
    # a checkpoint takes round(n / n_particles) generations after the initial ensemble
    assert [row[0] for row in series] == [10, 50, 200]
    assert [row[2] for row in series] == [0.5, 2.5, 10.0]
    prefix = history.generations[1:6].ravel()
    expected = relative_l2_error(chain_histogram(prefix, 20, (-4.0, 4.0)), ref)
    assert series[1][1] == expected
    with pytest.raises(CheckpointError, match="exceeds 200 recorded particle samples"):
        l2_error_series(history, ref, [210])


def test_checkpoint_beyond_a_chain_names_its_length():
    chain = _chain_from(np.linspace(-1.0, 1.0, 300))
    ref = reference_posterior(np.linspace(-6.0, 6.0, 200), STD_NORMAL_LOGPOST)
    with pytest.raises(CheckpointError, match="300 samples"):
        l2_error_series(chain, ref, [100, 400])


def test_diagnostics_summary_of_a_particle_history():
    history = _history()
    ref = reference_posterior(np.linspace(-6.0, 6.0, 2000), STD_NORMAL_LOGPOST)
    summary = diagnostics_summary(
        history, ref, checkpoints=[50, 200], value_range=(-4.0, 4.0), intervals=[(-1.0, 1.0)]
    )
    recorded = history.generations[1:].ravel()
    assert summary["infeasible_fraction"] == float(1.0 - np.mean(np.abs(recorded) <= 1.0))
    assert summary["acceptance_rate"] is None and summary["bg_series"] is None
    assert summary["n_chains"] == 1 and summary["n_samples"] == 200
    assert summary["l2_series"] == [
        list(row) for row in l2_error_series(history, ref, [50, 200], value_range=(-4.0, 4.0))
    ]
    # a one-element list is the same run
    assert diagnostics_summary(
        [history], ref, checkpoints=[50, 200], value_range=(-4.0, 4.0), intervals=[(-1.0, 1.0)]
    ) == summary
    with pytest.raises(ValueError, match="feasible intervals"):
        diagnostics_summary(history, ref)
    with pytest.raises(ValueError, match="on its own"):
        diagnostics_summary([history, history], ref, intervals=[(-1.0, 1.0)])
