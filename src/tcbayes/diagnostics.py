"""Reference densities, histograms, L2 error, and convergence diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .bayes import Posterior
from .samplers import MarkovChain, ParticleHistory, interval_membership

DEFAULT_N_BINS = 50
DEFAULT_REFERENCE_NODES = 2000
DEFAULT_BURN_IN = 0.1
DEFAULT_CONFIDENCE = 0.95


class CheckpointError(ValueError):
    """Requested sample-count checkpoints do not fit the chains."""


@dataclass(frozen=True)
class ReferenceDensity:
    """Normalized density on a grid, used as ground truth for histograms."""

    grid: np.ndarray
    density: np.ndarray
    normalizer: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be 1-d and strictly increasing")
        if dens.shape != grid.shape:
            raise ValueError("density shape must match grid")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise ValueError("density must be finite and nonnegative")
        if abs(np.trapezoid(dens, grid) - 1.0) > 1e-8:
            raise ValueError("density must integrate to 1 (trapezoid rule)")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)

    def __call__(self, theta) -> np.ndarray:
        return np.interp(theta, self.grid, self.density)

    def to_csv(self, path: str) -> None:
        write_csv(path, ("theta", "density"), (self.grid, self.density))


def reference_posterior(grid, log_unconstrained_posterior, feasibility_oracle=None) -> ReferenceDensity:
    """Pointwise chi_S(theta) * exp(logpost(theta)), trapezoid-normalized.

    A ``bayes.Posterior`` takes the grid in one call, any other callable one call a node.
    The log values are shifted by their feasible maximum before
    exponentiation so the normalizer stays representable.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(log_unconstrained_posterior, Posterior):
        log_vals = log_unconstrained_posterior(grid)
    else:
        log_vals = np.array([float(log_unconstrained_posterior(t)) for t in grid])
    if feasibility_oracle is None:
        feasible = np.ones(grid.shape, dtype=bool)
    else:
        feasible = np.array([bool(feasibility_oracle(t)) for t in grid])
    feasible &= np.isfinite(log_vals)
    if not np.any(feasible):
        raise ValueError("no feasible posterior mass on the grid")
    shift = float(np.max(log_vals[feasible]))
    unnorm = np.where(feasible, np.exp(log_vals - shift), 0.0)
    normalizer = float(np.trapezoid(unnorm, grid))
    if normalizer <= 0.0:
        raise ValueError("no feasible posterior mass on the grid")
    return ReferenceDensity(grid, unnorm / normalizer, normalizer)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    heights: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        if heights.shape[0] != edges.shape[0] - 1:
            raise ValueError("need one height per bin")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "heights", heights)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def to_csv(self, path: str) -> None:
        write_csv(
            path, ("bin_left", "bin_right", "height"), (self.edges[:-1], self.edges[1:], self.heights)
        )


def burned_in_samples(chain, burn_in: float) -> np.ndarray:
    """The samples of a chain, particle history or array after burn-in: a
    chain or array drops its first floor(burn_in * n) draws, a particle
    history its first generations (``ParticleHistory.flatten``)."""
    if not 0.0 <= burn_in < 1.0:
        raise ValueError("burn_in must be in [0, 1)")
    if isinstance(chain, MarkovChain):
        samples = chain.samples
    elif isinstance(chain, ParticleHistory):
        return chain.flatten(burn_in)
    else:
        samples = np.asarray(chain, dtype=float)
    start = int(math.floor(burn_in * samples.shape[0]))
    return samples[start:]


def chain_histogram(
    chain,
    n_bins: int = DEFAULT_N_BINS,
    value_range: tuple[float, float] | None = None,
    burn_in: float = DEFAULT_BURN_IN,
) -> Histogram:
    """Density-normalized histogram of a chain, particle history, or array."""
    samples = burned_in_samples(chain, burn_in)
    if samples.size == 0:
        raise ValueError("no samples left after burn-in")
    heights, edges = np.histogram(samples, bins=n_bins, range=value_range, density=True)
    return Histogram(edges, heights)


def relative_l2_error(histogram: Histogram, reference: ReferenceDensity) -> float:
    """sqrt(sum (h_i - p_i)^2) / sqrt(sum p_i^2) at the bin midpoints.

    The reference density is linearly interpolated at each midpoint.
    """
    mid = histogram.midpoints
    if mid[0] < reference.grid[0] or mid[-1] > reference.grid[-1]:
        raise ValueError("reference grid does not span the histogram range")
    ref_vals = reference(mid)
    denom = math.sqrt(float(np.sum(ref_vals**2)))
    if denom == 0.0:
        raise ValueError("reference density vanishes at every midpoint")
    return math.sqrt(float(np.sum((histogram.heights - ref_vals) ** 2))) / denom


def _interval_width(samples: np.ndarray, confidence: float) -> float:
    tail = 0.5 * (1.0 - confidence)
    lo, hi = np.quantile(samples, [tail, 1.0 - tail], method="inverted_cdf")
    return float(hi - lo)


def brooks_gelman_ratio(
    chains,
    confidence: float = DEFAULT_CONFIDENCE,
    checkpoints=None,
) -> list[tuple[int, float]]:
    """Interval-based convergence series: within-chain width over pooled width.

    At checkpoint n the numerator is the mean width of the per-chain central
    confidence intervals built from the first n samples; the denominator is
    the width of the pooled interval over all chains at full length.
    Empirical quantiles use the inverted-CDF estimator, so identical chains
    give a ratio of exactly 1 at the final checkpoint.
    """
    arrays = [c.samples if isinstance(c, MarkovChain) else np.asarray(c, float) for c in chains]
    if len(arrays) < 2:
        raise ValueError("need at least two chains")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n_min = min(a.shape[0] for a in arrays)
    if checkpoints is None:
        checkpoints = [n_min]
    checkpoints = [int(n) for n in checkpoints]
    if any(n < 1 or n > n_min for n in checkpoints):
        raise CheckpointError(f"checkpoints must lie in [1, {n_min}], the shortest chain's samples")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise CheckpointError("checkpoints must be increasing")
    pooled = _interval_width(np.concatenate(arrays), confidence)
    if pooled == 0.0:
        raise ValueError("pooled interval has zero width")
    series = []
    for n in checkpoints:
        within = float(np.mean([_interval_width(a[:n], confidence) for a in arrays]))
        series.append((n, within / pooled))
    return series


def _checkpoint_prefix(run, n: int) -> tuple[int, np.ndarray, float]:
    """(sample count, samples, wall seconds) behind checkpoint n.

    A chain gives its first n samples. A particle history gives the
    round(n / n_particles) generations after the initial ensemble (at
    least one).
    """
    if isinstance(run, ParticleHistory):
        gen = max(1, int(round(n / run.n_particles)))
        if gen > run.n_generations:
            raise CheckpointError(
                f"checkpoint {n} exceeds {run.n_particles * run.n_generations} "
                "recorded particle samples"
            )
        wall = float(run.cumulative_seconds[gen - 1])
        return gen * run.n_particles, run.generations[1 : gen + 1].ravel(), wall
    if n < 1 or n > len(run):
        raise CheckpointError(f"checkpoint {n} exceeds the chain's {len(run)} samples")
    return n, run.samples[:n], float(run.cumulative_seconds[n - 1])


def l2_error_series(
    run,
    reference: ReferenceDensity,
    checkpoints,
    n_bins: int = DEFAULT_N_BINS,
    value_range: tuple[float, float] | None = None,
    burn_in: float = DEFAULT_BURN_IN,
) -> list[tuple[int, float, float]]:
    """(n_samples, relative L2 error, wall seconds) per checkpoint of a
    chain or a particle history."""
    series = []
    for n in checkpoints:
        n, samples, wall = _checkpoint_prefix(run, int(n))
        hist = chain_histogram(samples, n_bins, value_range, burn_in)
        series.append((n, relative_l2_error(hist, reference), wall))
    return series


def default_checkpoints(n_samples: int, n_points: int = 10, start: int = 100) -> list[int]:
    """Log-spaced sample-count checkpoints up to n_samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    start = min(start, n_samples)
    pts = np.geomspace(start, n_samples, n_points)
    return sorted(set(int(round(p)) for p in pts))


def diagnostics_summary(
    runs,
    reference: ReferenceDensity | None = None,
    checkpoints=None,
    n_bins: int = DEFAULT_N_BINS,
    value_range: tuple[float, float] | None = None,
    burn_in: float = DEFAULT_BURN_IN,
    confidence: float = DEFAULT_CONFIDENCE,
    intervals=None,
) -> dict:
    """JSON-ready run summary: L2 series, BG series, acceptance, feasibility.

    ``runs`` is a list of chains or one particle history (alone or as a
    one-element list). The L2 series is of the first run (``runs[0]``)
    only, however many chains there are. A particle history has no
    acceptance rate and no BG series; its infeasible fraction counts the
    particles recorded after the initial ensemble that lie outside
    ``intervals``.
    """
    runs = [runs] if isinstance(runs, ParticleHistory) else list(runs)
    if not runs:
        raise ValueError("need at least one chain")
    lead = runs[0]
    if isinstance(lead, ParticleHistory):
        if len(runs) != 1:
            raise ValueError("a particle history is summarized on its own")
        if intervals is None:
            raise ValueError("a particle history needs the feasible intervals")
        total = lead.n_particles * lead.n_generations
        if checkpoints is None:
            checkpoints = default_checkpoints(total, start=lead.n_particles)
        feasible = interval_membership(intervals)(lead.generations[1:].ravel())
        summary: dict = {
            "acceptance_rate": None,
            "bg_series": None,
            "infeasible_fraction": float(1.0 - feasible.mean()),
            "n_chains": 1,
            "n_samples": total,
        }
    else:
        if not all(isinstance(c, MarkovChain) for c in runs):
            raise ValueError("runs must be chains or one particle history")
        if checkpoints is None:
            checkpoints = default_checkpoints(min(len(c) for c in runs))
        summary = {
            "acceptance_rate": float(np.mean([c.acceptance_rate for c in runs])),
            "infeasible_fraction": float(np.mean([1.0 - c.feasible_fraction for c in runs])),
            "n_chains": len(runs),
            "n_samples": len(lead),
            "divergences": int(sum(c.divergences for c in runs)),
        }
    if reference is not None:
        summary["l2_series"] = [
            list(row)
            for row in l2_error_series(lead, reference, checkpoints, n_bins, value_range, burn_in)
        ]
    if len(runs) >= 2:
        summary["bg_series"] = [
            list(row) for row in brooks_gelman_ratio(runs, confidence, checkpoints)
        ]
    return summary
