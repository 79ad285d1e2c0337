"""Reference densities, histograms, L2 error, and convergence diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samplers import MarkovChain, ParticleHistory

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
        lines = ["theta,density"]
        lines.extend(f"{float(t)!r},{float(d)!r}" for t, d in zip(self.grid, self.density))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def reference_posterior(grid, log_unconstrained_posterior, feasibility_oracle=None) -> ReferenceDensity:
    """Pointwise chi_S(theta) * exp(logpost(theta)), trapezoid-normalized.

    The log values are shifted by their feasible maximum before
    exponentiation so the normalizer stays representable.
    """
    grid = np.asarray(grid, dtype=float)
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
        lines = ["bin_left,bin_right,height"]
        lines.extend(
            f"{float(self.edges[i])!r},{float(self.edges[i + 1])!r},{float(self.heights[i])!r}"
            for i in range(self.heights.shape[0])
        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _extract_samples(chain, burn_in: float) -> np.ndarray:
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
    samples = _extract_samples(chain, burn_in)
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
        raise CheckpointError("checkpoints must lie in [1, shortest chain length]")
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


def l2_error_series(
    chain: MarkovChain,
    reference: ReferenceDensity,
    checkpoints,
    n_bins: int = DEFAULT_N_BINS,
    value_range: tuple[float, float] | None = None,
    burn_in: float = DEFAULT_BURN_IN,
) -> list[tuple[int, float, float]]:
    """(n_samples, relative L2 error, cumulative wall seconds) per checkpoint."""
    series = []
    for n in checkpoints:
        n = int(n)
        if n < 1 or n > len(chain):
            raise CheckpointError("checkpoint exceeds chain length")
        hist = chain_histogram(chain.samples[:n], n_bins, value_range, burn_in)
        err = relative_l2_error(hist, reference)
        series.append((n, err, float(chain.cumulative_seconds[n - 1])))
    return series


def default_checkpoints(n_samples: int, n_points: int = 10, start: int = 100) -> list[int]:
    """Log-spaced sample-count checkpoints up to n_samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    start = min(start, n_samples)
    pts = np.geomspace(start, n_samples, n_points)
    return sorted(set(int(round(p)) for p in pts))


def diagnostics_summary(
    chains,
    reference: ReferenceDensity | None = None,
    checkpoints=None,
    n_bins: int = DEFAULT_N_BINS,
    value_range: tuple[float, float] | None = None,
    burn_in: float = DEFAULT_BURN_IN,
    confidence: float = DEFAULT_CONFIDENCE,
) -> dict:
    """JSON-ready run summary: L2 series, BG series, acceptance, feasibility."""
    chains = list(chains)
    if not chains:
        raise ValueError("need at least one chain")
    lead = chains[0]
    if checkpoints is None:
        checkpoints = default_checkpoints(min(len(c) for c in chains))
    summary: dict = {
        "acceptance_rate": float(np.mean([c.acceptance_rate for c in chains])),
        "infeasible_fraction": float(np.mean([1.0 - c.feasible_fraction for c in chains])),
        "n_chains": len(chains),
        "n_samples": len(lead),
        "divergences": int(sum(c.divergences for c in chains)),
    }
    if reference is not None:
        summary["l2_series"] = [
            list(row)
            for row in l2_error_series(lead, reference, checkpoints, n_bins, value_range, burn_in)
        ]
    if len(chains) >= 2:
        summary["bg_series"] = [
            list(row) for row in brooks_gelman_ratio(chains, confidence, checkpoints)
        ]
    return summary
