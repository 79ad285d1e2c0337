"""Constrained samplers over a scalar parameter.

Four strategies for sampling a posterior restricted to a feasible set S:

* ``run_crw``: random-walk Metropolis with a hard feasibility indicator in
  the acceptance probability; every stored sample lies in S.
* ``run_chmc``: Hamiltonian Monte Carlo driven by a penalty-modified
  gradient; feasibility is recorded per sample but never enforced, so the
  chain may leave S (the penalty only discourages it).
* ``run_csvgd``: Stein variational gradient descent with an RBF kernel
  (median-bandwidth heuristic) and an AdaGrad-style step adaption; the
  penalty enters through the supplied gradient, particles are never
  rejected.
* ``run_projected_svgd``: gradient-step particles whose proposed positions
  are projected onto S each generation, so the ensemble is feasible at all
  times.

Each sampler returns a complete run record and times itself in whole
``perf_counter_ns`` nanoseconds over 1e9 from the start of its loop. A
``MarkovChain`` holds one wall time per step and a ``ParticleHistory`` one
per update, both in ``cumulative_seconds``, the column name of their CSV
files. A record holds only what is read back, not the seed or step size
that made it. The two particle samplers share one ensemble loop.

``penalized_gradient`` builds the penalty samplers' gradient from the
scanned feasible intervals, next to ``interval_membership`` and
``interval_projection``, the other helpers over those intervals.

``postprocess_feasible`` filters a finished chain through a feasibility
oracle; the result keeps only feasible samples and is explicitly flagged as
no longer being a Markov chain.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv

__all__ = [
    "InfeasibleStartError",
    "MarkovChain",
    "ParticleHistory",
    "run_crw",
    "run_chmc",
    "run_csvgd",
    "run_projected_svgd",
    "postprocess_feasible",
    "interval_projection",
    "interval_membership",
    "penalized_gradient",
]

CHAIN_CSV_HEADER = ("index", "theta", "accepted", "feasible", "log_post", "cumulative_seconds")
PARTICLE_CSV_HEADER = ("generation", "particle_index", "theta", "cumulative_seconds")
# cSVGD's AdaGrad-with-momentum step: accumulator decay and the guard on its root
ADAGRAD_DECAY = 0.9
ADAGRAD_FUDGE = 1e-6


class InfeasibleStartError(ValueError):
    """A hard-constrained chain was asked to start outside the feasible set."""


@dataclass(frozen=True)
class MarkovChain:
    """A finished chain plus per-sample bookkeeping.

    A rejected step stores the repeated previous sample with accepted=False.
    ``is_markov`` is False for post-processed (filtered) chains, which no
    longer have the Markov property.
    """

    samples: np.ndarray
    accepted: np.ndarray
    feasible: np.ndarray
    log_post: np.ndarray
    cumulative_seconds: np.ndarray
    divergences: int = 0
    is_markov: bool = True
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "accepted", np.asarray(self.accepted, dtype=bool))
        object.__setattr__(self, "feasible", np.asarray(self.feasible, dtype=bool))
        object.__setattr__(self, "log_post", np.asarray(self.log_post, dtype=float))
        object.__setattr__(
            self, "cumulative_seconds", np.asarray(self.cumulative_seconds, dtype=float)
        )
        n = self.samples.shape[0]
        for name in ("accepted", "feasible", "log_post", "cumulative_seconds"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length does not match samples")

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted)) if len(self) else 0.0

    @property
    def feasible_fraction(self) -> float:
        return float(np.mean(self.feasible)) if len(self) else 0.0

    def to_csv(self, path: str) -> None:
        columns = (
            np.arange(len(self)), self.samples, self.accepted, self.feasible,
            self.log_post, self.cumulative_seconds,
        )
        write_csv(path, CHAIN_CSV_HEADER, columns)


@dataclass(frozen=True)
class ParticleHistory:
    """Particle trajectories of an SVGD-style run.

    ``generations`` has shape (n_generations + 1, n_particles); row 0 is the
    initial ensemble. ``cumulative_seconds`` is the wall time after each
    update, counted from the start of the sampler's loop.
    """

    generations: np.ndarray
    cumulative_seconds: np.ndarray

    def __post_init__(self) -> None:
        gens = np.asarray(self.generations, dtype=float)
        if gens.ndim != 2:
            raise ValueError("generations must be a 2-d array (generation, particle)")
        seconds = np.asarray(self.cumulative_seconds, dtype=float)
        if seconds.shape != (gens.shape[0] - 1,):
            raise ValueError("need one cumulative time per update")
        object.__setattr__(self, "generations", gens)
        object.__setattr__(self, "cumulative_seconds", seconds)

    def __len__(self) -> int:
        """The number of updates, one per recorded time."""
        return self.n_generations

    @property
    def n_particles(self) -> int:
        return int(self.generations.shape[1])

    @property
    def n_generations(self) -> int:
        return int(self.generations.shape[0] - 1)

    @property
    def final(self) -> np.ndarray:
        return self.generations[-1]

    def flatten(self, discard_fraction: float = 0.0) -> np.ndarray:
        """All particle positions after discarding an initial fraction of updates."""
        if not 0.0 <= discard_fraction < 1.0:
            raise ValueError("discard_fraction must be in [0, 1)")
        start = int(math.floor(discard_fraction * self.generations.shape[0]))
        return self.generations[start:].ravel()

    def to_csv(self, path: str) -> None:
        """One row per particle and generation; the wall time is 0.0 for the
        initial ensemble."""
        n_rows, n = self.generations.shape
        times = np.concatenate(([0.0], self.cumulative_seconds))
        columns = (
            np.repeat(np.arange(n_rows), n), np.tile(np.arange(n), n_rows),
            self.generations.ravel(), np.repeat(times, n),
        )
        write_csv(path, PARTICLE_CSV_HEADER, columns)


def run_crw(
    posterior,
    feasibility_oracle,
    proposal_std: float,
    n_samples: int,
    theta_init: float,
    seed: int,
) -> MarkovChain:
    """Random-walk Metropolis with acceptance chi_S(theta*) * min(1, ratio).

    A proposal outside S is rejected outright (the indicator factor), so
    every stored sample is feasible. Requires a feasible starting point.
    """
    if not proposal_std > 0.0:
        raise ValueError("proposal_std must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not feasibility_oracle(theta_init):
        raise InfeasibleStartError(
            "theta_init is infeasible; run scan_feasible_boundary to locate "
            "the feasible set and pick a starting point inside it"
        )
    rng = np.random.default_rng(seed)
    normal, uniform, log, clock = rng.standard_normal, rng.random, math.log, time.perf_counter_ns
    theta = float(theta_init)
    lp = float(posterior(theta))

    samples = np.empty(n_samples)
    accepted = np.zeros(n_samples, dtype=bool)
    log_post = np.empty(n_samples)
    stamps = np.empty(n_samples, dtype=np.int64)
    t0 = clock()
    for i in range(n_samples):
        proposal = theta + proposal_std * normal()
        if feasibility_oracle(proposal):
            lp_prop = float(posterior(proposal))
            if log(uniform()) < lp_prop - lp:
                theta, lp = proposal, lp_prop
                accepted[i] = True
        samples[i] = theta
        log_post[i] = lp
        stamps[i] = clock()
    return MarkovChain(samples, accepted, np.ones(n_samples, dtype=bool), log_post, (stamps - t0) / 1e9)


def _leapfrog(theta, momentum, grad, step, n_steps, mass):
    g = grad(theta)
    momentum = momentum + 0.5 * step * g
    for k in range(n_steps):
        theta = theta + step * momentum / mass
        g = grad(theta)
        if k < n_steps - 1:
            momentum = momentum + step * g
    momentum = momentum + 0.5 * step * g
    return theta, momentum


def run_chmc(
    posterior,
    penalized_grad,
    mass: float,
    step: float,
    max_leapfrog: int,
    n_samples: int,
    theta_init: float,
    seed: int,
    feasibility_oracle=None,
) -> MarkovChain:
    """HMC with a penalty-modified gradient; feasibility recorded, not enforced.

    Momentum is drawn from N(0, mass) and the leapfrog length uniformly from
    {1..max_leapfrog} each iteration. A non-finite Hamiltonian rejects the
    proposal and increments the divergence counter.
    """
    if not (mass > 0.0 and step > 0.0):
        raise ValueError("mass and step must be positive")
    if max_leapfrog < 1:
        raise ValueError("max_leapfrog must be >= 1")
    rng = np.random.default_rng(seed)
    theta = float(theta_init)
    lp = float(posterior(theta))
    mom_std = math.sqrt(mass)

    samples = np.empty(n_samples)
    accepted = np.zeros(n_samples, dtype=bool)
    log_post = np.empty(n_samples)
    seconds = np.empty(n_samples)
    divergences = 0
    t0 = time.perf_counter_ns()
    for i in range(n_samples):
        momentum = mom_std * rng.standard_normal()
        n_leap = int(rng.integers(1, max_leapfrog + 1))
        h_old = -lp + momentum**2 / (2.0 * mass)
        theta_new, mom_new = _leapfrog(theta, momentum, penalized_grad, step, n_leap, mass)
        if math.isfinite(theta_new) and math.isfinite(mom_new):
            lp_new = float(posterior(theta_new))
            h_new = -lp_new + mom_new**2 / (2.0 * mass)
        else:
            h_new = math.inf
        if not math.isfinite(h_new):
            divergences += 1
        elif math.log(rng.random()) < h_old - h_new:
            theta, lp = theta_new, lp_new
            accepted[i] = True
        samples[i] = theta
        log_post[i] = lp
        seconds[i] = (time.perf_counter_ns() - t0) / 1e9

    if feasibility_oracle is None:
        feasible = np.ones(n_samples, dtype=bool)
    else:
        feasible = np.fromiter(
            (bool(feasibility_oracle(t)) for t in samples), dtype=bool, count=n_samples
        )
    return MarkovChain(samples, accepted, feasible, log_post, seconds, divergences=divergences)


def _stein_direction(particles: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Stein direction under the RBF kernel with the median-heuristic bandwidth."""
    sq_dists = (particles[:, None] - particles[None, :]) ** 2
    h = float(np.median(sq_dists)) / math.log(particles.size + 1)
    if h <= 0.0:
        h = 1.0
    kernel = np.exp(-sq_dists / h)
    attraction = kernel @ grads
    repulsion = (2.0 / h) * (particles * kernel.sum(axis=1) - kernel @ particles)
    return (attraction + repulsion) / particles.size


def _run_ensemble(update, n_particles, n_generations, initial_particles, seed, start=None):
    """The particle samplers' loop: ``initial_particles`` (copied) or seeded
    standard normal draws, mapped by ``start`` before the clock starts, then
    ``update`` of the last generation, each recorded with its wall time."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if n_generations < 1:
        raise ValueError("n_generations must be >= 1")
    if initial_particles is None:
        particles = np.random.default_rng(seed).standard_normal(n_particles)
    else:
        particles = np.asarray(initial_particles, dtype=float).copy()
        if particles.shape != (n_particles,):
            raise ValueError("initial_particles must have shape (n_particles,)")
    if start is not None:
        particles = np.asarray(start(particles), dtype=float)

    generations = np.empty((n_generations + 1, n_particles))
    generations[0] = particles
    seconds = np.empty(n_generations)
    t0 = time.perf_counter_ns()
    for gen in range(n_generations):
        particles = update(particles)
        generations[gen + 1] = particles
        seconds[gen] = (time.perf_counter_ns() - t0) / 1e9
    return ParticleHistory(generations, seconds)


def run_csvgd(
    log_post_gradient_penalized,
    n_particles: int,
    n_generations: int,
    initial_particles=None,
    step_size: float = 0.1,
    seed: int = 0,
) -> ParticleHistory:
    """Stein variational descent with penalized gradients.

    The gradient callable receives the whole particle array and returns the
    per-particle gradient array. All kernel terms are computed from the
    frozen generation state and the update is applied synchronously. Step
    adaption follows the AdaGrad-with-momentum rule of the reference SVGD
    implementation: the first generation seeds the accumulator with the
    squared direction, later generations decay it by ``ADAGRAD_DECAY``.
    """
    accumulator = None

    def update(particles):
        nonlocal accumulator
        grads = np.asarray(log_post_gradient_penalized(particles), dtype=float)
        direction = _stein_direction(particles, grads)
        if accumulator is None:
            accumulator = direction**2
        else:
            accumulator = ADAGRAD_DECAY * accumulator + (1.0 - ADAGRAD_DECAY) * direction**2
        return particles + step_size * direction / (ADAGRAD_FUDGE + np.sqrt(accumulator))

    return _run_ensemble(update, n_particles, n_generations, initial_particles, seed)


def interval_projection(intervals):
    """Clamp projector onto a union of closed intervals (nearest point).

    Returns a callable mapping scalars or arrays onto the feasible set.
    """
    spans = tuple((float(lo), float(hi)) for lo, hi in intervals)
    if not spans:
        raise ValueError("cannot project onto an empty feasible set")
    for lo, hi in spans:
        if not lo <= hi:
            raise ValueError("interval endpoints must satisfy lo <= hi")

    def project(theta):
        arr = np.asarray(theta, dtype=float)
        candidates = np.stack([np.clip(arr, lo, hi) for lo, hi in spans])
        best = np.argmin(np.abs(candidates - arr), axis=0)
        out = np.take_along_axis(candidates, best[None, ...], axis=0)[0]
        if np.isscalar(theta) or getattr(theta, "ndim", 1) == 0:
            return float(out)
        return out

    return project


def interval_membership(intervals):
    """Membership test for a union of closed intervals.

    Returns a callable giving a bool for a scalar and a bool array for an
    array. A scalar takes plain comparisons and builds no array, since
    samplers call it once per step.
    """
    spans = tuple((float(lo), float(hi)) for lo, hi in intervals)

    def member(theta):
        # isinstance is quick to say yes and slow to say no: a float asks once
        if not isinstance(theta, float) and isinstance(theta, np.ndarray):
            inside = np.zeros(theta.shape, dtype=bool)
            for lo, hi in spans:
                inside |= (theta >= lo) & (theta <= hi)
            return inside
        for lo, hi in spans:
            if lo <= theta <= hi:
                return True
        return False

    return member


def penalized_gradient(grad, feasibility, intervals, delta: float, support=None):
    """Scalar gradient of a penalty sampler: ``grad`` nudged toward S.

    Where ``feasibility(theta)`` holds the result is ``grad(theta)``.
    Elsewhere ``delta`` times the sign (+1/-1) pointing toward the nearest
    of ``intervals`` is added (0 when there is no interval). Past either end
    of ``support`` = (low, high), the prior's support, the result is pushed
    back by ``delta`` so that penalty-driven moves do not drift out of it.
    A delta of 0 returns ``grad`` itself.
    """
    if delta == 0.0:
        return grad
    spans = tuple((float(lo), float(hi)) for lo, hi in intervals)
    low, high = (-math.inf, math.inf) if support is None else support

    def toward(theta: float) -> float:
        best = None
        for lo, hi in spans:
            if lo <= theta <= hi:
                return 0.0
            dist = lo - theta if theta < lo else theta - hi
            if best is None or dist < best[0]:
                best = (dist, 1.0 if theta < lo else -1.0)
        return 0.0 if best is None else best[1]

    def penalized(theta: float) -> float:
        value = grad(theta)
        if not feasibility(theta):
            value = value + delta * toward(theta)
        if theta > high:
            value -= delta
        elif theta < low:
            value += delta
        return value

    return penalized


def run_projected_svgd(
    log_post_gradient,
    projection_onto_S,
    n_particles: int,
    n_generations: int,
    initial_particles=None,
    step_size: float = 0.1,
    seed: int = 0,
) -> ParticleHistory:
    """Particles take gradient steps whose targets are projected onto S.

    Per particle: y = theta + grad log pi(theta), d = Pr(y) - theta, then
    theta <- theta + step * d. Initial particles are projected first, and
    the update is re-projected as a safeguard for non-convex S, so every
    recorded generation is feasible.
    """

    def update(particles):
        grads = np.asarray(log_post_gradient(particles), dtype=float)
        targets = np.asarray(projection_onto_S(particles + grads), dtype=float)
        particles = particles + step_size * (targets - particles)
        return np.asarray(projection_onto_S(particles), dtype=float)

    return _run_ensemble(
        update, n_particles, n_generations, initial_particles, seed, start=projection_onto_S
    )


def postprocess_feasible(chain: MarkovChain, feasibility_oracle) -> MarkovChain:
    """Keep only feasible samples; the result is flagged as not a Markov chain."""
    mask = np.fromiter(
        (bool(feasibility_oracle(t)) for t in chain.samples), dtype=bool, count=len(chain)
    )
    kept = int(mask.sum())
    metadata = dict(chain.metadata)
    metadata.update(
        {
            "postprocessed": True,
            "original_length": len(chain),
            "removed": len(chain) - kept,
        }
    )
    return MarkovChain(
        chain.samples[mask],
        chain.accepted[mask],
        np.ones(kept, dtype=bool),
        chain.log_post[mask],
        chain.cumulative_seconds[mask],
        divergences=chain.divergences,
        is_markov=False,
        metadata=metadata,
    )
