"""Constrained samplers: moments, feasibility contracts, reproducibility."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from tcbayes.diagnostics import chain_histogram, reference_posterior, relative_l2_error
from tcbayes.samplers import (
    ADAGRAD_DECAY,
    ADAGRAD_FUDGE,
    InfeasibleStartError,
    MarkovChain,
    ParticleHistory,
    interval_membership,
    interval_projection,
    penalized_gradient,
    postprocess_feasible,
    run_chmc,
    run_crw,
    run_csvgd,
    run_projected_svgd,
    _stein_direction,
)

STD_NORMAL_LOGPOST = lambda t: -0.5 * t * t
STD_NORMAL_GRAD = lambda t: -t


def test_crw_unconstrained_moments():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 100_000, 0.0, seed=1)
    assert abs(np.mean(chain.samples)) <= 0.02
    assert abs(np.var(chain.samples) - 1.0) <= 0.05
    assert np.all(chain.feasible)


def test_crw_infeasible_proposal_repeats_sample():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: t <= 0.0, 5.0, 2000, -0.5, seed=2)
    assert np.all(chain.samples <= 0.0)
    rejected = ~chain.accepted
    # a rejected step (feasible or not) repeats the previous value
    prev = np.concatenate([[-0.5], chain.samples[:-1]])
    assert np.all(chain.samples[rejected] == prev[rejected])
    assert np.any(rejected)


def test_crw_infeasible_init_raises_with_hint():
    with pytest.raises(ValueError, match="scan_feasible_boundary"):
        run_crw(STD_NORMAL_LOGPOST, lambda t: t >= 0.5, 1.0, 10, 0.0, seed=0)


def test_crw_infeasible_init_raises_typed_error():
    assert issubclass(InfeasibleStartError, ValueError)
    with pytest.raises(InfeasibleStartError):
        run_crw(STD_NORMAL_LOGPOST, lambda t: t >= 0.5, 1.0, 10, 0.0, seed=0)


def test_crw_truncated_normal_histogram():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: t >= 0.5, 1.2, 100_000, 1.0, seed=2)
    grid = np.linspace(0.5, 6.0, 2000)
    reference = reference_posterior(grid, STD_NORMAL_LOGPOST, lambda t: t >= 0.5)
    hist = chain_histogram(chain, 50)
    assert relative_l2_error(hist, reference) <= 0.05


def test_crw_validation():
    with pytest.raises(ValueError):
        run_crw(STD_NORMAL_LOGPOST, lambda t: True, 0.0, 10, 0.0, seed=0)
    with pytest.raises(ValueError):
        run_crw(STD_NORMAL_LOGPOST, lambda t: True, 1.0, 0, 0.0, seed=0)


def test_chmc_unconstrained_moments():
    chain = run_chmc(
        STD_NORMAL_LOGPOST, STD_NORMAL_GRAD, 1.0, 0.3, 20, 20_000, 0.0, seed=0
    )
    assert abs(np.mean(chain.samples)) <= 0.02
    assert abs(np.var(chain.samples) - 1.0) <= 0.05
    assert chain.divergences == 0


def test_chmc_zero_gradient_accepts_everything():
    # flat posterior, zero gradient: the Hamiltonian is conserved exactly
    chain = run_chmc(lambda t: 0.0, lambda t: 0.0, 1.0, 0.5, 5, 500, 0.0, seed=4)
    assert chain.acceptance_rate == 1.0


def test_chmc_divergences_counted_and_rejected():
    chain = run_chmc(
        STD_NORMAL_LOGPOST, lambda t: math.inf, 1.0, 0.1, 3, 50, 0.0, seed=5
    )
    assert chain.divergences == 50
    assert not np.any(chain.accepted)
    assert np.all(chain.samples == 0.0)


def test_chmc_penalty_reduces_infeasible_fraction():
    oracle = lambda t: t >= 0.5

    def grad_with(delta):
        return penalized_gradient(STD_NORMAL_GRAD, oracle, ((0.5, math.inf),), delta)

    kwargs = dict(mass=1.0, step=0.2, max_leapfrog=15, n_samples=4000, theta_init=1.0, seed=6)
    plain = run_chmc(STD_NORMAL_LOGPOST, grad_with(0.0), feasibility_oracle=oracle, **kwargs)
    penal = run_chmc(STD_NORMAL_LOGPOST, grad_with(8.0), feasibility_oracle=oracle, **kwargs)
    assert 1.0 - penal.feasible_fraction < 1.0 - plain.feasible_fraction


def test_chmc_validation():
    for bad in [dict(mass=0.0), dict(step=0.0), dict(max_leapfrog=0)]:
        kwargs = dict(mass=1.0, step=0.1, max_leapfrog=5, n_samples=5, theta_init=0.0, seed=0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            run_chmc(STD_NORMAL_LOGPOST, STD_NORMAL_GRAD, **kwargs)


def test_csvgd_single_mode_mean():
    history = run_csvgd(lambda ts: -ts, 100, 500, seed=0)
    assert abs(float(np.mean(history.final))) <= 0.05
    assert history.generations.shape == (501, 100)


def test_csvgd_one_particle_is_gradient_ascent():
    history = run_csvgd(lambda ts: -ts, 1, 20, initial_particles=np.array([3.0]), seed=0)
    traj = history.generations[:, 0]
    assert np.all(np.diff(traj) < 0.0)
    assert 0.5 < traj[-1] < 1.5


def test_csvgd_penalty_reduces_infeasible_particles():
    def grad_with(delta):
        grad = penalized_gradient(STD_NORMAL_GRAD, lambda t: t >= 0.5, ((0.5, math.inf),), delta)
        return lambda ts: np.array([grad(t) for t in ts])

    init = np.random.default_rng(7).standard_normal(100)
    plain = run_csvgd(grad_with(0.0), 100, 300, initial_particles=init, seed=7)
    penal = run_csvgd(grad_with(10.0), 100, 300, initial_particles=init, seed=7)
    n_plain = int(np.sum(plain.final < 0.5))
    n_penal = int(np.sum(penal.final < 0.5))
    assert n_penal < n_plain


def test_csvgd_validation():
    with pytest.raises(ValueError):
        run_csvgd(lambda ts: -ts, 0, 5, seed=0)
    with pytest.raises(ValueError):
        run_csvgd(lambda ts: -ts, 3, 5, initial_particles=np.zeros(4), seed=0)


def test_projection_operator():
    project = interval_projection(((0.0, 1.0), (5.0, 6.0)))
    assert project(0.5) == 0.5
    assert project(-2.0) == 0.0
    assert project(4.9) == 5.0
    assert project(2.0) == 1.0  # nearest interval wins
    arr = project(np.array([0.5, -2.0, 4.9, 7.0]))
    assert np.array_equal(arr, [0.5, 0.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        interval_projection(())
    with pytest.raises(ValueError):
        interval_projection(((2.0, 1.0),))


def test_interval_membership():
    member = interval_membership(((0.0, 1.0), (np.float64(5.0), 6.0)))
    for theta, inside in ((0.0, True), (1.0, True), (2.0, False), (5.5, True), (6.5, False)):
        assert member(theta) is inside  # a plain bool for a scalar
    assert member(np.float64(5.0)) is True
    arr = member(np.array([[-1.0, 0.5], [5.0, 7.0]]))
    assert arr.dtype == bool and np.array_equal(arr, [[False, True], [True, False]])
    assert member(np.nan) is False
    assert not interval_membership(())(0.5)
    # a float, an np.float64, a 0-d and an n-d array each take their own answer type
    for theta, inside in ((0.5, True), (1.5, False), (6.0, True), (math.nan, False)):
        assert member(theta) is inside and member(np.float64(theta)) is inside
        zero_d = member(np.array(theta))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d.dtype == bool
        assert bool(zero_d) is inside
    many = np.array([0.5, 1.5, 6.0, math.nan, -0.0, 5.0 - 1e-12]).reshape(2, 3)
    assert np.array_equal(member(many), [[True, False, True], [False, True, False]])
    assert member(2) is False and member(5) is True  # an int is a scalar too


def test_penalized_gradient_branches():
    intervals = ((540.0, 1000.0),)
    pen = penalized_gradient(lambda t: 3.0, interval_membership(intervals), intervals, 50.0)
    assert pen(700.0) == 3.0  # unchanged in S
    assert pen(400.0) == 53.0
    assert pen(1100.0) == -47.0
    assert penalized_gradient(lambda t: 3.0, lambda t: False, intervals, 0.0)(400.0) == 3.0


def test_penalized_gradient_with_zero_delta_is_the_gradient():
    grad = lambda t: 3.0
    for support in (None, (300.0, 1000.0)):
        assert penalized_gradient(grad, lambda t: False, ((540.0, 1000.0),), 0.0, support) is grad


def test_penalty_points_toward_the_nearest_interval():
    def direction(theta, intervals):
        # an infeasible verdict on a zero gradient leaves delta * direction
        return penalized_gradient(lambda t: 0.0, lambda t: False, intervals, 1.0)(theta)

    intervals = ((540.0, 1000.0),)
    assert direction(400.0, intervals) == 1.0
    assert direction(1100.0, intervals) == -1.0
    assert direction(700.0, intervals) == 0.0
    multi = ((0.0, 1.0), (5.0, 6.0))
    assert direction(4.9, multi) == 1.0  # nearest interval wins
    assert direction(2.0, multi) == -1.0
    assert direction(700.0, ()) == 0.0


def test_penalized_gradient_support_guard():
    intervals = ((540.0, 1000.0),)
    member = interval_membership(intervals)
    pen = penalized_gradient(lambda t: 3.0, member, intervals, 0.5, support=(300.0, 1000.0))
    assert pen(1000.0) == 3.0  # the support's ends are inside it
    assert pen(300.0) == 3.5  # the penalty alone
    assert pen(1050.0) == 2.0  # penalty and guard push back together
    assert pen(250.0) == 4.0
    # a feasible theta past the support gets the guard alone
    wide = ((0.0, 2000.0),)
    pen = penalized_gradient(lambda t: 3.0, interval_membership(wide), wide, 0.5, (300.0, 1000.0))
    assert (pen(1050.0), pen(250.0), pen(700.0)) == (2.5, 3.5, 3.0)


@pytest.mark.parametrize("kind", ["csvgd", "projected_svgd"])
def test_particle_samplers_time_every_update(kind):
    if kind == "csvgd":
        history = run_csvgd(lambda ts: -ts, 10, 25, seed=0)
    else:
        project = interval_projection(((-1.0, 1.0),))
        history = run_projected_svgd(lambda ts: -ts, project, 10, 25, seed=0)
    seconds = history.cumulative_seconds
    assert seconds.shape == (25,) and len(history) == 25
    assert seconds[0] >= 0.0 and np.all(np.diff(seconds) >= 0.0)


def test_projected_svgd_identity_on_feasible_targets():
    project = interval_projection(((-100.0, 100.0),))
    init = np.array([1.0, -2.0])
    history = run_projected_svgd(
        lambda ts: -ts, project, 2, 1, initial_particles=init, step_size=0.3, seed=0
    )
    assert np.allclose(history.final, init + 0.3 * (-init), atol=1e-14)


def test_projected_svgd_clamps_to_boundary():
    project = interval_projection(((0.5, np.inf),))
    history = run_projected_svgd(
        lambda ts: np.full_like(ts, -5.0),
        project,
        1,
        1,
        initial_particles=np.array([1.0]),
        step_size=0.3,
        seed=0,
    )
    # y = 1 - 5 = -4 clamps to 0.5; step along (0.5 - 1.0)
    assert history.final[0] == pytest.approx(1.0 + 0.3 * (0.5 - 1.0), abs=1e-14)


def test_projected_svgd_always_feasible():
    project = interval_projection(((0.5, np.inf),))
    history = run_projected_svgd(lambda ts: -ts, project, 50, 200, step_size=0.3, seed=5)
    assert np.all(history.generations >= 0.5)


def _reference_crw(posterior, feasible, proposal_std, n_samples, theta, seed):
    """The cRW loop without its clock or bound locals: the reference for the
    draws it makes and their order."""
    rng = np.random.default_rng(seed)
    lp = float(posterior(theta))
    samples, accepted, log_post = np.empty(n_samples), np.zeros(n_samples, bool), np.empty(n_samples)
    for i in range(n_samples):
        proposal = theta + proposal_std * rng.standard_normal()
        if feasible(proposal):
            lp_prop = float(posterior(proposal))
            if math.log(rng.random()) < lp_prop - lp:
                theta, lp = proposal, lp_prop
                accepted[i] = True
        samples[i], log_post[i] = theta, lp
    return samples, accepted, log_post


@pytest.mark.parametrize("seed", [0, 7, 31])
def test_crw_keeps_its_draw_order(seed):
    inside = interval_membership(((-0.5, 2.0),))
    chain = run_crw(STD_NORMAL_LOGPOST, inside, 1.3, 400, 0.1, seed=seed)
    samples, accepted, log_post = _reference_crw(STD_NORMAL_LOGPOST, inside, 1.3, 400, 0.1, seed)
    assert chain.samples.tobytes() == samples.tobytes()
    assert chain.accepted.tobytes() == accepted.tobytes()
    assert chain.log_post.tobytes() == log_post.tobytes()


def test_sampler_times_are_whole_nanoseconds():
    runs = (
        run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 300, 0.0, seed=1),
        run_chmc(STD_NORMAL_LOGPOST, STD_NORMAL_GRAD, 1.0, 0.3, 10, 100, 0.0, seed=1),
        run_csvgd(lambda ts: -ts, 10, 20, seed=1),
    )
    for run in runs:
        seconds = run.cumulative_seconds
        nanoseconds = np.round(seconds * 1e9)
        assert np.array_equal(nanoseconds / 1e9, seconds)
        assert seconds[0] >= 0.0 and np.all(np.diff(seconds) >= 0.0)


def test_seed_reproducibility_all_samplers():
    crw = lambda s: run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 500, 0.0, seed=s)
    chmc = lambda s: run_chmc(STD_NORMAL_LOGPOST, STD_NORMAL_GRAD, 1.0, 0.3, 10, 200, 0.0, seed=s)
    csvgd = lambda s: run_csvgd(lambda ts: -ts, 20, 30, seed=s)
    proj = interval_projection(((-10.0, 10.0),))
    psvgd = lambda s: run_projected_svgd(lambda ts: -ts, proj, 20, 30, seed=s)

    for factory, attr in [(crw, "samples"), (chmc, "samples"), (csvgd, "generations"), (psvgd, "generations")]:
        a = getattr(factory(11), attr)
        b = getattr(factory(11), attr)
        c = getattr(factory(12), attr)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_postprocess_feasible_filters_and_flags():
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 2000, 0.0, seed=13)
    oracle = lambda t: t >= 0.0
    filtered = postprocess_feasible(chain, oracle)
    mask = chain.samples >= 0.0
    assert np.array_equal(filtered.samples, chain.samples[mask])
    assert not filtered.is_markov
    assert filtered.metadata["original_length"] == 2000
    assert filtered.metadata["removed"] == int((~mask).sum())
    assert np.all(filtered.feasible)

    identical = postprocess_feasible(chain, lambda t: True)
    assert np.array_equal(identical.samples, chain.samples)
    assert identical.metadata["removed"] == 0

    empty = postprocess_feasible(chain, lambda t: False)
    assert len(empty) == 0
    assert empty.metadata["removed"] == 2000


def test_chain_csv_format(tmp_path):
    chain = run_crw(STD_NORMAL_LOGPOST, lambda t: True, 2.4, 25, 0.0, seed=14)
    path = tmp_path / "chain.csv"
    chain.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,theta,accepted,feasible,log_post,cumulative_seconds"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == chain.samples[0]
    # cumulative timing is nondecreasing
    assert np.all(np.diff(chain.cumulative_seconds) >= 0.0)


def test_particle_history_csv_and_flatten(tmp_path):
    history = run_csvgd(lambda ts: -ts, 4, 3, seed=15)
    path = tmp_path / "particles.csv"
    history.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,particle_index,theta,cumulative_seconds"
    assert len(lines) == 1 + 4 * 4  # header + (3 updates + initial) * 4 particles
    assert history.flatten(0.0).shape == (16,)
    with pytest.raises(ValueError):
        history.flatten(1.0)


def _row_by_row_chain_csv(chain: MarkovChain) -> str:
    """The one-line-per-index writer the chunked one replaced."""
    lines = ["index,theta,accepted,feasible,log_post,cumulative_seconds"]
    for i in range(len(chain)):
        lines.append(
            f"{i},{float(chain.samples[i])!r},{int(chain.accepted[i])},"
            f"{int(chain.feasible[i])},{float(chain.log_post[i])!r},"
            f"{float(chain.cumulative_seconds[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _row_by_row_particle_csv(history: ParticleHistory) -> str:
    """The one-line-per-particle writer; the initial ensemble's time is 0.0."""
    times = [repr(float(t)) for t in (0.0, *history.cumulative_seconds)]
    lines = ["generation,particle_index,theta,cumulative_seconds"]
    for g in range(history.generations.shape[0]):
        for k in range(history.n_particles):
            lines.append(f"{g},{k},{float(history.generations[g, k])!r},{times[g]}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, 4096, 9001])
def test_chunked_csv_matches_row_by_row_writer(tmp_path, n):
    rng = np.random.default_rng(16)
    log_post = rng.normal(-3.0, 2.0, n)
    log_post[::7] = -np.inf
    log_post[3::11] = np.nan
    chain = MarkovChain(
        rng.normal(600.0, 80.0, n) * 10.0 ** rng.integers(-12, 12, n),
        rng.random(n) < 0.4,
        rng.random(n) < 0.9,
        log_post,
        np.cumsum(rng.random(n)) * 1e-5,
    )
    path = tmp_path / "chain.csv"
    chain.to_csv(str(path))
    assert path.read_text() == _row_by_row_chain_csv(chain)

    n_rows = max(n // 50, 1)
    history = ParticleHistory(rng.normal(0.0, 1e3, (n_rows, 50)), np.cumsum(rng.random(n_rows - 1)))
    path = tmp_path / "particles.csv"
    history.to_csv(str(path))
    assert path.read_text() == _row_by_row_particle_csv(history)


def test_markov_chain_validation():
    with pytest.raises(ValueError):
        MarkovChain(np.zeros(3), np.zeros(2, bool), np.zeros(3, bool), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="one cumulative time per update"):
        ParticleHistory(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(TypeError):
        ParticleHistory(np.zeros((3, 2)))  # the times are required


def _reference_csvgd(
    grad, n_particles, n_generations, initial_particles=None, step_size=0.1, seed=0
):
    """Reference: the cSVGD loop written out, which run_csvgd must match bit for bit."""
    rng = np.random.default_rng(seed)
    if initial_particles is None:
        particles = rng.standard_normal(n_particles)
    else:
        particles = np.asarray(initial_particles, dtype=float).copy()
    generations = np.empty((n_generations + 1, n_particles))
    generations[0] = particles
    accumulator = None
    for gen in range(n_generations):
        grads = np.asarray(grad(particles), dtype=float)
        direction = _stein_direction(particles, grads)
        if accumulator is None:
            accumulator = direction**2
        else:
            accumulator = ADAGRAD_DECAY * accumulator + (1.0 - ADAGRAD_DECAY) * direction**2
        particles = particles + step_size * direction / (ADAGRAD_FUDGE + np.sqrt(accumulator))
        generations[gen + 1] = particles
    return generations


def _reference_projected_svgd(
    grad, project, n_particles, n_generations, initial_particles=None, step_size=0.1, seed=0
):
    """Reference: the projected-SVGD loop written out, matched bit for bit."""
    rng = np.random.default_rng(seed)
    if initial_particles is None:
        particles = rng.standard_normal(n_particles)
    else:
        particles = np.asarray(initial_particles, dtype=float).copy()
    particles = np.asarray(project(particles), dtype=float)
    generations = np.empty((n_generations + 1, n_particles))
    generations[0] = particles
    for gen in range(n_generations):
        grads = np.asarray(grad(particles), dtype=float)
        targets = np.asarray(project(particles + grads), dtype=float)
        particles = particles + step_size * (targets - particles)
        particles = np.asarray(project(particles), dtype=float)
        generations[gen + 1] = particles
    return generations


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("n_particles, n_generations", [(1, 5), (7, 12), (40, 30)])
@pytest.mark.parametrize("initial", [False, True])
def test_ensemble_loop_matches_the_written_out_loops(seed, n_particles, n_generations, initial):
    rng = np.random.default_rng(1000 + seed)
    init = rng.normal(0.5, 2.0, n_particles) if initial else None
    grad = lambda ts: -(ts - 0.3) * (1.0 + 0.1 * ts**2)
    step = float(rng.uniform(0.05, 0.5))
    kwargs = dict(initial_particles=init, step_size=step, seed=seed)
    history = run_csvgd(grad, n_particles, n_generations, **kwargs)
    expected = _reference_csvgd(grad, n_particles, n_generations, **kwargs)
    assert history.generations.tobytes() == expected.tobytes()

    project = interval_projection(((-1.0, 0.2), (0.9, 3.0)))
    history = run_projected_svgd(grad, project, n_particles, n_generations, **kwargs)
    expected = _reference_projected_svgd(grad, project, n_particles, n_generations, **kwargs)
    assert history.generations.tobytes() == expected.tobytes()


def test_projected_svgd_projects_the_start_before_the_clock():
    project = interval_projection(((0.0, 1.0),))
    calls = []

    def slow_start(theta):
        if not calls:
            time.sleep(0.5)  # only the initial ensemble's projection is slow
        calls.append(theta)
        return project(theta)

    init = np.array([-2.0, 0.5, 4.0])
    history = run_projected_svgd(lambda ts: -ts, slow_start, 3, 1, init, seed=0)
    assert np.array_equal(history.generations[0], [0.0, 0.5, 1.0])
    assert len(calls) == 3 and history.cumulative_seconds[0] < 0.5
