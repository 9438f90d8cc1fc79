"""Invariants of whole `run` calls with away steps, checked on every step.

Hypothesis draws layouts of 1-3 blocks of widths 1-50 and radii from 1e-3 to
37 (log-uniform), step constants up to 30 times the smallest valid one, away
thresholds and seeds, with start points in the interior, within 1e-12 of
the sphere, within 1e-12 of a face (coordinates that small next to a support
on the sphere) and at vertices. `fwsd.optimizer.alt_step` is wrapped by name,
so every call `run` makes is checked against the per-block reference in
`geometry_reference`:

- every output row is feasible at ``FEASIBILITY_TOL``;
- a taken row stepped to a binding cap reads an exact ``0.0`` at each
  coordinate the reference cap binds on;
- a taken boundary row's support never grows: a coordinate that is exactly
  zero stays zero, and no coordinate changes sign.

On a noise-free quadratic the problem is wrapped as well, to capture the point
``(x_bar, y_next)`` of each away step's gradient call; the iterate the step
returns must not raise the objective there, up to rounding.

Without away steps, the recorded points are those of the data batches, where
each iteration's sampled ``gap_hat`` is compared with the exact gap: on noisy
quadratics its mean over seeds dominates, within 3 SE (the source paper's
claim that the plug-in gap's expectation dominates the exact gap), and on
noise-free ones the two agree to rounding at every iterate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fwsd.optimizer
import geometry_reference as ref
from fwsd.gap import GapConstants, exact_gap
from fwsd.geometry import FEASIBILITY_TOL, L1Ball, Norm
from fwsd.optimizer import BatchSchedule, OptimizerConfig, run
from fwsd.problems import make_quadratic

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _start(rng, ball):
    """A feasible start point of one of four kinds."""
    dim, r = ball.dim, ball.radius
    kind = int(rng.integers(4))
    if kind == 3:  # a vertex
        x = np.zeros(dim)
        x[rng.integers(dim)] = rng.choice([-1.0, 1.0]) * r
        return x
    x = rng.uniform(-1.0, 1.0, dim) * (rng.random(dim) < 0.6)
    if not x.any():
        x[rng.integers(dim)] = 1.0
    if kind == 0:  # interior
        return x * (r * rng.uniform(0.0, 0.99) / np.sum(np.abs(x)))
    x *= r / np.sum(np.abs(x))
    if kind == 1:  # within 1e-12 of the sphere, on either side
        return x * (1.0 + rng.uniform(-1e-12, 1e-12) / r)
    zero = x == 0.0  # within 1e-12 of a face: dust on the zero set
    x[zero] = rng.uniform(-1e-12, 1e-12, np.count_nonzero(zero))
    return x


@st.composite
def runs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    balls = [L1Ball(int(rng.integers(1, 51)), float(10.0 ** rng.uniform(-3.0, np.log10(37.0))))
             for _ in range(rng.integers(1, 4))]
    q = int(rng.integers(0, 3))
    problem = make_quadratic(seed=int(rng.integers(10_000)), p=tuple(b.dim for b in balls), q=q,
                             l_nabla=1.0)
    config = OptimizerConfig(
        l_nabla=1.0,
        c_bar_per_block=tuple(2.0 * b.diameter() ** 2 * 10.0 ** rng.uniform(0.0, 1.5)
                              for b in balls),
        iterations=int(rng.integers(1, 9)),
        seed=int(rng.integers(1000)),
        batch_schedule=BatchSchedule.constant(int(rng.integers(1, 3))),
        alternative_directions=True,
        norm_y=Norm.L2 if rng.random() < 0.5 else Norm.L1,
        away_tol=float(rng.choice([0.0, 1e-12, 1e-6])),
    )
    return problem, balls, rng.uniform(-1.0, 1.0, q), [_start(rng, b) for b in balls], config


class _Recording:
    """The problem, recording the point of every gradient call."""

    def __init__(self, problem):
        self.problem, self.points = problem, []
        self.block_dims, self.y_dim = problem.block_dims, problem.y_dim

    def draw(self, rng, n):
        return self.problem.draw(rng, n)

    def gradient_mean(self, x_blocks, y, batch):
        self.points.append(([m.copy() for m in x_blocks], y.copy()))
        return self.problem.gradient_mean(x_blocks, y, batch)


def _check_away_step(x_bar, g_check, ball, config, x_next, infos, seen):
    assert np.all(np.sum(np.abs(x_next), axis=1) <= ball.radius + FEASIBILITY_TOL)
    for r, info in enumerate(infos):
        if not info.taken:
            continue
        seen["taken"] += 1
        d, ok = ref.away_direction(ball, x_bar[r], g_check[r], config.away_tol)
        assert ok
        _, binding = ref.in_face_step_cap(ball, x_bar[r], d)
        if binding and info.beta_bar == info.alpha_stop:
            seen["bound"] += 1
            assert all(x_next[r, j] == 0.0 for j in binding), (x_next[r], binding)
        if ref.minimal_face(ball, x_bar[r]).on_boundary:
            seen["boundary"] += 1
            assert np.all(x_next[r][x_bar[r] == 0.0] == 0.0)
            assert np.all(x_next[r] * x_bar[r] >= 0.0)


def test_away_steps_keep_run_invariants():
    inner, seen = fwsd.optimizer.alt_step, {"taken": 0, "bound": 0, "boundary": 0}

    def checked(x_bar, g_check, ball, c_bar, cfg):
        x_next, infos = inner(x_bar, g_check, ball, c_bar, cfg)
        _check_away_step(x_bar, g_check, ball, cfg, x_next, infos, seen)
        return x_next, infos

    @SETTINGS
    @given(runs())
    def sweep(case):
        problem, balls, y0, x0, config = case
        recording = _Recording(problem)
        result = run(recording, balls, y0, x0, config)
        # gradient calls alternate (x_k, y_k) and (x_bar_k, y_next_k); x_{k+1} is
        # the next call's x, or the final iterate, and y_{k+1} = y_next_k
        nexts = [x for x, _ in recording.points[2::2]] + [list(result.final_iterate.x_blocks)]
        for (x_bar, y_next), x_next in zip(recording.points[1::2], nexts):
            f_bar = problem.exact_objective(x_bar, y_next)
            f_next = problem.exact_objective(x_next, y_next)
            assert f_next <= f_bar + 1e-12 * (1.0 + abs(f_bar)), (f_next, f_bar)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fwsd.optimizer, "alt_step", checked)
        sweep()
    # taken, binding and boundary steps all occur in the drawn runs
    assert min(seen.values()) >= 50, seen


def _gap_hat_and_exact_gap(seed, noise_sigma, iterations=60):
    """Per iteration of a run without away steps, ``gap_hat`` and the exact gap at its point."""
    balls = [L1Ball(6, 1.0), L1Ball(4, 0.5)]
    problem = make_quadratic(seed=seed, p=(6, 4), q=3, l_nabla=1.0, noise_sigma=noise_sigma)
    c_bars = tuple(2.0 * b.diameter() ** 2 for b in balls)
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=c_bars, iterations=iterations,
                             seed=seed, batch_schedule=BatchSchedule.constant(2))
    recording = _Recording(problem)
    result = run(recording, balls, np.zeros(3), [np.zeros(b.dim) for b in balls], config)
    assert len(recording.points) == iterations  # one data batch per iteration, nothing else
    constants = GapConstants.from_blocks(1.0, c_bars, balls)
    exact = [exact_gap(problem, x, y, balls, constants) for x, y in recording.points]
    return np.array([r.gap_hat for r in result.trace]), np.array(exact)


def test_sampled_gap_dominates_exact_gap_over_whole_runs():
    # one mean of gap_hat - exact_gap per seed; their mean over seeds must not fall 3 SE below 0
    means = [float(np.mean(np.subtract(*_gap_hat_and_exact_gap(seed, 1.0))))
             for seed in range(30)]
    mean, se = np.mean(means), np.std(means, ddof=1) / np.sqrt(len(means))
    assert mean >= -3.0 * se, (mean, se)


@pytest.mark.parametrize("seed", range(5))
def test_noise_free_gap_hat_is_the_exact_gap(seed):
    gap_hat, exact = _gap_hat_and_exact_gap(seed, 0.0)
    assert np.all(exact > 0.0)
    np.testing.assert_allclose(gap_hat, exact, rtol=1e-12, atol=0.0)
