"""The group-matrix engine against the per-block engine it replaced, bit for bit.

`fwsd.optimizer.run` keeps one matrix per run of consecutive blocks sharing a
ball; `engine_reference.run` keeps one array per block and regroups every step.
Hypothesis draws layouts of 1-6 blocks from up to three balls of widths 1-8
with two radii, so that in about a third of the draws a ball
recurs after a different one (blocks 0 and 2 share a ball, block 1 has
another): `run` steps its blocks in separate runs, the reference in one
group. Quadratic problems with and without noise, feasible start points
(vertices among them), and away steps on and off. The two runs must agree
in the iterates digest, the trace records with every float in hex, the output
index, and the bytes of the output and final iterates.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import engine_reference as ref
from fwsd.geometry import L1Ball, face_rows
from fwsd.optimizer import BatchSchedule, OptimizerConfig, alt_step, run
from fwsd.problems import make_quadratic

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def runs(draw):
    """Balls, start point, problem and config of one small run.

    The layout comes from a drawn seed rather than from shrinkable lists,
    so multi-group layouts are as common as one-ball ones.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = [L1Ball(int(rng.integers(1, 9)), float(rng.choice([1.0, 0.3])))
               for _ in range(rng.integers(1, 4))]
    balls = [palette[i] for i in rng.integers(0, len(palette), size=rng.integers(1, 7))]
    x0 = []
    for ball in balls:
        x = rng.uniform(-1.0, 1.0, ball.dim) if rng.random() < 0.5 else np.zeros(ball.dim)
        x0.append(x * ball.radius * rng.uniform(0.0, 1.0) / max(np.sum(np.abs(x)), 1.0))
        if rng.random() < 0.3:  # a vertex: no away step leaves it until a step moves it
            x0[-1] = np.zeros(ball.dim)
            x0[-1][rng.integers(ball.dim)] = rng.choice([-1.0, 1.0]) * ball.radius
    q = int(rng.integers(1, 4))
    problem = make_quadratic(seed=int(rng.integers(10_000)), p=tuple(b.dim for b in balls), q=q,
                             l_nabla=1.0, noise_sigma=float(rng.choice([0.0, 1.0])))
    config = OptimizerConfig(
        l_nabla=1.0,
        c_bar_per_block=tuple(2.0 * b.diameter() ** 2 * rng.uniform(1.0, 3.0) for b in balls),
        iterations=int(rng.integers(1, 13)),
        seed=int(rng.integers(1000)),
        batch_schedule=BatchSchedule.constant(int(rng.integers(1, 4))),
        alternative_directions=draw(st.booleans()),
    )
    return problem, balls, rng.uniform(-1.0, 1.0, q), x0, config


def _hex(value):
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return value.hex()
    return [_hex(v) for v in value]


def _iterate_bits(it):
    return it.k, [(b.dtype.str, b.shape, b.tobytes()) for b in (*it.x_blocks, it.y)]


def _fingerprint(result):
    records = [[r.k, r.objective_estimate, r.gap_hat, r.alpha_bar_blocks, r.alpha_sd,
                r.beta_bar_blocks, r.alt_taken_blocks, r.nnz_blocks] for r in result.trace]
    return (result.iterates_digest, _hex(records), result.output_index,
            _iterate_bits(result.output_iterate), _iterate_bits(result.final_iterate))


@SETTINGS
@given(runs())
def test_run_matches_per_block_engine(case):
    problem, balls, y0, x0, config = case
    assert _fingerprint(run(problem, balls, y0, x0, config)) == _fingerprint(
        ref.run(problem, balls, y0, x0, config))


def _interleaved(balls):
    """Whether some ball recurs after a different ball."""
    runs = [b for i, b in enumerate(balls) if i == 0 or b != balls[i - 1]]
    return len(runs) != len(set(runs))


def test_sampler_draws_interleaved_groups_and_away_steps(monkeypatch):
    # besides the layouts, `alt_step`'s branches: groups where every row and where
    # some rows step, and groups that mix boundary and interior rows (a group where
    # no row steps needs every row at a stationary vertex; `test_tolerances.py`
    # steps a group that mixes rejected rows with d != 0 and an accepted one)
    seen = dict.fromkeys(["interleaved", "contiguous", "away", "taken", "all rows step",
                          "some rows step", "boundary and interior"], 0)

    def counting_alt_step(x_bar, g_check, ball, c_bar):
        out = alt_step(x_bar, g_check, ball, c_bar)
        taken, on_boundary = out[1].taken, face_rows(ball, x_bar).on_boundary
        if len(taken) > 1 and taken.any():
            seen["all rows step" if taken.all() else "some rows step"] += 1
        seen["boundary and interior"] += bool(on_boundary.any() and not on_boundary.all())
        return out

    monkeypatch.setattr("fwsd.optimizer.alt_step", counting_alt_step)
    for case in _examples(40):
        problem, balls, y0, x0, config = case
        interleaved = _interleaved(balls)
        seen["interleaved" if interleaved else "contiguous"] += 1
        if config.alternative_directions:
            seen["away"] += 1
            trace = run(problem, balls, y0, x0, config).trace
            seen["taken"] += any(any(r.alt_taken_blocks) for r in trace)
    assert min(seen.values()) >= 3, seen


def _examples(n):
    found = []

    @settings(max_examples=n, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(runs())
    def collect(case):
        found.append(case)

    collect()
    return found
