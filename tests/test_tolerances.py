"""Every named slack decides its rule exactly at its boundary.

Each constant is tried at its value and at the next float past it: the
strict-descent test of an away step (``AWAY_TOL``), feasibility
(``FEASIBILITY_TOL``, in `L1Ball.contains` and in `run`'s start-point check),
the NNZ count (``NNZ_THRESHOLD``) and the floor on a block's step constant
(``C_BAR_FLOOR_SLACK``). Runs started exactly at ``FEASIBILITY_TOL`` outside
their ball show why `run`'s in-ball check after every step allows
``IN_FACE_TOL``.
"""

import numpy as np
import pytest

from fwsd.gap import C_BAR_FLOOR_SLACK, GapConstants
from fwsd.geometry import (
    AWAY_TOL,
    FEASIBILITY_TOL,
    IN_FACE_TOL,
    NNZ_THRESHOLD,
    L1Ball,
    away_rows,
    nnz_rows,
)
from fwsd.optimizer import OptimizerConfig, alt_step, run
from fwsd.problems import make_quadratic
from fwsd.sparse_net import LayerParams, MLPSpec, nnz_metrics

RADII = [1.0, 2.5, 1e-3, 37.0]


def test_away_step_descends_strictly_beyond_away_tol():
    # from the centre of the ball, g = (-s, 0) backs off the vertex -e_0, so
    # d = e_0 and g @ d = -s exactly
    ball = L1Ball(2, 1.0)
    s = np.array([AWAY_TOL, np.nextafter(AWAY_TOL, 1.0)])
    g = np.stack([-s, np.zeros(2)], axis=1)
    d, ok, gd, *_ = away_rows(ball, np.zeros((2, 2)), g)
    np.testing.assert_array_equal(d, [[1.0, 0.0], [1.0, 0.0]])
    assert gd.tolist() == [-AWAY_TOL, np.nextafter(-AWAY_TOL, -1.0)]
    assert ok.tolist() == [False, True]


def test_rejected_rows_keep_their_bytes_in_a_mixed_group():
    # row 0 steps; row 1 descends by exactly AWAY_TOL along d = e_0 and row 2 is
    # a vertex (d = 0), so both are rejected and come back as they went in
    ball = L1Ball(2, 1.0)
    x = np.array([[0.0, 0.0], [-0.0, -0.0], [1.0, -0.0]])
    g = np.array([[-1.0, 0.0], [-AWAY_TOL, 0.0], [-1.0, 0.0]])
    with np.errstate(all="raise"):
        x_next, infos = alt_step(x, g, ball, np.full(3, 8.0))
    assert infos.taken.tolist() == [True, False, False]
    assert x_next[0].tolist() == [0.125, 0.0]
    assert x_next[1:].tobytes() == x[1:].tobytes()
    for field in (infos.a_value, infos.alpha_stop, infos.beta_bar):
        assert field[1:].tobytes() == np.zeros(2).tobytes()
    x_next, infos = alt_step(x[1:], g[1:], ball, np.full(2, 8.0))  # no row steps
    assert not infos.taken.any() and x_next.tobytes() == x[1:].tobytes()


def _edge_start(seed, radius):
    # a start point at radius + FEASIBILITY_TOL, as close as scaling rounds it, never past
    edge = radius + FEASIBILITY_TOL
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 50)
    x *= edge / np.sum(np.abs(x))
    while np.sum(np.abs(x)) > edge:
        x = np.nextafter(x, 0.0)
    return x


@pytest.mark.parametrize("away", [False, True], ids=["fw", "away"])
@pytest.mark.parametrize("radius", [0.5] + RADII)
def test_runs_started_at_the_feasibility_edge_stay_in_their_ball(radius, away):
    # run() accepts a start up to FEASIBILITY_TOL outside its ball, and its steps round
    # from there; the in-ball check after every step allows IN_FACE_TOL, so none of
    # these runs raise (a check at FEASIBILITY_TOL stops radius 0.5, seeds 12, 15, 17)
    ball = L1Ball(50, radius)
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(1e6 * 2.0 * ball.diameter() ** 2,),
                             iterations=20, seed=0, alternative_directions=away)
    for seed in range(20):
        problem = make_quadratic(seed=seed, p=50, q=1, l_nabla=1.0, noise_sigma=0.1)
        start = _edge_start(seed, radius)
        assert ball.contains(start)
        result = run(problem, [ball], np.zeros(1), [start], config)
        assert np.sum(np.abs(result.final_iterate.x[0])) <= radius + IN_FACE_TOL


@pytest.mark.parametrize("radius", RADII)
def test_feasibility_holds_up_to_feasibility_tol(radius):
    ball = L1Ball(1, radius)
    edge = radius + FEASIBILITY_TOL
    beyond = np.nextafter(edge, np.inf)
    assert ball.contains(np.array([edge])) and ball.contains(np.array([-edge]))
    assert not ball.contains(np.array([beyond])) and not ball.contains(np.array([-beyond]))

    problem = make_quadratic(seed=0, p=1, q=1, l_nabla=1.0)
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(2.0 * ball.diameter() ** 2,),
                             iterations=0, seed=0)
    run(problem, [ball], np.zeros(1), [np.array([edge])], config)
    with pytest.raises(ValueError, match=r"^x0 block is infeasible \(block 0, in the start "
                                         r"point\)$"):
        run(problem, [ball], np.zeros(1), [np.array([beyond])], config)


def test_nnz_counts_weights_from_nnz_threshold_up():
    below = np.nextafter(NNZ_THRESHOLD, 0.0)
    m = np.array([[NNZ_THRESHOLD, below], [-NNZ_THRESHOLD, -below]])
    assert nnz_rows(m).tolist() == [1, 1]
    spec = MLPSpec(layer_sizes=(2, 2, 1), fw_layers=(0,), deltas=(1.0,))
    params = [LayerParams(w=m, b=np.zeros(2)), LayerParams(w=np.ones((1, 2)), b=np.zeros(1))]
    assert nnz_metrics(params, spec) == {0: 50.0}


def test_c_bar_may_fall_short_of_its_floor_by_c_bar_floor_slack():
    ball = L1Ball(3, 1.0)
    floor = 2.0 * 1.0 * ball.diameter() ** 2
    assert C_BAR_FLOOR_SLACK == 1e-12
    GapConstants.from_blocks(1.0, [floor * (1.0 - 0.5e-12)], [ball])
    with pytest.raises(ValueError, match="below the required 2\\*L\\*diam\\^2"):
        GapConstants.from_blocks(1.0, [floor * (1.0 - 2e-12)], [ball])
