"""Gap constants, the plug-in estimator, and its exact counterpart."""

import numpy as np
import pytest

from fwsd.gap import (
    GapConstants,
    InternalConsistencyError,
    _clamp_g_tilde,
    dual_norm,
    exact_gap,
    gap_estimate,
)
from fwsd.geometry import L1Ball, Norm
from fwsd.problems import GradientEstimate, StochasticProblem, make_quadratic


class TestDualNorm:
    def test_l2_dual_is_euclidean(self):
        assert dual_norm(np.array([3.0, 4.0]), Norm.L2) == 5.0

    def test_l1_dual_is_max_magnitude(self):
        assert dual_norm(np.array([3.0, -4.0]), Norm.L1) == 4.0

    def test_empty_vector_has_zero_norm(self):
        assert dual_norm(np.zeros(0), Norm.L2) == 0.0
        assert dual_norm(np.zeros(0), Norm.L1) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dual_norm(np.array([1.0, np.inf]), Norm.L2)


class TestGapConstants:
    def test_scale_formula(self):
        c = GapConstants(l_nabla=1.0, c_bar_total=8.0)
        assert c.scale == 0.5

    def test_no_blocks_scale_is_zero(self):
        assert GapConstants(l_nabla=2.0, c_bar_total=0.0).scale == 0.0

    def test_from_blocks_sums_and_validates(self):
        balls = [L1Ball(3, 1.0), L1Ball(2, 0.5)]
        c = GapConstants.from_blocks(1.0, [8.0, 2.0], balls)
        assert c.c_bar_total == 10.0
        with pytest.raises(ValueError):
            GapConstants.from_blocks(1.0, [7.9, 2.0], balls)  # below 2*L*diam^2
        with pytest.raises(ValueError, match="^need one c_bar per ball$"):
            GapConstants.from_blocks(1.0, [8.0], balls)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            GapConstants(l_nabla=0.0, c_bar_total=1.0)
        with pytest.raises(ValueError):
            GapConstants(l_nabla=1.0, c_bar_total=-1.0)


class TestGapEstimate:
    def test_single_block_worked_example(self):
        est = gap_estimate(
            x_blocks=[np.zeros(2)],
            g_hat_blocks=[np.array([1.0, -2.0])],
            h_hat=np.array([3.0, 4.0]),
            balls=[L1Ball(2, 1.0)],
            constants=GapConstants(l_nabla=1.0, c_bar_total=8.0),
            norm_y=Norm.L2,
        )
        assert est.g_tilde_blocks == (2.0,)
        assert est.g_tilde == 2.0
        assert est.h_dual_norm == 5.0
        assert est.value == 6.0  # 2 * 0.5 + 5

    def test_blocks_sum_exactly(self):
        rng = np.random.default_rng(3)
        balls = [L1Ball(4, 1.0), L1Ball(3, 2.0), L1Ball(5, 0.5)]
        for _ in range(200):
            xs, gs = [], []
            for ball in balls:
                raw = rng.uniform(-1.0, 1.0, ball.dim)
                xs.append(raw / max(1.0, np.sum(np.abs(raw)) / ball.radius))
                gs.append(rng.standard_normal(ball.dim))
            constants = GapConstants.from_blocks(1.0, [8.0 * b.radius ** 2 for b in balls], balls)
            est = gap_estimate(xs, gs, np.zeros(0), balls, constants)
            # per-block values match vertex enumeration, and the total is their sum
            for x, g, ball, got in zip(xs, gs, balls, est.g_tilde_blocks):
                best = max(
                    float(np.asarray(g) @ (x - v))
                    for v in _signed_vertices(ball)
                )
                assert got == best
            assert est.g_tilde == float(sum(est.g_tilde_blocks))

    def test_no_free_block(self):
        est = gap_estimate(
            [np.zeros(2)], [np.array([1.0, -2.0])], np.zeros(0),
            [L1Ball(2, 1.0)], GapConstants(1.0, 8.0),
        )
        assert est.value == est.g_tilde * 0.5
        assert est.h_dual_norm == 0.0

    def test_no_constrained_blocks(self):
        est = gap_estimate([], [], np.array([3.0, 4.0]), [], GapConstants(1.0, 0.0))
        assert est.value == 5.0

    def test_infeasible_block_rejected(self):
        with pytest.raises(ValueError):
            gap_estimate(
                [np.array([0.8, 0.5])], [np.ones(2)], np.zeros(0),
                [L1Ball(2, 1.0)], GapConstants(1.0, 8.0),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_block_is_named_before_feasibility(self, bad):
        # a NaN or inf row also lies outside its ball; the finiteness check comes first
        balls = [L1Ball(3, 1.0)] * 2
        with pytest.raises(ValueError, match=r"^x contains non-finite entries "
                                             r"\(block 1, in gap_estimate\)$"):
            gap_estimate([np.zeros(3), np.array([bad, 0.0, 0.0])], [np.ones(3)] * 2,
                         np.zeros(0), balls, GapConstants(1.0, 16.0))

    def test_cancellation_clamp(self):
        assert _clamp_g_tilde(-1e-13) == 0.0
        assert _clamp_g_tilde(0.0) == 0.0
        assert _clamp_g_tilde(2.0) == 2.0
        with pytest.raises(InternalConsistencyError):
            _clamp_g_tilde(-1e-11)

    def test_point_just_outside_the_ball_clamps_to_zero(self):
        # ||x||_1 = 37 + 9.3e-13 is inside the 1e-10 feasibility slack, and
        # g_tilde = -2 * 9.3e-13 = -1.86e-12 is below the fixed slack alone
        x, g = np.array([37.0 + 9.3e-13, 0.0]), np.array([-2.0, 0.0])
        est = gap_estimate([x], [g], np.zeros(0), [L1Ball(2, 37.0)], GapConstants(1.0, 1e4))
        assert est.g_tilde_blocks == (0.0,)
        assert _clamp_g_tilde(-1.86e-12, g) == 0.0
        with pytest.raises(InternalConsistencyError):
            _clamp_g_tilde(-2.1e-10, g)


def _signed_vertices(ball):
    for j in range(ball.dim):
        for s in (1.0, -1.0):
            v = np.zeros(ball.dim)
            v[j] = s * ball.radius
            yield v


class TestExactGap:
    def test_zero_at_interior_optimum(self):
        problem = make_quadratic(seed=5, p=4, q=3, l_nabla=2.0)
        delta = float(np.sum(np.abs(problem.x_star_blocks()[0]))) + 0.5
        balls = [L1Ball(4, delta)]
        constants = GapConstants.from_blocks(2.0, [2.0 * 2.0 * (2 * delta) ** 2], balls)
        g = exact_gap(problem, problem.x_star_blocks(), problem.y_star(), balls, constants)
        assert g == pytest.approx(0.0, abs=1e-12)

    def test_requires_exact_gradient(self):
        class Opaque:
            block_dims = (2,)
            y_dim = 0

            def draw(self, rng, n):
                return np.zeros((n, 2))

            def gradient_mean(self, x_blocks, y, batch):
                return GradientEstimate((np.zeros(2),), np.zeros(0), lambda: 0.0)

        assert isinstance(Opaque(), StochasticProblem)
        with pytest.raises(NotImplementedError):
            exact_gap(Opaque(), [np.zeros(2)], np.zeros(0), [L1Ball(2, 1.0)], GapConstants(1.0, 8.0))

    def test_estimator_mean_dominates_exact_gap(self):
        # the gap is a convex function of the gradients, so the sampled
        # estimator sits above the exact value on average
        problem = make_quadratic(seed=9, p=3, q=2, l_nabla=1.0, noise_sigma=2.0)
        delta = 1.0
        balls = [L1Ball(3, delta)]
        constants = GapConstants.from_blocks(1.0, [8.0 * delta ** 2], balls)
        rng = np.random.default_rng(123)
        for _ in range(5):
            raw = rng.uniform(-1.0, 1.0, 3)
            x = [raw / max(1.0, np.sum(np.abs(raw)) / delta)]
            y = rng.standard_normal(2)
            g_exact = exact_gap(problem, x, y, balls, constants)
            gx, gy = problem.exact_gradient(x, y)
            values = []
            for z in problem.draw(rng, 4000):
                zx, zy = z[:3], z[3:]
                est = gap_estimate(x, [gx[0] + zx], gy + zy, balls, constants)
                values.append(est.value)
            values = np.asarray(values)
            slack = 3.0 * values.std() / np.sqrt(len(values))
            assert values.mean() >= g_exact - slack


class TestSuboptimalityBound:
    def test_gap_bounds_distance_to_optimum(self):
        # F - F* <= max(sqrt(C/2L), ||y - y*||) * G on random feasible points
        rng = np.random.default_rng(17)
        problem = make_quadratic(seed=31, p=4, q=3, l_nabla=3.0)
        delta = float(np.sum(np.abs(problem.x_star_blocks()[0]))) + 1.0
        balls = [L1Ball(4, delta)]
        c_bar = 2.0 * problem.l_nabla * (2 * delta) ** 2
        constants = GapConstants.from_blocks(problem.l_nabla, [c_bar], balls)
        radius_term = np.sqrt(constants.c_bar_total / (2.0 * problem.l_nabla))
        for _ in range(200):
            raw = rng.uniform(-1.0, 1.0, 4)
            x = [raw / max(1.0, np.sum(np.abs(raw)) / delta)]
            y = problem.y_star() + rng.uniform(-2.0, 2.0, 3)
            gap_value = exact_gap(problem, x, y, balls, constants)
            f_val = problem.exact_objective(x, y)
            bound = max(radius_term, float(np.linalg.norm(y - problem.y_star()))) * gap_value
            assert f_val <= bound * (1.0 + 1e-9) + 1e-12
