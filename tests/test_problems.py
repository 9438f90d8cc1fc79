"""Quadratic instances: construction, gradients, and the noise model."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadratic_reference as ref
from fwsd.problems import (
    GradientEstimate,
    StochasticProblem,
    finite_difference_check,
    make_quadratic,
)


class TestMakeQuadratic:
    def test_rejects_empty_problem(self):
        with pytest.raises(ValueError):
            make_quadratic(seed=0, p=0, q=0, l_nabla=1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_quadratic(seed=0, p=2, q=1, l_nabla=0.0)
        for sigma in (-1.0, float("nan"), float("inf")):  # NaN or inf: the run fails at iteration 0
            with pytest.raises(ValueError, match="^noise_sigma must be nonnegative and finite$"):
                make_quadratic(seed=0, p=2, q=1, l_nabla=1.0, noise_sigma=sigma)
        with pytest.raises(ValueError):
            make_quadratic(seed=0, p=[2, 0], q=1, l_nabla=1.0)
        with pytest.raises(ValueError, match="^free dimension must be nonnegative$"):
            make_quadratic(seed=0, p=2, q=-1, l_nabla=1.0)

    def test_top_eigenvalue_equals_l_nabla(self):
        problem = make_quadratic(seed=1, p=5, q=3, l_nabla=4.0)
        top = np.linalg.eigvalsh(problem.q_matrix)[-1]
        assert top == pytest.approx(4.0, rel=1e-12)

    def test_multi_block_dimensions(self):
        problem = make_quadratic(seed=2, p=[3, 2], q=4, l_nabla=1.0)
        assert problem.block_dims == (3, 2)
        assert problem.y_dim == 4
        assert problem.dim == 9
        gx, gy = problem.exact_gradient([np.zeros(3), np.zeros(2)], np.zeros(4))
        assert [g.shape for g in gx] == [(3,), (2,)]
        assert gy.shape == (4,)

    def test_matches_instance_protocol(self):
        assert isinstance(make_quadratic(seed=3, p=2, q=2, l_nabla=1.0), StochasticProblem)

    def test_no_constrained_part(self):
        problem = make_quadratic(seed=4, p=0, q=3, l_nabla=1.0)
        assert problem.block_dims == ()
        gx, gy = problem.exact_gradient([], np.zeros(3))
        assert gx == []
        assert gy.shape == (3,)

    def test_objective_zero_at_minimizer(self):
        problem = make_quadratic(seed=5, p=3, q=2, l_nabla=2.0)
        value = problem.exact_objective(problem.x_star_blocks(), problem.y_star())
        assert value == pytest.approx(0.0, abs=1e-15)
        gx, gy = problem.exact_gradient(problem.x_star_blocks(), problem.y_star())
        assert np.max(np.abs(gx[0])) == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(gy)) == pytest.approx(0.0, abs=1e-14)


class TestGradients:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            problem = make_quadratic(seed=seed, p=4, q=3, l_nabla=2.0)
            x = [rng.uniform(-0.5, 0.5, 4)]
            y = rng.uniform(-0.5, 0.5, 3)
            assert finite_difference_check(problem, x, y, epsilon=1e-5) < 1e-6

    def test_sigma_zero_means_exact_gradients(self):
        problem = make_quadratic(seed=11, p=3, q=2, l_nabla=1.0, noise_sigma=0.0)
        rng = np.random.default_rng(0)
        x = [np.array([0.1, -0.2, 0.3])]
        y = np.array([0.5, -0.5])
        batch = problem.draw(rng, 4)
        assert np.all(batch == 0.0)
        gx_exact, gy_exact = problem.exact_gradient(x, y)
        one = problem.gradient_mean(x, y, batch[:1])
        np.testing.assert_array_equal(one.g_blocks[0], gx_exact[0])
        np.testing.assert_array_equal(one.h, gy_exact)

    def test_sampled_gradients_are_unbiased(self):
        problem = make_quadratic(seed=13, p=3, q=2, l_nabla=1.0, noise_sigma=1.5)
        rng = np.random.default_rng(99)
        x = [np.array([0.2, 0.0, -0.1])]
        y = np.array([0.3, 0.1])
        gx_exact, gy_exact = problem.exact_gradient(x, y)
        batch = problem.draw(rng, 20000)
        ones = [problem.gradient_mean(x, y, batch[i:i + 1]) for i in range(len(batch))]
        stacked = np.array([np.concatenate([one.g_blocks[0], one.h]) for one in ones])
        exact = np.concatenate([gx_exact[0], gy_exact])
        err = np.abs(stacked.mean(axis=0) - exact)
        se = stacked.std(axis=0) / np.sqrt(len(batch))
        assert np.all(err <= 4.0 * se + 1e-12)

    def test_noise_second_moment(self):
        problem = make_quadratic(seed=17, p=4, q=4, l_nabla=1.0, noise_sigma=2.0)
        rng = np.random.default_rng(5)
        batch = problem.draw(rng, 50000)
        second_moment = float(np.mean(np.sum(batch ** 2, axis=1)))
        assert second_moment == pytest.approx(4.0, rel=0.05)

    def test_objective_estimate_is_unbiased(self):
        problem = make_quadratic(seed=19, p=2, q=2, l_nabla=1.0, noise_sigma=1.0)
        rng = np.random.default_rng(21)
        x = [np.array([0.3, -0.2])]
        y = np.array([0.1, 0.4])
        exact = problem.exact_objective(x, y)
        estimates = [problem.gradient_mean(x, y, problem.draw(rng, 8)).objective()
                     for _ in range(4000)]
        estimates = np.asarray(estimates)
        se = estimates.std() / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 4.0 * se


@st.composite
def quadratic_batches(draw):
    """An instance, a point and a drawn batch of 1-40 scenarios."""
    p = draw(st.one_of(st.just(0), st.integers(1, 30),
                       st.lists(st.integers(1, 30), min_size=2, max_size=5)))
    q = draw(st.integers(0 if p else 1, 12))
    sigma = draw(st.sampled_from([0.0, 1.5]))
    inst = make_quadratic(seed=draw(st.integers(0, 2**16)), p=p, q=q, l_nabla=2.0,
                          noise_sigma=sigma)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = [rng.uniform(-1.0, 1.0, d) for d in inst.block_dims]
    y = rng.uniform(-1.0, 1.0, q)
    return inst, x, y, inst.draw(rng, draw(st.integers(1, 40)))


def _bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestGradientMean:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(quadratic_batches())
    def test_matches_per_scenario_fold_bit_for_bit(self, case):
        inst, x, y, batch = case
        est = inst.gradient_mean(x, y, batch)
        want_g, want_h = ref.mean_gradient(inst, x, y, batch)
        assert _bytes(est.g_blocks) == _bytes(want_g)
        assert _bytes([est.h]) == _bytes([want_h])
        want_objective = ref.objective_estimate(inst, x, y, batch)
        assert np.float64(est.objective()).tobytes() == np.float64(want_objective).tobytes()
        for z in batch[:3]:  # one scenario is a batch of one
            one = inst.gradient_mean(x, y, z[None, :])
            want_g, want_h = ref.gradient_at(inst, x, y, z)
            assert _bytes(list(one.g_blocks) + [one.h]) == _bytes(want_g + [want_h])

    def test_rejects_empty_batch(self):
        inst = make_quadratic(seed=0, p=2, q=1, l_nabla=1.0)
        with pytest.raises(ValueError, match="empty batch"):
            inst.gradient_mean([np.zeros(2)], np.zeros(1), np.zeros((0, 3)))


class TestFiniteDifferenceCheck:
    def test_requires_exact_interface(self):
        class SampleOnly:
            block_dims = (2,)
            y_dim = 0

            def draw(self, rng, n):
                return np.zeros((n, 2))

            def gradient_mean(self, x_blocks, y, batch):
                return GradientEstimate((np.zeros(2),), np.zeros(0), lambda: 0.0)

        assert isinstance(SampleOnly(), StochasticProblem)
        with pytest.raises(NotImplementedError):
            finite_difference_check(SampleOnly(), [np.zeros(2)], np.zeros(0))
