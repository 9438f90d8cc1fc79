"""Engine steps against worked values, plus run-level contracts."""

import json
from dataclasses import replace

import numpy as np
import pytest

import fwsd.geometry
import quadratic_reference as ref
from fwsd.gap import InternalConsistencyError, dual_norm
from fwsd.geometry import L1Ball, Norm, RowError
from fwsd.optimizer import (
    AltStepInfo,
    BatchSchedule,
    Iterate,
    OptimizerConfig,
    _mean_gradient,
    alt_step,
    derive_rng_streams,
    fw_step,
    iterates_digest,
    run,
    sd_step,
)
from fwsd.problems import GradientEstimate, make_quadratic


def config_for(balls, iterations=10, seed=0, **kw):
    c_bars = tuple(2.0 * kw.get("l_nabla", 1.0) * b.diameter() ** 2 for b in balls)
    args = dict(
        l_nabla=1.0,
        c_bar_per_block=c_bars,
        iterations=iterations,
        seed=seed,
    )
    args.update(kw)
    return OptimizerConfig(**args)


class TestBatchSchedule:
    def test_constant(self):
        s = BatchSchedule.constant(16)
        assert s.batch_size(0, 100) == 16
        assert s.batch_size(99, 100) == 16

    def test_linear_in_total(self):
        s = BatchSchedule(kind="linear-in-total")
        assert s.batch_size(0, 250) == 250
        assert s.batch_size(249, 250) == 250

    def test_linear_in_iter(self):
        s = BatchSchedule(kind="linear-in-iter")
        assert s.batch_size(0, 250) == 1
        assert s.batch_size(9, 250) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchSchedule.constant(0)
        with pytest.raises(ValueError):
            BatchSchedule(kind="quadratic")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(l_nabla=-1.0, c_bar_per_block=(8.0,), iterations=5, seed=0)
        with pytest.raises(ValueError):
            OptimizerConfig(l_nabla=1.0, c_bar_per_block=(0.0,), iterations=5, seed=0)
        with pytest.raises(ValueError):
            OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0,), iterations=-1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_c_bar(self, bad):
        with pytest.raises(ValueError, match="c_bar"):
            OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0, bad), iterations=5, seed=0)


class TestRngStreams:
    def test_same_seed_same_streams(self):
        a = derive_rng_streams(42)
        b = derive_rng_streams(42)
        assert np.array_equal(a.data.standard_normal(8), b.data.standard_normal(8))
        assert np.array_equal(a.output_draw.integers(0, 1000, 8),
                              b.output_draw.integers(0, 1000, 8))

    def test_streams_are_distinct(self):
        s = derive_rng_streams(42)
        assert not np.array_equal(s.data.standard_normal(8), s.alt_batches.standard_normal(8))

    def test_consuming_one_stream_leaves_others_alone(self):
        a = derive_rng_streams(7)
        b = derive_rng_streams(7)
        a.data.standard_normal(1000)
        assert np.array_equal(a.alt_batches.standard_normal(4), b.alt_batches.standard_normal(4))


def one_row(ball, x, g, cfg):
    """A one-block group: the kernels' ``(x, g, ball, c_bar)`` arguments."""
    c_bar = np.array(cfg.c_bar_per_block)
    return np.array([x], dtype=np.float64), np.array([g], dtype=np.float64), ball, c_bar


class TestFwStep:
    def test_worked_example(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball])
        x_bar, g_tildes, alphas = fw_step(*one_row(ball, np.zeros(2), [1.0, -2.0], cfg))
        assert g_tildes.tolist() == [2.0]
        assert alphas.tolist() == [0.25]
        np.testing.assert_array_equal(x_bar[0], [0.0, 0.25])

    def test_clamp_caps_step_at_one(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball], c_bar_per_block=(8.0,))
        x_bar, g_tildes, alphas = fw_step(*one_row(ball, np.zeros(2), [100.0, 0.0], cfg))
        assert g_tildes[0] == 100.0
        assert alphas.tolist() == [1.0]
        np.testing.assert_array_equal(x_bar[0], [-1.0, 0.0])

    def test_stationary_block_does_not_move(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball])
        x = np.array([-1.0, 0.0])  # the oracle vertex for this gradient
        x_bar, g_tildes, alphas = fw_step(*one_row(ball, x, [5.0, 0.0], cfg))
        assert g_tildes.tolist() == [0.0]
        assert alphas.tolist() == [0.0]
        np.testing.assert_array_equal(x_bar[0], x)


def with_norm(h, cfg):
    """`sd_step`'s ``(h_hat, h_norm, config)`` arguments, the norm as `run` computes it."""
    h = np.array(h, dtype=np.float64)
    return h, dual_norm(h, cfg.norm_y), cfg


class TestSdStep:
    def test_l2_worked_example(self):
        cfg = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(), iterations=1, seed=0)
        y_next, alpha = sd_step(np.zeros(2), *with_norm([3.0, 4.0], cfg))
        assert alpha == 2.5
        np.testing.assert_allclose(y_next, [-1.5, -2.0])

    def test_l1_worked_example(self):
        cfg = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(), iterations=1, seed=0,
                              norm_y=Norm.L1)
        y_next, alpha = sd_step(np.zeros(2), *with_norm([3.0, 4.0], cfg))
        assert alpha == 2.0
        np.testing.assert_array_equal(y_next, [0.0, -2.0])

    def test_zero_gradient_is_a_no_op(self):
        cfg = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(), iterations=1, seed=0)
        y = np.array([1.0, -2.0])
        y_next, alpha = sd_step(y, *with_norm(np.zeros(2), cfg))
        assert alpha == 0.0
        np.testing.assert_array_equal(y_next, y)

    def test_l1_changes_single_coordinate(self):
        cfg = OptimizerConfig(l_nabla=2.0, c_bar_per_block=(), iterations=1, seed=0,
                              norm_y=Norm.L1)
        y = np.array([1.0, 2.0, 3.0])
        y_next, alpha = sd_step(y, *with_norm([0.5, -4.0, 1.0], cfg))
        assert alpha == 1.0
        np.testing.assert_array_equal(y_next, [1.0, 3.0, 3.0])


class TestAltStep:
    def test_worked_example(self):
        ball = L1Ball(3, 1.0)
        cfg = config_for([ball])  # c_bar = 8
        x_next, infos = alt_step(*one_row(ball, [0.5, -0.5, 0.0], [1.0, -2.0, 0.0], cfg))
        info = infos[0]
        assert info.taken
        assert info.a_value == 0.5
        assert info.alpha_stop == 1.0
        assert info.beta_bar == 0.0625
        np.testing.assert_array_equal(x_next[0], [0.53125, -0.46875, 0.0])

    def test_rejected_direction_leaves_block_unchanged(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball])
        x = np.array([1.0, 0.0])  # vertex, outward pull
        x_next, infos = alt_step(*one_row(ball, x, [-1.0, 0.0], cfg))
        assert not infos[0].taken
        np.testing.assert_array_equal(x_next[0], x)

    def test_cap_binding_zeroes_coordinate_exactly(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball], c_bar_per_block=(0.25,))
        x_next, infos = alt_step(*one_row(ball, [0.5, -0.5], [2.0, -1.0], cfg))
        info = infos[0]
        assert info.taken
        assert info.beta_bar == info.alpha_stop == 1.0
        assert x_next[0][0] == 0.0  # exactly, not rounding dust
        np.testing.assert_array_equal(x_next[0], [0.0, -1.0])

    @pytest.mark.parametrize("away_tol", [1e-12, 1e-13, 0.0])
    def test_face_is_classified_at_face_tol_whatever_away_tol(self, away_tol, monkeypatch):
        # 5e-13 lies inside FACE_TOL, so the face is {0, 1}: the away vertex
        # is e_0 and the step is rejected; 5e-12 lies outside it, so the
        # away vertex is e_2 and the cap drops that coordinate to exactly 0.
        # The descent margin AWAY_TOL plays no part in the face.
        monkeypatch.setattr(fwsd.geometry, "AWAY_TOL", away_tol)
        ball = L1Ball(3, 1.0)
        cfg = config_for([ball])
        g = np.array([0.0, 0.0, 1.0])
        x = np.array([0.6, 0.4 - 5e-13, 5e-13])
        x_next, infos = alt_step(*one_row(ball, x, g, cfg))
        assert not infos[0].taken
        np.testing.assert_array_equal(x_next[0], x)
        x = np.array([0.6, 0.4 - 5e-12, 5e-12])
        x_next, infos = alt_step(*one_row(ball, x, g, cfg))
        assert infos[0].taken and infos[0].beta_bar == infos[0].alpha_stop
        assert x_next[0][2] == 0.0
        assert ball.contains(x_next[0])

    def test_blocks_are_independent(self):
        # two rows of one group: each row's step depends on that row only
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball, ball])
        x_next, infos = alt_step(
            np.array([[0.5, -0.5], [1.0, 0.0]]), np.array([[2.0, -1.0], [-1.0, 0.0]]),
            ball, np.array(cfg.c_bar_per_block),
        )
        assert infos[0].taken and not infos[1].taken
        assert infos.taken.tolist() == [True, False]
        np.testing.assert_array_equal(x_next[1], [1.0, 0.0])

    def test_infos_are_built_per_row_on_access(self):
        ball = L1Ball(2, 1.0)
        cfg = config_for([ball, ball])
        _, infos = alt_step(np.array([[0.5, -0.5], [1.0, 0.0]]),
                            np.array([[2.0, -1.0], [-1.0, 0.0]]),
                            ball, np.array(cfg.c_bar_per_block))
        assert len(infos) == 2
        assert list(infos) == [infos[0], infos[1]]
        assert infos[1] == AltStepInfo(taken=False, a_value=0.0, alpha_stop=0.0, beta_bar=0.0)
        assert type(infos[0].taken) is bool and type(infos[0].beta_bar) is float
        assert infos[0].beta_bar == float(infos.beta_bar[0])
        with pytest.raises(IndexError):
            infos[2]


class TestSampleGradientBatch:
    # the engine's gradient phase: draw a batch, then one gradient_mean call
    def test_mean_matches_fixed_order_loop(self):
        problem = make_quadratic(seed=23, p=3, q=2, l_nabla=1.0, noise_sigma=1.0)
        x = [np.array([0.1, 0.2, -0.3])]
        y = np.array([0.0, 0.5])
        batch = problem.draw(np.random.default_rng(88), 7)
        est = _mean_gradient(problem, x, y, batch)
        acc_g = np.zeros(3)
        acc_h = np.zeros(2)
        for i in range(len(batch)):
            one = problem.gradient_mean(x, y, batch[i:i + 1])
            acc_g += one.g_blocks[0]
            acc_h += one.h
        np.testing.assert_array_equal(est.g_blocks[0], acc_g / 7)
        np.testing.assert_array_equal(est.h, acc_h / 7)
        assert est.objective() == ref.objective_estimate(problem, x, y, batch)

    def test_rejects_empty_batch(self):
        problem = make_quadratic(seed=23, p=2, q=1, l_nabla=1.0)
        batch = problem.draw(np.random.default_rng(0), 0)
        with pytest.raises(ValueError, match="empty batch"):
            _mean_gradient(problem, [np.zeros(2)], np.zeros(1), batch)


def small_run(seed=0, iterations=40, noise=0.5, alternative=True, **kw):
    problem = make_quadratic(seed=101, p=4, q=3, l_nabla=2.0, noise_sigma=noise)
    delta = 1.0
    balls = [L1Ball(4, delta)]
    cfg = config_for(balls, iterations=iterations, seed=seed, l_nabla=2.0,
                     alternative_directions=alternative,
                     batch_schedule=BatchSchedule.constant(4), **kw)
    x0 = [np.zeros(4)]
    y0 = np.zeros(3)
    return problem, balls, cfg, run(problem, balls, y0, x0, cfg)


class _NonFiniteFrom:
    """A quadratic whose gradient has a NaN in block 0 from batch ``first_bad`` on."""

    def __init__(self, inst, first_bad):
        self.inst, self.first_bad, self.batches = inst, first_bad, 0
        self.block_dims, self.y_dim = inst.block_dims, inst.y_dim

    def draw(self, rng, n):
        return self.inst.draw(rng, n)

    def gradient_mean(self, x_blocks, y, batch):
        est = self.inst.gradient_mean(x_blocks, y, batch)
        if self.batches >= self.first_bad:
            est.g_blocks[0][0] = np.nan
        self.batches += 1
        return est


class _ObjectiveFrom:
    """A quadratic whose batch objective reads ``value`` from batch ``first_bad`` on."""

    def __init__(self, inst, first_bad, value):
        self.inst, self.first_bad, self.value, self.batches = inst, first_bad, value, 0
        self.block_dims, self.y_dim = inst.block_dims, inst.y_dim

    def draw(self, rng, n):
        return self.inst.draw(rng, n)

    def gradient_mean(self, x_blocks, y, batch):
        est = self.inst.gradient_mean(x_blocks, y, batch)
        if self.batches >= self.first_bad:
            est = GradientEstimate(est.g_blocks, est.h, lambda: self.value)
        self.batches += 1
        return est


class _CountingReads:
    """A quadratic that counts, per gradient pass, how often its objective is read."""

    def __init__(self, inst):
        self.inst, self.reads = inst, []
        self.block_dims, self.y_dim = inst.block_dims, inst.y_dim

    def draw(self, rng, n):
        return self.inst.draw(rng, n)

    def gradient_mean(self, x_blocks, y, batch):
        est = self.inst.gradient_mean(x_blocks, y, batch)
        at = len(self.reads)
        self.reads.append(0)

        def objective():
            self.reads[at] += 1
            return est.objective()
        return replace(est, objective=objective)


class _Stalled(RuntimeError):
    def __init__(self, what, k):
        super().__init__(f"{what} stalled at {k}")


class _RaisingGradient:
    """A one-block problem whose ``gradient_mean`` raises ``error``."""

    block_dims, y_dim = (2,), 1

    def __init__(self, error):
        self.error = error

    def draw(self, rng, n):
        return n

    def gradient_mean(self, x_blocks, y, batch):
        raise self.error


class TestRun:
    @pytest.mark.parametrize("error, kind", [
        (json.JSONDecodeError("bad", "doc", 0), ValueError),
        (_Stalled("solver", 3), RuntimeError),
        (RowError("bad row", 1), RowError),
        (InternalConsistencyError("negative gap"), InternalConsistencyError),
        (ValueError("bad"), ValueError)],
        ids=["JSONDecodeError", "stalled", "RowError", "InternalConsistencyError", "ValueError"])
    def test_user_problem_error_keeps_its_message_and_cause(self, error, kind):
        # a type whose constructor takes more than a message is re-raised as its built-in base
        balls = [L1Ball(2, 1.0)]
        with pytest.raises(kind) as raised:
            run(_RaisingGradient(error), balls, np.zeros(1), [np.zeros(2)], config_for(balls))
        assert type(raised.value) is kind
        assert str(raised.value) == f"{error} at iteration 0"
        assert raised.value.__cause__ is error

    def test_same_seed_reproduces_bit_for_bit(self):
        _, _, _, a = small_run(seed=5)
        _, _, _, b = small_run(seed=5)
        assert a.iterates_digest == b.iterates_digest
        assert a.output_index == b.output_index
        assert [r.gap_hat for r in a.trace] == [r.gap_hat for r in b.trace]
        assert [r.objective_estimate for r in a.trace] == [r.objective_estimate for r in b.trace]

    def test_objective_read_once_per_iteration_on_the_data_batch(self):
        # each iteration makes a data pass, then an away-step check pass
        problem = make_quadratic(seed=101, p=4, q=3, l_nabla=2.0, noise_sigma=0.5)
        balls = [L1Ball(4, 1.0)]
        counting = _CountingReads(problem)
        run(counting, balls, np.zeros(3), [np.zeros(4)],
            config_for(balls, iterations=10, l_nabla=2.0, alternative_directions=True))
        assert counting.reads == [1, 0] * 10

    def test_different_seed_differs(self):
        _, _, _, a = small_run(seed=5)
        _, _, _, b = small_run(seed=6)
        assert a.iterates_digest != b.iterates_digest

    def test_trace_contract(self):
        _, balls, _, result = small_run(seed=7)
        assert len(result.trace) == 40
        for rec in result.trace:
            assert all(0.0 <= a <= 1.0 for a in rec.alpha_bar_blocks)
            assert rec.alpha_sd >= 0.0
            assert rec.gap_hat >= 0.0
            assert rec.beta_bar_blocks is not None
            assert all(b >= 0.0 for b in rec.beta_bar_blocks)
            assert len(rec.nnz_blocks) == 1

    def test_iterates_stay_feasible(self):
        _, balls, _, result = small_run(seed=8, iterations=60)
        for it in (result.output_iterate, result.final_iterate):
            for xb, ball in zip(it.x_blocks, balls):
                assert ball.contains(xb)

    def test_zero_iterations_returns_start(self):
        problem = make_quadratic(seed=101, p=2, q=2, l_nabla=1.0)
        balls = [L1Ball(2, 1.0)]
        cfg = config_for(balls, iterations=0, seed=3)
        x0 = [np.array([0.25, -0.25])]
        y0 = np.array([1.0, 2.0])
        result = run(problem, balls, y0, x0, cfg)
        assert result.trace == []
        assert result.output_index == 0
        np.testing.assert_array_equal(result.output_iterate.x_blocks[0], x0[0])
        np.testing.assert_array_equal(result.final_iterate.y, y0)

    def test_output_iterate_is_one_of_the_iterates(self):
        _, _, _, result = small_run(seed=9, iterations=15)
        assert 0 <= result.output_index <= 15
        assert result.output_iterate.k == result.output_index

    def test_pure_descent_without_blocks(self):
        problem = make_quadratic(seed=7, p=0, q=5, l_nabla=1.0)
        cfg = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(), iterations=50, seed=1)
        result = run(problem, [], np.ones(5) * 2.0, [], cfg)
        first = result.trace[0]
        last = result.trace[-1]
        assert last.objective_estimate < first.objective_estimate
        # without constrained blocks the gap is the free-gradient norm alone
        gx, gy = problem.exact_gradient([], np.ones(5) * 2.0)
        assert first.gap_hat == dual_norm(gy, Norm.L2)

    def test_objective_decreases_deterministically(self):
        problem = make_quadratic(seed=55, p=3, q=2, l_nabla=2.0, noise_sigma=0.0)
        balls = [L1Ball(3, 1.0)]
        cfg = config_for(balls, iterations=200, seed=0, l_nabla=2.0,
                         alternative_directions=True)
        result = run(problem, balls, np.zeros(2), [np.zeros(3)], cfg)
        objs = [r.objective_estimate for r in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        final = problem.exact_objective(result.final_iterate.x_blocks, result.final_iterate.y)
        assert final < objs[0]

    def test_validation_errors(self):
        problem = make_quadratic(seed=101, p=4, q=3, l_nabla=2.0)
        balls = [L1Ball(4, 1.0)]
        cfg = config_for(balls, l_nabla=2.0)
        with pytest.raises(ValueError):
            run(problem, balls, np.zeros(3), [np.ones(4)], cfg)  # infeasible x0
        with pytest.raises(ValueError):
            run(problem, balls, np.zeros(2), [np.zeros(4)], cfg)  # wrong y dim
        with pytest.raises(ValueError, match="^y0 contains non-finite entries$"):
            run(problem, balls, np.array([0.0, np.nan, 0.0]), [np.zeros(4)], cfg)
        with pytest.raises(ValueError):
            run(problem, [L1Ball(3, 1.0)], np.zeros(3), [np.zeros(3)],
                config_for([L1Ball(3, 1.0)], l_nabla=2.0))  # dim mismatch vs problem
        bad = OptimizerConfig(l_nabla=2.0, c_bar_per_block=(1.0,), iterations=5, seed=0)
        with pytest.raises(ValueError):
            run(problem, balls, np.zeros(3), [np.zeros(4)], bad)  # c_bar too small

    @pytest.mark.parametrize("bad, message", [
        ([1.5, 0.0, 0.0], "x0 block is infeasible"),
        ([np.nan, 0.0, 0.0], "x0 contains non-finite entries"),
        ([0.0, -np.inf, 0.0], "x0 contains non-finite entries")],
        ids=["outside", "nan", "inf"])
    def test_bad_start_block_is_named(self, bad, message):
        # two groups of two blocks; the bad block 3 is inside the first group's ball only
        problem = make_quadratic(seed=7, p=(3, 3, 3, 3), q=1, l_nabla=1.0)
        balls = [L1Ball(3, 2.0)] * 2 + [L1Ball(3, 1.0)] * 2
        x0 = [np.zeros(3)] * 3 + [np.array(bad)]
        with pytest.raises(RowError, match=rf"^{message} \(block 3, in the start point\)$"):
            run(problem, balls, np.zeros(1), x0, config_for(balls))

    def test_start_block_past_the_count_is_not_named(self):
        # a block past the expected count has no index to name, but the run still says where
        problem = make_quadratic(seed=7, p=(3, 3), q=1, l_nabla=1.0)
        balls = [L1Ball(3, 1.0)] * 2
        for x0, message in (([np.zeros(3)] * 3, "x0 holds 3 blocks, expected 2"),
                            ([np.zeros(3)] * 2 + [["a", "b", "c"]], "x0 does not convert")):
            with pytest.raises(RowError, match=rf"^{message}.* \(in the start point\)$"):
                run(problem, balls, np.zeros(1), x0, config_for(balls))

    def test_step_failure_names_the_iteration(self):
        # from the fourth batch on the gradient is non-finite, so fw_step
        # fails at iteration 3; run keeps the type and the block and step
        problem = make_quadratic(seed=101, p=4, q=3, l_nabla=2.0)
        balls = [L1Ball(4, 1.0)]
        diverging = _NonFiniteFrom(problem, first_bad=3)
        with pytest.raises(RowError) as raised:
            run(diverging, balls, np.zeros(3), [np.zeros(4)], config_for(balls, l_nabla=2.0))
        assert str(raised.value) == ("g contains non-finite entries (block 0, in fw_step) "
                                     "at iteration 3")
        assert diverging.batches == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_objective_names_the_iteration(self, value):
        # the trace would store it as nan or inf and the run would go on
        problem = make_quadratic(seed=101, p=4, q=3, l_nabla=2.0)
        balls = [L1Ball(4, 1.0)]
        stub = _ObjectiveFrom(problem, first_bad=2, value=value)
        with pytest.raises(ValueError) as raised:
            run(stub, balls, np.zeros(3), [np.zeros(4)], config_for(balls, l_nabla=2.0))
        assert str(raised.value) == (f"objective_estimate is {value} (in the batch objective) "
                                     "at iteration 2")
        assert stub.batches == 3

    def test_digest_matches_helper_on_recorded_iterates(self):
        # replay the run by hand and hash the iterates with the public helper
        problem = make_quadratic(seed=77, p=2, q=2, l_nabla=1.0, noise_sigma=0.0)
        balls = [L1Ball(2, 1.0)]
        cfg = config_for(balls, iterations=5, seed=11)
        result = run(problem, balls, np.zeros(2), [np.zeros(2)], cfg)

        iterates = [Iterate((np.zeros(2),), np.zeros(2), 0)]
        x = np.zeros((1, 2))
        y = np.zeros(2)
        from fwsd.optimizer import fw_step as fws, sd_step as sds

        streams = derive_rng_streams(11)
        streams.output_draw.integers(0, 6)
        for k in range(5):
            batch = problem.draw(streams.data, 1)
            est = _mean_gradient(problem, list(x), y, batch)
            x, _, _ = fws(x, np.array(est.g_blocks), balls[0], np.array(cfg.c_bar_per_block))
            y, _ = sds(y, est.h, dual_norm(est.h, cfg.norm_y), cfg)
            iterates.append(Iterate((x[0].copy(),), y.copy(), k + 1))
        assert iterates_digest(iterates) == result.iterates_digest