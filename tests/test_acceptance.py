"""Acceptance suite: one test per numbered criterion.

Each criterion gets exactly one test function, so ``pytest -v`` prints one
pass/fail line per criterion. The suite checks the exact oracles against
brute-force enumeration, verifies the analytic bounds that justify the step
sizes, replays the engine against a straight-line reimplementation, runs a
small qualitative training study, and reruns the command-line interface to
confirm byte-for-byte reproducibility. Every tolerance is stated inline;
runtime budgets are asserted where a criterion carries one.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import quadratic_reference
from fwsd import cli
from fwsd.gap import GapConstants, exact_gap, gap_estimate
from fwsd.geometry import L1Ball, Norm, away_rows, face_rows, frank_wolfe_rows
from fwsd.optimizer import (
    BatchSchedule,
    OptimizerConfig,
    alt_step,
    derive_rng_streams,
    run,
)
from fwsd.problems import finite_difference_check, make_quadratic
from fwsd.sparse_net import (
    Activation,
    Dataset,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    ParamLayout,
    SynthSpec,
    evaluate,
    generate_synthetic,
    init_params,
    nnz_metrics,
)


def _elapsed_under(started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"runtime budget exceeded: {elapsed:.1f}s >= {limit}s"


def _random_boundary_point(rng, dim: int, radius: float) -> np.ndarray:
    """Random point with ||x||_1 == radius and a random signed support."""
    s = int(rng.integers(1, dim + 1))
    support = rng.choice(dim, size=s, replace=False)
    signs = rng.choice([-1.0, 1.0], size=s)
    weights = rng.dirichlet(np.ones(s))
    # keep every supported coordinate well away from the zero tolerance
    weights = 0.9 * weights + 0.1 / s
    x = np.zeros(dim)
    x[support] = signs * weights * radius
    return x


def _random_interior_point(rng, dim: int, radius: float, fill: float) -> np.ndarray:
    x = _random_boundary_point(rng, dim, radius)
    return x * fill


# ------------------------------------------------------------- criterion 1


def test_criterion_01_oracles_match_brute_force_enumeration():
    """The vertices of frank_wolfe_rows and away_rows agree exactly with enumeration, dims 1-8.

    The Frank-Wolfe vertex minimizes ``g @ v`` over the ball's 2 * dim signed
    vertices; the away vertex of a boundary point maximizes ``g @ v`` over the
    signed vertices of its minimal face. Both kernels return ``x - v``, which
    has to equal ``x - v`` for the enumerated ``v`` to the bit.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for dim in range(1, 9):
        for _ in range(1000):
            radius = float(rng.uniform(0.5, 4.0))
            ball = L1Ball(dim, radius)

            x = _random_interior_point(rng, dim, radius, float(rng.uniform(0.0, 1.0)))
            g = rng.standard_normal(dim)
            (fw,), (gap,) = frank_wolfe_rows(ball, x[None, :], g[None, :])
            best = None
            for j in range(dim):
                for sign in (1, -1):
                    value = np.zeros(dim)
                    value[j] = sign * radius
                    obj = float(g @ value)
                    if best is None or obj < best[0]:
                        best = (obj, value)
            assert np.array_equal(fw, x - best[1])
            assert gap == float(g @ (x - best[1]))

            x = _random_boundary_point(rng, dim, radius)
            faces = face_rows(ball, x[None, :])
            (face,), (on_boundary,) = faces.sign, faces.on_boundary
            assert on_boundary
            g = rng.standard_normal(dim)
            (d,), _, _, (index,), _, _ = away_rows(ball, x[None, :], g[None, :])
            best = None
            for j in np.flatnonzero(face).tolist():
                value = np.zeros(dim)
                value[j] = face[j] * radius
                obj = float(g @ value)
                if best is None or obj > best[0]:
                    best = (obj, j, value)
            assert index == best[1]
            assert np.array_equal(d, x - best[2])
    _elapsed_under(started, 5.0)
    print("criterion 01: PASS (8000 frank_wolfe_rows and 8000 away_rows calls match enumeration)")


# ------------------------------------------------------------- criterion 2


def test_criterion_02_gradients_match_finite_differences():
    """Max relative error of backprop vs central differences below 1e-5."""
    started = time.perf_counter()
    rng = np.random.default_rng(91)
    worst = 0.0
    draws = 0
    for loss in (Loss.MSE, Loss.SOFTMAX_CE):
        for sizes in ((6, 5, 3), (10, 10, 5, 2)):
            spec = MLPSpec(layer_sizes=sizes, activation=Activation.SIGMOID,
                           loss=loss, fw_layers=(0,), deltas=(1.5,), bias=True)
            layout = ParamLayout(spec)
            features = rng.standard_normal((6, sizes[0]))
            if loss is Loss.MSE:
                targets = rng.standard_normal((6, sizes[-1]))
            else:
                targets = np.zeros((6, sizes[-1]))
                targets[np.arange(6), rng.integers(0, sizes[-1], 6)] = 1.0
            problem = MLPProblem(spec=spec, data=Dataset(features, targets))
            for _ in range(5):
                params = [
                    LayerParams(rng.normal(0.0, 0.6, (spec.fan_out(l), spec.fan_in(l))),
                                rng.normal(0.0, 0.3, spec.fan_out(l)))
                    for l in range(spec.n_layers)
                ]
                x_blocks, y = layout.pack(params)
                err = finite_difference_check(problem, list(x_blocks), y)
                worst = max(worst, err)
                draws += 1
    assert draws == 20
    assert worst < 1e-5, f"finite-difference mismatch {worst}"
    _elapsed_under(started, 30.0)
    print(f"criterion 02: PASS (20 draws, worst relative error {worst:.3g})")


# ------------------------------------------------------------- criterion 3


def test_criterion_03_squared_gap_rate_holds_deterministically():
    """min_k G_k^2 <= 8 L (F0 - F*) / (K + 1) with exact gradients."""
    started = time.perf_counter()
    l_nabla = 2.0
    checked = 0
    for seed in range(20):
        inst = make_quadratic(1000 + seed, 6, 4, l_nabla, noise_sigma=0.0)
        x_star = inst.x_star_blocks()[0]
        y_star = inst.y_star()
        radius = 1.25 * float(np.sum(np.abs(x_star))) + 0.5
        ball = L1Ball(6, radius)
        assert ball.contains(x_star)
        assert inst.exact_objective([x_star], y_star) == 0.0  # so F* = 0
        c_bar = 2.0 * l_nabla * ball.diameter() ** 2
        constants = GapConstants.from_blocks(l_nabla, (c_bar,), [ball])
        x0 = [np.zeros(6)]
        y0 = y_star + 0.5
        f0 = inst.exact_objective(x0, y0)
        for alternative in (False, True):
            config = OptimizerConfig(
                l_nabla=l_nabla, c_bar_per_block=(c_bar,), iterations=1000,
                seed=seed, batch_schedule=BatchSchedule.constant(1),
                alternative_directions=alternative)
            res = run(inst, [ball], y0, x0, config)
            # with zero noise the traced estimate is the exact gap
            assert res.trace[0].gap_hat == exact_gap(
                inst, x0, y0, [ball], constants)
            for rec in res.trace:
                assert all(a < 1.0 for a in rec.alpha_bar_blocks)  # clamp idle
            gaps = [rec.gap_hat for rec in res.trace]
            gaps.append(exact_gap(inst, res.final_iterate.x_blocks,
                                  res.final_iterate.y, [ball], constants))
            for k_limit in (10, 100, 1000):
                best = min(g * g for g in gaps[:k_limit + 1])
                bound = 8.0 * l_nabla * f0 / (k_limit + 1)
                assert best <= bound * (1.0 + 1e-9), (
                    f"seed {seed} alt {alternative} K {k_limit}: "
                    f"{best} > {bound}")
                checked += 1
    assert checked == 120
    _elapsed_under(started, 60.0)
    print("criterion 03: PASS (rate bound on 20 instances, both step modes)")


# ------------------------------------------------------------- criterion 4


def test_criterion_04_gap_bounds_suboptimality_on_convex_instances():
    """F - F* <= max(sqrt(C/2L), ||y - y*||) * G at random feasible points."""
    started = time.perf_counter()
    l_nabla = 1.5
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(5):
        inst = make_quadratic(2000 + seed, (3, 4), 3, l_nabla)
        stars = inst.x_star_blocks()
        y_star = inst.y_star()
        balls = [L1Ball(x.size, 1.25 * float(np.sum(np.abs(x))) + 0.1)
                 for x in stars]
        assert all(b.contains(x) for b, x in zip(balls, stars))
        assert inst.exact_objective(stars, y_star) == 0.0
        c_bars = tuple(2.0 * l_nabla * b.diameter() ** 2 for b in balls)
        constants = GapConstants.from_blocks(l_nabla, c_bars, balls)
        radius_term = math.sqrt(constants.c_bar_total / (2.0 * l_nabla))
        for t in range(200):
            fill = 1.0 if t % 4 == 0 else float(rng.uniform(0.0, 1.0))
            x_blocks = [_random_interior_point(rng, b.dim, b.radius, fill)
                        for b in balls]
            y = y_star + rng.standard_normal(3) * float(rng.uniform(0.0, 2.0))
            f_val = inst.exact_objective(x_blocks, y)
            gap = exact_gap(inst, x_blocks, y, balls, constants)
            r = float(np.linalg.norm(y - y_star))
            limit = max(radius_term, r) * gap
            assert f_val <= limit * (1.0 + 1e-9) + 1e-12, (
                f"seed {seed} point {t}: {f_val} > {limit}")
            checked += 1
    assert checked == 1000
    _elapsed_under(started, 10.0)
    print("criterion 04: PASS (1000 feasible points within the bound)")


# ------------------------------------------------------------- criterion 5


def test_criterion_05_sampled_gap_dominates_exact_gap_on_average():
    """Mean of the plug-in gap over 1e4 single draws >= exact gap - 3 SE."""
    started = time.perf_counter()
    l_nabla = 2.0
    n_draws = 10_000
    points = 0
    for seed in range(5):
        inst = make_quadratic(3000 + seed, (4, 3), 4, l_nabla, noise_sigma=3.0)
        balls = [L1Ball(4, 1.0), L1Ball(3, 0.8)]
        c_bars = tuple(2.0 * l_nabla * b.diameter() ** 2 for b in balls)
        constants = GapConstants.from_blocks(l_nabla, c_bars, balls)
        point_rng = np.random.default_rng(500 + seed)
        for _ in range(2):
            x_blocks = [_random_interior_point(point_rng, b.dim, b.radius, 0.9)
                        for b in balls]
            y = point_rng.standard_normal(4) * 1.5
            g_true = exact_gap(inst, x_blocks, y, balls, constants)
            batch = inst.draw(np.random.default_rng(17 * seed + 3), n_draws)
            values = np.empty(n_draws)
            for i in range(n_draws):
                one = inst.gradient_mean(x_blocks, y, batch[i:i + 1])
                values[i] = gap_estimate(x_blocks, one.g_blocks, one.h, balls,
                                         constants).value
            se = float(values.std(ddof=1)) / math.sqrt(n_draws)
            assert float(values.mean()) >= g_true - 3.0 * se, (
                f"seed {seed}: mean {values.mean()} below {g_true} - 3*{se}")
            points += 1
    assert points == 10
    _elapsed_under(started, 30.0)
    print("criterion 05: PASS (estimator mean dominates at 10 points)")


# ------------------------------------------------------------- criterion 6


def test_criterion_06_away_steps_preserve_signed_support():
    """Support never grows; a binding cap zeroes a coordinate exactly."""
    started = time.perf_counter()
    rng = np.random.default_rng(60)
    taken = capped = 0
    for trial in range(10_000):
        dim = int(rng.integers(2, 9))
        radius = float(rng.uniform(0.5, 2.0))
        ball = L1Ball(dim, radius)
        x = _random_boundary_point(rng, dim, radius)
        faces = face_rows(ball, x[None, :])
        (before,), (on_boundary,) = faces.sign, faces.on_boundary
        assert on_boundary
        g = rng.standard_normal(dim)
        # alternate the step constant so the in-face cap binds often
        c_bar = 8.0 * radius ** 2 if trial % 2 == 0 else 0.05
        config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(c_bar,),
                                 iterations=0, seed=0)
        (x_new,), (info,) = alt_step(x[None, :], g[None, :], ball,
                                     np.array(config.c_bar_per_block))
        if not info.taken:
            assert np.array_equal(x_new, x)
            continue
        taken += 1
        (after,) = face_rows(ball, x_new[None, :]).sign
        assert np.all(before[after > 0.0] > 0.0)
        assert np.all(before[after < 0.0] < 0.0)
        if info.beta_bar == info.alpha_stop:
            capped += 1
            shrank = np.count_nonzero(after) < np.count_nonzero(before)
            zeroed = np.any(x_new[before != 0.0] == 0.0)
            assert shrank or zeroed
    assert taken >= 1000 and capped >= 500, (taken, capped)
    _elapsed_under(started, 10.0)
    print(f"criterion 06: PASS ({taken} steps taken, {capped} hit the cap)")


# ------------------------------------------------------------- criterion 7


def test_criterion_07_away_steps_never_increase_objective():
    """With exact gradients an accepted away step never increases F."""
    started = time.perf_counter()
    l_nabla = 2.0
    checked = taken = 0
    for seed in range(10):
        inst = make_quadratic(4000 + seed, 5, 2, l_nabla)
        ball = L1Ball(5, 1.0)
        c_bar = 2.0 * l_nabla * ball.diameter() ** 2
        config = OptimizerConfig(l_nabla=l_nabla, c_bar_per_block=(c_bar,),
                                 iterations=0, seed=0)
        rng = np.random.default_rng(700 + seed)
        for t in range(100):
            fill = 1.0 if t % 2 == 0 else float(rng.uniform(0.0, 1.0))
            x = _random_interior_point(rng, 5, 1.0, fill)
            y = rng.standard_normal(2)
            g_blocks, _ = inst.exact_gradient([x], y)
            (x_new,), (info,) = alt_step(x[None, :], np.array(g_blocks), ball,
                                         np.array(config.c_bar_per_block))
            f_before = inst.exact_objective([x], y)
            f_after = inst.exact_objective([x_new], y)
            assert f_after <= f_before + 1e-10, (
                f"seed {seed} point {t}: {f_after} > {f_before}")
            checked += 1
            taken += int(info.taken)
    assert checked == 1000
    assert taken >= 900, taken  # the check must not be vacuous
    _elapsed_under(started, 10.0)
    print(f"criterion 07: PASS ({taken} accepted steps, none increased F)")


# ------------------------------------------------------------- criterion 8


def test_criterion_08_single_block_run_matches_monolithic_loop():
    """One-block engine run is bit-identical to a straight-line rewrite,
    and the multi-block gap equals the product-polytope gap exactly."""
    l_nabla = 1.8
    k_total = 50
    batch_size = 2
    seed = 11
    inst = make_quadratic(5000, 7, 5, l_nabla, noise_sigma=1.0)
    x_star = inst.x_star_blocks()[0]
    radius = 1.25 * float(np.sum(np.abs(x_star))) + 0.1
    ball = L1Ball(7, radius)
    c_bar = 2.0 * l_nabla * ball.diameter() ** 2
    config = OptimizerConfig(
        l_nabla=l_nabla, c_bar_per_block=(c_bar,), iterations=k_total,
        seed=seed, batch_schedule=BatchSchedule.constant(batch_size))
    x0 = np.zeros(7)
    y0 = np.full(5, 0.3)
    res = run(inst, [ball], y0, [x0], config)

    # straight-line single-variable rewrite of the same iteration
    streams = derive_rng_streams(seed)
    out_idx = int(streams.output_draw.integers(0, k_total + 1))
    x = x0.copy()
    y = y0.copy()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    scale = math.sqrt(2.0 * l_nabla / c_bar)
    rows = []
    for _ in range(k_total):
        batch = inst.draw(streams.data, batch_size)
        acc_g = acc_h = None
        for i in range(batch_size):
            one = inst.gradient_mean([x], y, batch[i:i + 1])
            g_blocks, h_part = one.g_blocks, one.h
            if acc_g is None:
                acc_g = np.array(g_blocks[0], dtype=np.float64)
                acc_h = np.array(h_part, dtype=np.float64)
            else:
                acc_g += g_blocks[0]
                acc_h += h_part
        g = acc_g / batch_size
        h = acc_h / batch_size
        objective = float(quadratic_reference.objective_estimate(inst, [x], y, batch))
        j = int(np.argmax(np.abs(g)))
        sign = 1 if g[j] <= 0.0 else -1
        v = np.zeros(7)
        v[j] = sign * radius
        g_tilde = max(0.0, float(g @ (x - v)))
        alpha = g_tilde / c_bar
        if alpha > 1.0:
            alpha = 1.0
        x = x + alpha * (v - x)
        h_norm = float(np.linalg.norm(h))
        gap = float(sum((g_tilde,))) * scale + h_norm
        alpha_sd = 0.0
        if h_norm > 0.0:
            alpha_sd = h_norm / (2.0 * l_nabla)
            direction = h / h_norm
            y = y - alpha_sd * direction
        digest.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
        rows.append((objective, gap, alpha, alpha_sd))

    assert res.output_index == out_idx
    assert res.iterates_digest == digest.hexdigest()
    assert np.array_equal(res.final_iterate.x_blocks[0], x)
    assert np.array_equal(res.final_iterate.y, y)
    for rec, (objective, gap, alpha, alpha_sd) in zip(res.trace, rows):
        assert rec.objective_estimate == objective
        assert rec.gap_hat == gap
        assert rec.alpha_bar_blocks == (alpha,)
        assert rec.alpha_sd == alpha_sd

    # per-block gaps sum exactly to the gap over the product of the balls
    rng = np.random.default_rng(88)
    balls = [L1Ball(3, 1.2), L1Ball(4, 0.7)]
    c_bars = tuple(2.0 * l_nabla * b.diameter() ** 2 for b in balls)
    constants = GapConstants.from_blocks(l_nabla, c_bars, balls)
    for _ in range(200):
        x_blocks = [_random_interior_point(rng, b.dim, b.radius, 0.8)
                    for b in balls]
        g_blocks = [rng.standard_normal(b.dim) for b in balls]
        h = rng.standard_normal(2)
        est = gap_estimate(x_blocks, g_blocks, h, balls, constants)
        brute = []
        for xb, gb, b in zip(x_blocks, g_blocks, balls):
            values = []
            for j in range(b.dim):
                for sgn in (1.0, -1.0):
                    w = np.zeros(b.dim)
                    w[j] = sgn * b.radius
                    values.append(float(gb @ (xb - w)))
            brute.append(max(values))
        assert est.g_tilde_blocks == tuple(brute)
        # enumerate every vertex pair of the product set explicitly
        pair_values = []
        for j1 in range(balls[0].dim):
            for s1 in (1.0, -1.0):
                w1 = np.zeros(balls[0].dim)
                w1[j1] = s1 * balls[0].radius
                v1 = float(g_blocks[0] @ (x_blocks[0] - w1))
                for j2 in range(balls[1].dim):
                    for s2 in (1.0, -1.0):
                        w2 = np.zeros(balls[1].dim)
                        w2[j2] = s2 * balls[1].radius
                        v2 = float(g_blocks[1] @ (x_blocks[1] - w2))
                        pair_values.append(v1 + v2)
        assert est.g_tilde == max(pair_values)
        assert est.value == est.g_tilde * constants.scale + est.h_dual_norm
    print("criterion 08: PASS (bit-identical replay; gap adds up exactly)")


# ------------------------------------------------------------- criterion 9


def _train_study_trial(seed: int, method: str, l_nabla: float, delta: float,
                       batch: int, iterations: int):
    sizes = (20, 20, 20, 1)
    synth = SynthSpec(layer_sizes=sizes, m=5, snr=10.0,
                      activation=Activation.SIGMOID, train_size=2000,
                      val_size=200, test_size=2000, seed=seed)
    train, _, test, _ = generate_synthetic(synth)
    constrained = method != "sgd"
    spec = MLPSpec(layer_sizes=sizes, activation=Activation.SIGMOID,
                   loss=Loss.MSE,
                   fw_layers=(0, 1) if constrained else (),
                   deltas=(delta, delta) if constrained else (),
                   bias=True)
    problem = MLPProblem(spec=spec, data=train)
    layout = problem.layout
    balls = layout.balls()
    x0, y0 = layout.pack(init_params(spec, seed))
    config = OptimizerConfig(
        l_nabla=l_nabla,
        c_bar_per_block=tuple(2.0 * l_nabla * b.diameter() ** 2 for b in balls),
        iterations=iterations, seed=seed,
        batch_schedule=BatchSchedule.constant(batch),
        alternative_directions=(method == "sfw-if"), norm_y=Norm.L2)
    res = run(problem, balls, y0, list(x0), config)
    final = res.final_iterate
    params = layout.unpack(list(final.x_blocks), final.y)
    metric_spec = MLPSpec(layer_sizes=sizes, activation=Activation.SIGMOID,
                          loss=Loss.MSE, fw_layers=(0, 1),
                          deltas=(delta, delta), bias=True)
    nnz = nnz_metrics(params, metric_spec)
    scores = evaluate(metric_spec, params, test)
    return nnz[0], nnz[1], scores["loss"]


def test_criterion_09_training_study_reproduces_sparsity_ordering():
    """Hybrid with away steps is sparsest, plain hybrid next, descent dense.

    Five seeded trials of 2000 iterations on synthetic data (teacher with
    5 edges per node, signal-to-noise 10). Step constants were picked per
    method by validation loss on a small grid, mirroring how the methods
    are tuned in practice; everything below is frozen and deterministic.
    """
    started = time.perf_counter()
    delta = 1.0
    batch = 16
    iterations = 2000
    method_l_nabla = {"sfw": 1.0, "sfw-if": 0.7, "sgd": 1.0}
    means = {}
    for method, l_nabla in method_l_nabla.items():
        rows = [_train_study_trial(seed, method, l_nabla, delta, batch,
                                   iterations) for seed in range(5)]
        means[method] = np.mean(rows, axis=0)
    nnz_first = {m: means[m][0] for m in means}
    nnz_second = {m: means[m][1] for m in means}
    mse = {m: means[m][2] for m in means}

    assert nnz_first["sgd"] > 80.0, nnz_first
    assert nnz_first["sfw-if"] < 40.0, nnz_first
    assert nnz_first["sfw-if"] < nnz_first["sfw"] < nnz_first["sgd"], nnz_first
    assert nnz_second["sfw-if"] < nnz_second["sfw"] < nnz_second["sgd"], nnz_second
    assert mse["sfw-if"] <= 2.0 * mse["sgd"], mse
    _elapsed_under(started, 600.0)
    print("criterion 09: PASS (nnz% first layer "
          f"{nnz_first['sfw-if']:.1f} < {nnz_first['sfw']:.1f} < "
          f"{nnz_first['sgd']:.1f}; mse ratio {mse['sfw-if'] / mse['sgd']:.2f})")


# ------------------------------------------------------------ criterion 10


def _run_cli(argv) -> int:
    return cli.main(list(argv))


def _echoed_config(report_path) -> str:
    lines = []
    with open(report_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("config."):
                lines.append(line.removeprefix("config."))
    return "".join(lines)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_10_cli_reruns_are_bit_for_bit(tmp_path, monkeypatch, capsys):
    """Every command rerun with its echoed configuration reproduces every
    artifact byte for byte."""
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()

    synth_args = ["synth", "--problem", "synthetic-net",
                  "--layer-sizes", "6,5,1", "--train-size", "60",
                  "--val-size", "12", "--test-size", "20",
                  "--seed", "5", "--out-prefix", "data"]
    train_net_args = ["train", "--problem", "synthetic-net",
                      "--method", "sfw", "--layer-sizes", "6,5,1",
                      "--fw-layers", "0,1", "--deltas", "1.0,1.0",
                      "--l-nabla", "1.0", "--iterations", "30",
                      "--train-size", "60", "--val-size", "12",
                      "--test-size", "20", "--seed", "3",
                      "--smoothing-window", "5", "--out-prefix", "net"]
    train_quad_args = ["train", "--problem", "quadratic",
                       "--method", "sfw-if", "--quad-blocks", "4,3",
                       "--quad-y", "3", "--quad-sigma", "0.5",
                       "--l-nabla", "1.5", "--deltas", "0.8,1.1",
                       "--iterations", "60", "--batch-size", "2",
                       "--seed", "9", "--out-prefix", "quad"]
    grid_args = ["grid", "--problem", "quadratic", "--method", "sfw",
                 "--quad-blocks", "3", "--quad-y", "2",
                 "--grid-l-nabla", "1.0,2.0", "--grid-delta", "0.5,1.0",
                 "--iterations", "40", "--seed", "21",
                 "--out-prefix", "sweep"]

    for workdir in (first, second):
        monkeypatch.chdir(workdir)
        assert _run_cli(synth_args) == 0
        assert _run_cli(train_quad_args) == 0
        assert _run_cli(grid_args) == 0
        if workdir is first:
            assert _run_cli(train_net_args) == 0
        else:
            # the rerun drives training purely from the echoed config
            config_text = _echoed_config(first / "net.report.txt")
            (workdir / "echo.cfg").write_text(config_text, encoding="utf-8")
            assert _run_cli(["train", "--config", "echo.cfg"]) == 0
        assert _run_cli(["threshold-eval", "--checkpoint", "net.ckpt",
                         "--dataset", "data.train.bin",
                         "--thetas", "100,50,10", "--out", "thr.csv"]) == 0
        assert _run_cli(["gap-trace", "--trace", "quad.trace.csv",
                         "--window", "7", "--out", "gap.csv"]) == 0
    capsys.readouterr()

    artifacts = [
        "data.train.bin", "data.val.bin", "data.test.bin", "data.teacher.ckpt",
        "quad.trace.csv", "quad.ckpt", "quad.report.txt",
        "net.trace.csv", "net.ckpt", "net.report.txt",
        "sweep.grid.txt", "thr.csv", "gap.csv",
    ]
    for name in artifacts:
        assert _read(first / name) == _read(second / name), name
    print(f"criterion 10: PASS ({len(artifacts)} artifacts byte-identical)")
