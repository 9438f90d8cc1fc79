"""Network forward/backward math, layouts, sparsity tooling, dataset IO."""

import math
import re
import struct
import warnings

import numpy as np
import pytest

from fwsd.optimizer import GradientEstimate, _mean_gradient
from fwsd.problems import StochasticProblem, finite_difference_check
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
    forward,
    generate_synthetic,
    hard_threshold,
    init_params,
    load_dataset_bin,
    load_dataset_csv,
    loss_value,
    nnz_metrics,
    save_dataset_bin,
    save_dataset_csv,
)


def random_params(spec, rng, scale=0.7):
    params = []
    for l in range(spec.n_layers):
        w = rng.uniform(-scale, scale, size=(spec.fan_out(l), spec.fan_in(l)))
        b = rng.uniform(-scale, scale, size=spec.fan_out(l)) if spec.bias else np.zeros(spec.fan_out(l))
        params.append(LayerParams(w=w, b=b))
    return params


def one_hot(i, k):
    t = np.zeros(k)
    t[i] = 1.0
    return t


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(ValueError):
        MLPSpec(layer_sizes=(4,))
    with pytest.raises(ValueError):
        MLPSpec(layer_sizes=(4, 0, 2))
    with pytest.raises(ValueError):
        MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(1, 0), deltas=(1.0, 1.0))
    with pytest.raises(ValueError):
        MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(2,), deltas=(1.0,))
    with pytest.raises(ValueError):
        MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(0,), deltas=())
    for delta in (-1.0, 0.0, float("nan"), float("inf")):  # inf is named here, not as a ball radius
        with pytest.raises(ValueError, match="^deltas must be positive and finite$"):
            MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(0,), deltas=(delta,))


def test_spec_accessors():
    spec = MLPSpec(layer_sizes=(5, 4, 2), fw_layers=(0, 1), deltas=(2.0, 3.0))
    assert spec.n_layers == 2
    assert spec.fan_in(1) == 4 and spec.fan_out(1) == 2
    assert spec.delta_for(0) == 2.0 and spec.delta_for(1) == 3.0


# ---------------------------------------------------------------- layout


def test_layout_block_structure():
    spec = MLPSpec(layer_sizes=(3, 4, 2), fw_layers=(0,), deltas=(1.5,))
    layout = ParamLayout(spec)
    assert layout.block_meta == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert layout.block_dims == (3, 3, 3, 3)
    # dense layer 1 has 2 * 4 weights, biases add 4 + 2
    assert layout.y_dim == 8 + 6
    balls = layout.balls()
    assert len(balls) == 4
    assert all(b.dim == 3 and b.radius == 1.5 for b in balls)
    assert layout.blocks_for_layer(0) == [0, 1, 2, 3]


def test_layout_round_trip():
    rng = np.random.default_rng(11)
    cases = [
        MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(0,), deltas=(1.0,)),
        MLPSpec(layer_sizes=(5, 4, 4, 3), fw_layers=(0, 1), deltas=(1.0, 2.0)),
        MLPSpec(layer_sizes=(3, 2), fw_layers=(), deltas=(), bias=False),
        MLPSpec(layer_sizes=(2, 6, 2), fw_layers=(0, 1), deltas=(0.5, 0.5), bias=False),
    ]
    for spec in cases:
        layout = ParamLayout(spec)
        for _ in range(20):
            params = random_params(spec, rng)
            x_blocks, y = layout.pack(params)
            assert [w.shape for w in x_blocks] == [(spec.fan_out(l), spec.fan_in(l))
                                                   for l in spec.fw_layers]
            assert y.shape == (layout.y_dim,)
            back = layout.unpack(x_blocks, y)
            for orig, rebuilt in zip(params, back):
                assert np.array_equal(orig.w, rebuilt.w)
                if spec.bias:
                    assert np.array_equal(orig.b, rebuilt.b)
                else:
                    assert np.all(rebuilt.b == 0.0)


def test_layout_unpack_validation():
    spec = MLPSpec(layer_sizes=(3, 2), fw_layers=(0,), deltas=(1.0,))
    layout = ParamLayout(spec)
    with pytest.raises(ValueError):
        layout.unpack([np.zeros(3)], np.zeros(layout.y_dim))
    with pytest.raises(ValueError):
        layout.unpack([np.zeros(3), np.zeros(3)], np.zeros(layout.y_dim + 1))


def test_layout_unpack_names_misshapen_block():
    layout = ParamLayout(MLPSpec(layer_sizes=(3, 2), fw_layers=(0,), deltas=(1.0,)))
    y = np.zeros(layout.y_dim)
    with pytest.raises(ValueError,
                       match=r"^block 1 \(layer 0, node 1\) has shape \(4,\), expected \(3,\)$"):
        layout.unpack([np.zeros(3), np.zeros(4)], y)
    with pytest.raises(ValueError,
                       match=r"^block 0 \(layer 0, node 0\) has shape \(4,\), expected \(3,\)$"):
        layout.unpack([np.zeros(4), np.zeros(4)], y)
    # blocks count on across constrained layers; nodes restart per layer
    layout = ParamLayout(MLPSpec(layer_sizes=(2, 3, 2), fw_layers=(0, 1), deltas=(1.0, 1.0)))
    # and a matrix is a run of blocks, one per row
    blocks = [np.zeros((3, 2)), np.zeros(3), np.zeros(2)]
    with pytest.raises(ValueError,
                       match=r"^block 4 \(layer 1, node 1\) has shape \(2,\), expected \(3,\)$"):
        layout.unpack(blocks, np.zeros(layout.y_dim))


def test_layout_pack_returns_row_views():
    spec = MLPSpec(layer_sizes=(3, 2, 2), fw_layers=(0, 1), deltas=(1.0, 1.0))
    params = random_params(spec, np.random.default_rng(5))
    layout = ParamLayout(spec)
    x_blocks, y = layout.pack(params)
    # each constrained layer's weight matrix as it is, and unpack reads it back as a view
    assert [w is params[l].w for w, l in zip(x_blocks, (0, 1))] == [True] * 2
    assert [np.shares_memory(layer.w, params[l].w)
            for layer, l in zip(layout.unpack(x_blocks, y), (0, 1))] == [True] * 2


# ---------------------------------------------------------------- forward


def test_forward_identity_network():
    spec = MLPSpec(layer_sizes=(2, 2), bias=False)
    params = [LayerParams(w=np.eye(2), b=np.zeros(2))]
    x = np.array([0.3, -1.2])
    assert np.array_equal(forward(spec, params, x), x)


def test_forward_single_sigmoid_unit():
    # zero weights into one sigmoid unit, passed through a unit linear layer
    spec = MLPSpec(layer_sizes=(3, 1, 1), activation=Activation.SIGMOID, bias=False)
    params = [
        LayerParams(w=np.zeros((1, 3)), b=np.zeros(1)),
        LayerParams(w=np.ones((1, 1)), b=np.zeros(1)),
    ]
    out = forward(spec, params, np.array([4.0, -2.0, 7.0]))
    assert out.shape == (1,)
    assert out[0] == 0.5


def test_forward_single_relu_unit():
    spec = MLPSpec(layer_sizes=(2, 1, 1), activation=Activation.RELU, bias=False)
    params = [
        LayerParams(w=np.array([[1.0, -1.0]]), b=np.zeros(1)),
        LayerParams(w=np.ones((1, 1)), b=np.zeros(1)),
    ]
    assert forward(spec, params, np.array([2.0, 3.0]))[0] == 0.0
    assert forward(spec, params, np.array([3.0, 2.0]))[0] == 1.0


def test_forward_batch_matches_per_sample():
    rng = np.random.default_rng(5)
    spec = MLPSpec(layer_sizes=(4, 5, 3), fw_layers=(0,), deltas=(1.0,))
    params = random_params(spec, rng)
    x = rng.standard_normal((7, 4))
    batch_out = forward(spec, params, x)
    assert batch_out.shape == (7, 3)
    # matmul blocking may differ between batched and single-row products
    for i in range(7):
        assert np.allclose(batch_out[i], forward(spec, params, x[i]), rtol=1e-13, atol=1e-14)


def test_forward_rejects_wrong_width():
    spec = MLPSpec(layer_sizes=(3, 2))
    params = random_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(spec, params, np.zeros(4))


# ---------------------------------------------------------------- losses


def test_mse_loss_value():
    spec = MLPSpec(layer_sizes=(2, 2), loss=Loss.MSE)
    pred = np.array([[1.0, 0.0]])
    target = np.array([[0.0, 0.0]])
    assert loss_value(spec, pred, target) == 0.5


def test_cross_entropy_uniform_logits():
    spec = MLPSpec(layer_sizes=(2, 2), loss=Loss.SOFTMAX_CE)
    pred = np.array([[0.0, 0.0]])
    target = np.array([[1.0, 0.0]])
    assert abs(loss_value(spec, pred, target) - math.log(2.0)) < 1e-15


def test_cross_entropy_stable_for_large_logits():
    spec = MLPSpec(layer_sizes=(2, 2), loss=Loss.SOFTMAX_CE)
    pred = np.array([[1000.0, 0.0]])
    value = loss_value(spec, pred, np.array([[1.0, 0.0]]))
    assert math.isfinite(value) and value < 1e-12


# ---------------------------------------------------------------- gradients


def one_sample_gradient(spec, params, x, target):
    """``(g_blocks, g_y)`` of one sample: `gradient_mean` over a one-row dataset."""
    layout = ParamLayout(spec)
    problem = MLPProblem(spec=spec, data=Dataset(x[None, :], target[None, :]))
    est = problem.gradient_mean(*layout.pack(params), np.array([0]))
    return list(est.g_blocks), est.h


def test_linear_mse_gradient_closed_form():
    # one linear layer: gradient of (w @ x - t)^2 is 2 (w @ x - t) x
    spec = MLPSpec(layer_sizes=(3, 1), loss=Loss.MSE, bias=False)
    params = [LayerParams(w=np.array([[0.1, 0.2, 0.3]]), b=np.zeros(1))]
    x = np.array([1.0, 2.0, 3.0])
    g_blocks, g_y = one_sample_gradient(spec, params, x, np.array([0.4]))
    assert g_blocks == []
    assert np.allclose(g_y, 2.0 * x, rtol=0, atol=1e-15)


def test_softmax_gradient_closed_form():
    # identity map to logits: output gradient is softmax minus the target
    spec = MLPSpec(layer_sizes=(2, 2), loss=Loss.SOFTMAX_CE, bias=False)
    params = [LayerParams(w=np.eye(2), b=np.zeros(2))]
    x = np.array([1.0, 0.0])
    _, g_y = one_sample_gradient(spec, params, x, one_hot(0, 2))
    p0 = math.exp(1.0) / (math.exp(1.0) + 1.0)
    expected = np.array([[(p0 - 1.0) * 1.0, 0.0], [(1.0 - p0) * 1.0, 0.0]])
    assert np.allclose(g_y.reshape(2, 2), expected, rtol=0, atol=1e-15)


def test_sigmoid_unit_gradient_chain_rule():
    # s = sigmoid(w x); d/dw of (s - t)^2 is 2 (s - t) s (1 - s) x
    spec = MLPSpec(layer_sizes=(2, 1, 1), activation=Activation.SIGMOID,
                   loss=Loss.MSE, fw_layers=(0,), deltas=(5.0,), bias=False)
    w = np.array([[0.4, -0.3]])
    params = [LayerParams(w=w, b=np.zeros(1)), LayerParams(w=np.ones((1, 1)), b=np.zeros(1))]
    x = np.array([0.8, 0.5])
    t = np.array([0.9])
    g_blocks, g_y = one_sample_gradient(spec, params, x, t)
    s = 1.0 / (1.0 + math.exp(-(w[0] @ x)))
    expected = 2.0 * (s - t[0]) * s * (1.0 - s) * x
    assert np.allclose(g_blocks[0], expected, rtol=0, atol=1e-15)
    # the free block holds the second layer's weight gradient
    assert np.allclose(g_y, [2.0 * (s - t[0]) * s], rtol=0, atol=1e-15)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    cases = [
        MLPSpec(layer_sizes=(4, 6, 3), activation=Activation.SIGMOID,
                loss=Loss.MSE, fw_layers=(0,), deltas=(2.0,)),
        MLPSpec(layer_sizes=(5, 4, 3), activation=Activation.SIGMOID,
                loss=Loss.SOFTMAX_CE, fw_layers=(0, 1), deltas=(2.0, 2.0)),
        MLPSpec(layer_sizes=(3, 5, 2), activation=Activation.RELU,
                loss=Loss.MSE, fw_layers=(0,), deltas=(2.0,), bias=False),
    ]
    for spec in cases:
        layout = ParamLayout(spec)
        n = 12
        features = rng.standard_normal((n, spec.layer_sizes[0]))
        if spec.loss is Loss.SOFTMAX_CE:
            targets = np.stack([one_hot(rng.integers(spec.layer_sizes[-1]), spec.layer_sizes[-1])
                                for _ in range(n)])
        else:
            targets = rng.standard_normal((n, spec.layer_sizes[-1]))
        problem = MLPProblem(spec=spec, data=Dataset(features, targets))
        x_blocks, y = layout.pack(random_params(spec, rng, scale=0.5))
        err = finite_difference_check(problem, x_blocks, y, epsilon=1e-5)
        assert err < 1e-6, f"finite differences disagree ({err:.2e}) for {spec.loss}"


# ---------------------------------------------------------------- problem


def make_problem(rng, spec=None, n=30):
    if spec is None:
        spec = MLPSpec(layer_sizes=(4, 5, 2), fw_layers=(0,), deltas=(1.5,))
    features = rng.standard_normal((n, spec.layer_sizes[0]))
    targets = rng.standard_normal((n, spec.layer_sizes[-1]))
    return MLPProblem(spec=spec, data=Dataset(features, targets))


def test_problem_satisfies_protocol():
    problem = make_problem(np.random.default_rng(3))
    assert isinstance(problem, StochasticProblem)
    assert problem.block_dims == (4, 4, 4, 4, 4)
    assert problem.y_dim == 10 + 7


def test_problem_builds_its_layout_from_its_spec():
    rng = np.random.default_rng(6)
    spec = MLPSpec(layer_sizes=(4, 5, 2), activation=Activation.RELU, fw_layers=(0,),
                   deltas=(1.5,))
    data = Dataset(rng.standard_normal((8, 4)), rng.standard_normal((8, 2)))
    problem = MLPProblem(spec=spec, data=data)
    assert problem.layout.spec is spec
    assert [b.radius for b in problem.layout.balls()] == [1.5] * 5
    # the spec is the one description of the network: a second one is not taken
    with pytest.raises(TypeError, match="layout"):
        MLPProblem(spec=spec, layout=ParamLayout(spec), data=data)


def test_problem_shape_validation():
    rng = np.random.default_rng(4)
    spec = MLPSpec(layer_sizes=(4, 5, 2), fw_layers=(0,), deltas=(1.5,))
    with pytest.raises(ValueError):
        MLPProblem(spec=spec,
                   data=Dataset(rng.standard_normal((8, 3)), rng.standard_normal((8, 2))))
    with pytest.raises(ValueError):
        MLPProblem(spec=spec,
                   data=Dataset(rng.standard_normal((8, 4)), rng.standard_normal((8, 3))))


def test_gradient_mean_matches_per_sample_loop():
    rng = np.random.default_rng(17)
    problem = make_problem(rng)
    layout = problem.layout
    x_blocks, y = layout.pack(random_params(problem.spec, rng))
    batch = np.array([4, 0, 4, 11, 7])
    fused = problem.gradient_mean(x_blocks, y, batch)
    acc_g = None
    acc_h = None
    for z in batch:
        one = problem.gradient_mean(x_blocks, y, np.array([z]))
        g_blocks, h = one.g_blocks, one.h
        if acc_g is None:
            acc_g = [g.copy() for g in g_blocks]
            acc_h = h.copy()
        else:
            for a, g in zip(acc_g, g_blocks):
                a += g
            acc_h += h
    for fused_g, manual in zip(fused.g_blocks, acc_g):
        assert np.array_equal(fused_g, manual / 5)
    assert np.array_equal(fused.h, acc_h / 5)
    # the engine helper routes through the fused path
    engine = _mean_gradient(problem, x_blocks, y, batch)
    assert isinstance(engine, GradientEstimate)
    assert np.array_equal(engine.h, fused.h)


def test_gradient_mean_rejects_empty_batch():
    rng = np.random.default_rng(18)
    problem = make_problem(rng)
    x_blocks, y = problem.layout.pack(random_params(problem.spec, rng))
    with pytest.raises(ValueError):
        problem.gradient_mean(x_blocks, y, np.array([], dtype=np.int64))


def test_exact_gradient_is_full_dataset_mean():
    rng = np.random.default_rng(19)
    problem = make_problem(rng, n=13)
    x_blocks, y = problem.layout.pack(random_params(problem.spec, rng))
    g_blocks, h = problem.exact_gradient(x_blocks, y)
    full = problem.gradient_mean(x_blocks, y, np.arange(13))
    for a, b in zip(g_blocks, full.g_blocks):
        assert np.array_equal(a, b)
    assert np.array_equal(h, full.h)


def test_objective_estimate_is_batch_mean_loss():
    rng = np.random.default_rng(20)
    problem = make_problem(rng)
    params = random_params(problem.spec, rng)
    x_blocks, y = problem.layout.pack(params)
    batch = np.array([2, 2, 9])
    est = problem.gradient_mean(x_blocks, y, batch).objective()
    losses = [loss_value(problem.spec, forward(problem.spec, params, problem.data.features[i]),
                         problem.data.targets[i]) for i in batch]
    assert abs(est - np.mean(losses)) < 1e-12
    full = problem.gradient_mean(x_blocks, y, np.arange(problem.n_samples)).objective()
    assert abs(problem.exact_objective(x_blocks, y) - full) < 1e-15


def test_draw_returns_valid_indices():
    rng = np.random.default_rng(23)
    problem = make_problem(rng, n=9)
    idx = problem.draw(np.random.default_rng(1), 50)
    assert idx.shape == (50,)
    assert idx.min() >= 0 and idx.max() < 9


# ---------------------------------------------------------------- sparsity


def test_nnz_metrics_example():
    spec = MLPSpec(layer_sizes=(2, 2, 1), fw_layers=(0,), deltas=(1.0,))
    params = [
        LayerParams(w=np.array([[0.5, 0.0005], [0.002, 0.0]]), b=np.zeros(2)),
        LayerParams(w=np.array([[1.0, 1.0]]), b=np.zeros(1)),
    ]
    assert nnz_metrics(params, spec) == {0: 50.0}


def test_nnz_threshold_is_inclusive():
    spec = MLPSpec(layer_sizes=(2, 1, 1), fw_layers=(0,), deltas=(1.0,))
    params = [
        LayerParams(w=np.array([[0.001, 0.0]]), b=np.zeros(1)),
        LayerParams(w=np.ones((1, 1)), b=np.zeros(1)),
    ]
    assert nnz_metrics(params, spec) == {0: 50.0}
    assert nnz_metrics(params, spec, threshold=0.0011) == {0: 0.0}


def test_hard_threshold_keeps_top_half():
    spec = MLPSpec(layer_sizes=(2, 2, 1), fw_layers=(0,), deltas=(1.0,))
    params = [
        LayerParams(w=np.array([[0.5, -0.3], [0.1, 0.05]]), b=np.array([1.0, 2.0])),
        LayerParams(w=np.array([[0.7, 0.7]]), b=np.zeros(1)),
    ]
    out = hard_threshold(params, spec, 50.0)
    assert np.array_equal(out[0].w, [[0.5, -0.3], [0.0, 0.0]])
    assert np.array_equal(out[0].b, [1.0, 2.0])
    # dense layers pass through untouched
    assert np.array_equal(out[1].w, params[1].w)


def test_hard_threshold_tie_keeps_lowest_flat_index():
    spec = MLPSpec(layer_sizes=(2, 2, 1), fw_layers=(0,), deltas=(1.0,))
    params = [
        LayerParams(w=np.array([[0.5, 0.3], [-0.3, 0.1]]), b=np.zeros(2)),
        LayerParams(w=np.ones((1, 2)), b=np.zeros(1)),
    ]
    out = hard_threshold(params, spec, 50.0)
    assert np.array_equal(out[0].w, [[0.5, 0.3], [0.0, 0.0]])


def test_hard_threshold_edge_cases():
    spec = MLPSpec(layer_sizes=(3, 1, 1), fw_layers=(0,), deltas=(1.0,))
    params = [
        LayerParams(w=np.array([[0.4, -0.2, 0.1]]), b=np.zeros(1)),
        LayerParams(w=np.ones((1, 1)), b=np.zeros(1)),
    ]
    assert np.array_equal(hard_threshold(params, spec, 100.0)[0].w, params[0].w)
    assert np.array_equal(hard_threshold(params, spec, 0.0)[0].w, np.zeros((1, 3)))
    # ceil(0.5 * 3) keeps two of three weights
    assert np.count_nonzero(hard_threshold(params, spec, 50.0)[0].w) == 2
    with pytest.raises(ValueError):
        hard_threshold(params, spec, 101.0)


# ---------------------------------------------------------------- synthetic


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(layer_sizes=(4, 3, 1), m=5)
    with pytest.raises(ValueError):
        SynthSpec(snr=0.0)
    with pytest.raises(ValueError, match="snr"):
        SynthSpec(snr=float("nan"))  # generate_synthetic would write NaN targets
    with pytest.raises(ValueError):
        SynthSpec(train_size=1)
    # the teacher's shape is MLPSpec's: a string is not read digit by digit
    with pytest.raises(ValueError, match="^layer_sizes: "):
        SynthSpec(layer_sizes="432", m=1)
    with pytest.raises(ValueError, match="^layer_sizes "):
        SynthSpec(layer_sizes=(4,))
    with pytest.raises(ValueError, match="^activation: "):
        SynthSpec(activation="tanh")
    synth = SynthSpec(layer_sizes=[4, 3, 1], m=2, activation="relu")
    assert (synth.layer_sizes, synth.activation) == ((4, 3, 1), Activation.RELU)


def test_synthetic_teacher_structure():
    synth = SynthSpec(layer_sizes=(10, 8, 6, 2), m=3, snr=5.0,
                      train_size=50, val_size=20, test_size=30, seed=7)
    train, val, test, teacher = generate_synthetic(synth)
    assert train.features.shape == (50, 10) and train.targets.shape == (50, 2)
    assert val.features.shape == (20, 10)
    assert test.features.shape == (30, 10)
    for layer in teacher[:-1]:
        assert np.all(np.isin(layer.w, [-1.0, 0.0, 1.0]))
        assert np.all(np.count_nonzero(layer.w, axis=1) == 3)
    assert np.all(np.isin(teacher[-1].w, [-1.0, 1.0]))
    assert np.all(teacher[-1].w != 0.0)


def test_synth_spec_teacher_is_the_teacher_networks_spec():
    synth = SynthSpec(layer_sizes=[5, 4, 1], m=2, activation="relu")
    assert synth.teacher == MLPSpec(layer_sizes=(5, 4, 1), activation=Activation.RELU,
                                    bias=False)


def test_synthetic_noise_matches_snr():
    synth = SynthSpec(layer_sizes=(6, 6, 1), m=2, snr=10.0,
                      train_size=6000, val_size=100, test_size=100, seed=3)
    train, _, _, teacher = generate_synthetic(synth)
    net_spec = MLPSpec(layer_sizes=synth.layer_sizes, activation=synth.activation,
                       loss=Loss.MSE, bias=False)
    signal = forward(net_spec, teacher, train.features)
    noise = train.targets - signal
    ratio = np.var(signal) / np.var(noise)
    assert abs(ratio - 10.0) / 10.0 < 0.05


def test_synthetic_is_deterministic():
    synth = SynthSpec(layer_sizes=(5, 4, 1), m=2, train_size=40, val_size=10,
                      test_size=10, seed=12)
    a = generate_synthetic(synth)
    b = generate_synthetic(synth)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[2].targets, b[2].targets)
    for la, lb in zip(a[3], b[3]):
        assert np.array_equal(la.w, lb.w)


# ---------------------------------------------------------------- init


def test_init_constrained_rows_have_one_half_radius_edge():
    spec = MLPSpec(layer_sizes=(8, 6, 3), fw_layers=(0, 1), deltas=(2.0, 4.0))
    for seed in range(20):
        params = init_params(spec, seed)
        for l, delta in zip(spec.fw_layers, spec.deltas):
            w = params[l].w
            norms = np.sum(np.abs(w), axis=1)
            assert np.all(norms > 0.0)
            assert np.all(norms < delta), "every block must start strictly feasible"
            if l == 0:
                assert np.all(np.count_nonzero(w, axis=1) == 1)
                assert np.all(norms == delta / 2.0)


def test_init_fixes_orphan_hidden_units():
    # square stacked constrained layers: relocation keeps one edge per row
    spec = MLPSpec(layer_sizes=(6, 6, 6, 1), fw_layers=(0, 1), deltas=(1.0, 1.0))
    saw_orphan_free = 0
    for seed in range(30):
        params = init_params(spec, seed)
        w = params[1].w
        assert np.all(np.count_nonzero(w, axis=1) == 1)
        assert np.all(np.sum(np.abs(w), axis=1) == 0.5)
        col_used = np.count_nonzero(w, axis=0)
        assert np.all(col_used >= 1), "hidden unit left without an outgoing edge"
        saw_orphan_free += 1
    assert saw_orphan_free == 30


def test_init_splits_rows_when_no_donor_exists():
    # fewer rows than columns: rows must split their budget to cover columns
    spec = MLPSpec(layer_sizes=(5, 6, 3, 1), fw_layers=(0, 1), deltas=(1.0, 2.0))
    for seed in range(10):
        params = init_params(spec, seed)
        w = params[1].w
        assert np.all(np.count_nonzero(w, axis=0) >= 1)
        norms = np.sum(np.abs(w), axis=1)
        assert np.all(norms > 0.0)
        assert np.all(norms < 2.0)


def test_init_dense_layers_uniform():
    spec = MLPSpec(layer_sizes=(16, 8, 4), fw_layers=(0,), deltas=(1.0,))
    params = init_params(spec, 2)
    bound = 1.0 / np.sqrt(8.0)
    assert np.all(np.abs(params[1].w) <= bound)
    assert np.any(params[1].w != 0.0)
    assert np.all(np.abs(params[1].b) <= bound)


def test_init_without_bias_leaves_zero_bias():
    spec = MLPSpec(layer_sizes=(4, 3, 2), fw_layers=(0,), deltas=(1.0,), bias=False)
    params = init_params(spec, 9)
    assert np.all(params[0].b == 0.0) and np.all(params[1].b == 0.0)


def test_init_is_deterministic():
    spec = MLPSpec(layer_sizes=(7, 7, 2), fw_layers=(0,), deltas=(1.0,))
    a = init_params(spec, 31)
    b = init_params(spec, 31)
    assert all(np.array_equal(x.w, y.w) and np.array_equal(x.b, y.b) for x, y in zip(a, b))


# ---------------------------------------------------------------- dataset IO


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    data = Dataset(features=rng.standard_normal((9, 4)), targets=rng.standard_normal((9, 2)))
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data)
    back = load_dataset_csv(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.targets, data.targets)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,y0,y1"


def test_dataset_binary_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    data = Dataset(features=rng.standard_normal((17, 3)), targets=rng.standard_normal((17, 1)))
    path = tmp_path / "data.fwnd"
    save_dataset_bin(path, data)
    back = load_dataset_bin(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.targets, data.targets)


def test_dataset_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTADATA" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_dataset_bin(path)


def test_dataset_binary_rejects_every_truncation(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset_bin(path, Dataset(features=np.ones((3, 2)), targets=np.zeros((3, 1))))
    full = path.read_bytes()
    for length in range(len(full)):
        path.write_bytes(full[:length])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated at "):
            load_dataset_bin(path)


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("delta", [1, 2**40, -1])
def test_dataset_binary_rejects_wrong_header_counts(tmp_path, field, delta):
    # the three uint64 counts (rows, features, targets) follow magic and version
    message = "truncated at (features|targets)" if delta > 0 else r"\d+ bytes after the last field"
    path = tmp_path / "data.bin"
    save_dataset_bin(path, Dataset(features=np.ones((3, 2)), targets=np.zeros((3, 1))))
    blob = bytearray(path.read_bytes())
    at = 9 + 8 * field
    count = struct.unpack_from("<Q", blob, at)[0]
    struct.pack_into("<Q", blob, at, count + delta)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_dataset_bin(path)


# a CSV file's text, or a binary file's (features, targets, version byte)
DATASET_FAULTS = [
    ("target-first.csv", "y0,x0,x1\n1,2,3\n", "header 'y0,x0,x1' is not "),
    ("no-target.csv", "x0,x1\n1,2\n", "header 'x0,x1' is not "),
    ("wide-row.csv", "x0,x1,y0\n1,2,3,4\n", "line 2 has 4 values, the header names 3$"),
    ("short-row.csv", "x0,x1,y0\n1,2,3\n1,2\n", "line 3 has 2 values, the header names 3$"),
    ("header-only.csv", "x0,y0\n", "dataset has no rows$"),
    ("empty.csv", "", "header '' is not "),
    ("not-a-number.csv", "x0,y0\n1,2\n1,two\n", "could not convert "),
    ("nan-feature.csv", "x0,y0\n1,2\n\n1,2\nnan,2\n", "row 3 holds a non-finite value$"),
    ("inf-target.csv", "x0,y0\n1,-inf\n", "row 1 holds a non-finite value$"),
    ("no-rows.bin", (np.zeros((0, 2)), np.zeros((0, 1)), 1), "dataset has no rows$"),
    ("version-2.bin", (np.ones((2, 2)), np.ones((2, 1)), 2), "unsupported dataset version 2$"),
    ("nan-target.bin", (np.ones((2, 2)), np.array([[1.0], [np.nan]]), 1),
     "row 2 holds a non-finite value$"),
    ("inf-feature.bin", (np.array([[np.inf, 1.0]]), np.ones((1, 1)), 1),
     "row 1 holds a non-finite value$"),
]


@pytest.mark.parametrize("name, content, message", DATASET_FAULTS,
                         ids=[n for n, *_ in DATASET_FAULTS])
def test_dataset_file_is_checked_where_read(tmp_path, name, content, message):
    path = tmp_path / name
    if isinstance(content, tuple):
        features, targets, version = content
        save_dataset_bin(path, Dataset(features, targets))
        blob = bytearray(path.read_bytes())
        blob[8] = version  # the byte after the magic
        path.write_bytes(bytes(blob))
    else:
        path.write_text(content)
    load = load_dataset_bin if name.endswith(".bin") else load_dataset_csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a file without rows
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load(path)


# ---------------------------------------------------------------- evaluate


def test_evaluate_regression_reports_loss_only():
    rng = np.random.default_rng(50)
    spec = MLPSpec(layer_sizes=(3, 2), bias=False)
    params = random_params(spec, rng)
    data = Dataset(features=rng.standard_normal((5, 3)), targets=rng.standard_normal((5, 2)))
    out = evaluate(spec, params, data)
    assert set(out) == {"loss"}
    pred = forward(spec, params, data.features)
    assert out["loss"] == loss_value(spec, pred, data.targets)


def test_evaluate_classification_accuracy():
    spec = MLPSpec(layer_sizes=(2, 2), loss=Loss.SOFTMAX_CE, bias=False)
    params = [LayerParams(w=np.eye(2), b=np.zeros(2))]
    features = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 3.0]])
    targets = np.stack([one_hot(0, 2), one_hot(1, 2), one_hot(1, 2), one_hot(1, 2)])
    out = evaluate(spec, params, Dataset(features, targets))
    assert out["accuracy"] == 0.75
