"""Batched backprop against the single-sample reference, bit for bit.

`MLPProblem.gradient_mean` runs one forward and backward pass over the rows
of a batch, in chunks whose gradient buffer fits `_CHUNK_BYTES`. The tests
here that cross chunk boundaries lower that budget to `CHUNK` rows of the
drawn network. `backprop_reference` keeps the per-sample pass and in-order
accumulation it replaced. Hypothesis draws networks of 2-4 layers of width
1-40, both activations, both losses, bias on and off, and batches of 1, 16,
one chunk plus one and three chunks, drawn with replacement from at most 40
rows so indices repeat. Gradients must agree in their bytes, and the batch
objective must equal the loss of `forward`. The sigmoid must equal the
reference's boolean-scatter form in its bytes, NaN signs included.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import backprop_reference as ref
from fwsd import sparse_net
from fwsd.sparse_net import (
    Activation,
    Dataset,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    _activate,
    forward,
    loss_value,
)

CHUNK = 64
BATCH_SIZES = (1, 16, CHUNK + 1, 3 * CHUNK)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def problems(draw):
    """A network, its layout, a small dataset and a parameter point."""
    n_layers = draw(st.integers(2, 4))
    sizes = tuple(draw(st.integers(1, 40)) for _ in range(n_layers + 1))
    fw_layers = tuple(l for l in range(n_layers) if draw(st.booleans()))
    spec = MLPSpec(layer_sizes=sizes,
                   activation=draw(st.sampled_from(list(Activation))),
                   loss=draw(st.sampled_from(list(Loss))),
                   fw_layers=fw_layers, deltas=(1.5,) * len(fw_layers),
                   bias=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.7, 4.0]))  # 4.0 saturates sigmoids
    n = draw(st.integers(1, 40))
    features = rng.standard_normal((n, sizes[0]))
    features[0] = 0.0  # with bias off, relu pre-activations hit the kink exactly
    targets = rng.standard_normal((n, sizes[-1]))
    if spec.loss is Loss.SOFTMAX_CE:
        targets = np.abs(targets)
    problem = MLPProblem(spec=spec, data=Dataset(features, targets))
    return problem, uniform_params(spec, rng, scale), rng


def uniform_params(spec, rng, scale=1.0):
    return [LayerParams(w=rng.uniform(-scale, scale, (spec.fan_out(l), spec.fan_in(l))),
                        b=rng.uniform(-scale, scale, spec.fan_out(l)) if spec.bias
                        else np.zeros(spec.fan_out(l)))
            for l in range(spec.n_layers)]


def chunks_of(layout):
    """Lower `_backprop`'s byte budget to `CHUNK` rows of ``layout``'s gradient."""
    return mock.patch.object(sparse_net, "_CHUNK_BYTES", 8 * layout.size * CHUNK)


def assert_same_bytes(got_blocks, got_h, want_blocks, want_h):
    assert len(got_blocks) == len(want_blocks)
    for got, want in zip(got_blocks, want_blocks):
        assert got.tobytes() == want.tobytes()
    assert got_h.tobytes() == want_h.tobytes()


def reference_mean(problem, params, batch):
    data = problem.data
    return problem.layout.pack(
        ref.mean_gradient(problem.spec, params, data.features, data.targets, batch))


@SETTINGS
@given(problems(), st.sampled_from(BATCH_SIZES))
def test_gradient_mean_matches_reference(drawn, batch_size):
    problem, params, rng = drawn
    batch = rng.integers(0, problem.n_samples, size=batch_size)
    x_blocks, y = problem.layout.pack(params)
    with chunks_of(problem.layout):
        est = problem.gradient_mean(x_blocks, y, batch)
    assert_same_bytes(est.g_blocks, est.h, *reference_mean(problem, params, batch))


@SETTINGS
@given(problems())
def test_single_sample_is_batch_one(drawn):
    problem, params, rng = drawn
    i = int(rng.integers(problem.n_samples))
    x_blocks, y = problem.layout.pack(params)
    want = problem.layout.pack(ref.backprop(problem.spec, params, problem.data.features[i],
                                            problem.data.targets[i]))
    one = problem.gradient_mean(x_blocks, y, np.array([i]))
    assert_same_bytes(one.g_blocks, one.h, *want)


@SETTINGS
@given(problems(), st.integers(1, 300))
def test_objective_is_forward_loss_bit_for_bit(drawn, batch_size):
    # the trace's objective column is pinned to the loss of `forward`'s `a @ w.T`;
    # the backward pass's per-row products round differently in the last bits
    problem, params, rng = drawn
    batch = rng.integers(0, problem.n_samples, size=batch_size)
    got = problem.gradient_mean(*problem.layout.pack(params), batch).objective()
    data = problem.data
    want = loss_value(problem.spec, forward(problem.spec, params, data.features[batch]),
                      data.targets[batch])
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_exact_gradient_matches_reference_over_full_dataset():
    rng = np.random.default_rng(6)
    spec = MLPSpec(layer_sizes=(9, 12, 8, 1), fw_layers=(0, 1), deltas=(1.0, 2.0))
    n = 3 * CHUNK + 5
    data = Dataset(rng.standard_normal((n, 9)), rng.standard_normal((n, 1)))
    problem = MLPProblem(spec=spec, data=data)
    params = uniform_params(spec, rng)
    with chunks_of(problem.layout):
        g_blocks, h = problem.exact_gradient(*problem.layout.pack(params))
    assert_same_bytes(g_blocks, h, *reference_mean(problem, params, np.arange(n)))


def exact_gradient_peak(sizes, fw_layers, n, seed):
    """Peak traced bytes of one `exact_gradient` over ``n`` random rows."""
    rng = np.random.default_rng(seed)
    spec = MLPSpec(layer_sizes=sizes, fw_layers=fw_layers, deltas=(1.0,) * len(fw_layers))
    data = Dataset(rng.standard_normal((n, sizes[0])), rng.standard_normal((n, sizes[-1])))
    problem = MLPProblem(spec=spec, data=data)
    x_blocks, y = problem.layout.pack(uniform_params(spec, rng))
    tracemalloc.start()
    try:
        problem.exact_gradient(x_blocks, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_gradient_memory_is_bounded():
    # an unchunked pass over 20,000 rows holds ~200 MB of per-sample gradients
    peak = exact_gradient_peak((20, 20, 20, 1), (0, 1), 20_000, 7)
    assert peak < 32 * 2**20, f"exact_gradient peaked at {peak / 2**20:.1f} MB"


def test_exact_gradient_memory_is_bounded_on_a_wide_layer():
    # one sample's gradient at 784-300-1 is 1.9 MB: 64 rows in one chunk would hold 121 MB
    peak = exact_gradient_peak((784, 300, 1), (0,), 64, 8)
    assert peak < 32 * 2**20, f"exact_gradient peaked at {peak / 2**20:.1f} MB"


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), 5e-324,
                    -5e-324, 2.2250738585072014e-308, 745.2, -745.2, 746.0, -746.0, 1e308,
                    -1e308, 36.8, -36.8])


@SETTINGS
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60),
       st.sampled_from([(-1,), (3, -1)]))
@example(SPECIAL.tolist(), (-1,))
def test_sigmoid_matches_reference_bytes(values, shape):
    z = np.array(values, dtype=np.float64)
    if shape == (3, -1):
        z = np.resize(z, 3 * len(z)).reshape(3, -1)
    got = _activate(Activation.SIGMOID, z)
    assert (got.dtype, got.shape) == (z.dtype, z.shape)
    assert got.tobytes() == ref.sigmoid(z).tobytes()
